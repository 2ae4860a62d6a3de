import hashlib
import math
import random
import statistics

import _decimal
import pytest
import support

from helb import bfv
from helb.errors import InvalidParams, ParamMismatch, TooManyValues
from helb.numtheory import RandomSource, is_probable_prime

RNG = RandomSource.seeded

DESK = bfv.desk_params()
WIDE = bfv.wide_params()
SMALL = support.SMALL_PARAMS
TINY = support.TINY_PARAMS
TINY_NO_NTT = support.TINY_PARAMS_NO_NTT


# ---------------------------------------------------------------------------
# parameters


class TestParams:
    def test_shipped_profiles_are_valid(self):
        assert not bfv.param_violations(DESK)
        assert not bfv.param_violations(WIDE)
        assert not bfv.param_violations(SMALL)
        assert not bfv.param_violations(support.SCALE_PARAMS)
        assert not bfv.param_violations(TINY)
        assert not bfv.param_violations(TINY_NO_NTT)

    def test_wide_profile_reference_modulus(self):
        # divisibility checked by direct multiprecision remainder
        t = 35_184_372_744_193
        assert is_probable_prime(t)
        assert (t - 1) % (2 * 16384) == 0
        assert not bfv.param_violations(
            bfv.BfvParams(16384, t, WIDE.ciphertext_mod, 3.2))

    def test_small_plaintext_modulus_65537(self):
        assert (65_537 - 1) % (2 * 4096) == 0
        assert not bfv.param_violations(
            bfv.BfvParams(4096, 65_537, DESK.ciphertext_mod, 3.2))

    def test_rejects_composite_plaintext_modulus(self):
        params = bfv.BfvParams(4096, 65_536, DESK.ciphertext_mod, 3.2)
        assert bfv.param_violations(params)
        assert any("prime" in v for v in bfv.param_violations(params))

    def test_rejects_bad_congruence(self):
        # 13 is prime but 12 is not a multiple of 8192
        params = bfv.BfvParams(4096, 13, DESK.ciphertext_mod, 3.2)
        violations = bfv.param_violations(params)
        assert any("congruent" in v for v in violations)

    def test_rejects_non_power_of_two_ring(self):
        params = bfv.BfvParams(3000, DESK.plaintext_mod, DESK.ciphertext_mod, 3.2)
        assert bfv.param_violations(params)

    def test_rejects_small_modulus_ratio(self):
        params = bfv.BfvParams(16, 65_537, 65_537 * 3 + 1, 3.2)
        assert any("exceed" in v for v in bfv.param_violations(params))

    def test_rejects_nonpositive_sigma(self):
        params = bfv.BfvParams(TINY.ring_dim, TINY.plaintext_mod,
                               TINY.ciphertext_mod, 0.0)
        assert bfv.param_violations(params)

    def test_fuzzed_bad_plaintext_moduli_rejected(self):
        rnd = random.Random("fuzz")
        n = 4096
        rejected = 0
        for _ in range(300):
            t = rnd.randrange(3, 1 << 48) | 1
            if (t - 1) % (2 * n) == 0 and is_probable_prime(t):
                continue  # accidentally valid; skip
            params = bfv.BfvParams(n, t, DESK.ciphertext_mod, 3.2)
            assert bfv.param_violations(params)
            rejected += 1
        assert rejected > 250

    def test_rejects_sigma_without_noise_headroom(self):
        # sigma = 10^9 at desk: one subtraction could exceed the decryption
        # threshold, so a listed address could read as not listed
        params = bfv.BfvParams(DESK.ring_dim, DESK.plaintext_mod,
                               DESK.ciphertext_mod, 1e9)
        assert any("headroom" in v for v in bfv.param_violations(params))
        assert bfv.additive_noise_budget(DESK, 1) == 327_722
        assert DESK.noise_threshold > 8.59e9

    @pytest.mark.parametrize("t, q, sigma", [
        (0, DESK.ciphertext_mod, 3.2), (1, DESK.ciphertext_mod, 3.2),
        (DESK.plaintext_mod, 0, 3.2), (DESK.plaintext_mod, DESK.ciphertext_mod, math.inf),
        (DESK.plaintext_mod, DESK.ciphertext_mod, math.nan)],
        ids=["t0", "t1", "q0", "sigma-inf", "sigma-nan"])
    def test_degenerate_values_are_violations(self, t, q, sigma):
        # the noise-headroom check must not divide by t or round sigma first
        assert bfv.param_violations(bfv.BfvParams(DESK.ring_dim, t, q, sigma))

    def test_keygen_rejects_invalid_params(self):
        with pytest.raises(InvalidParams):
            bfv.keygen(bfv.BfvParams(4096, 65_536, DESK.ciphertext_mod, 3.2), RNG(1))


# ---------------------------------------------------------------------------
# polynomial arithmetic


def _uniform(rnd, n, q):
    return [rnd.randrange(q) for _ in range(n)]


def _ternary(rnd, n, q):
    return [(rnd.randrange(3) - 1) % q for _ in range(n)]


class TestNegacyclicMul:
    @pytest.mark.parametrize("n,q,pairs", [
        (2, TINY.ciphertext_mod, 200),
        (TINY.ring_dim, TINY.ciphertext_mod, 20),
        (TINY_NO_NTT.ring_dim, TINY_NO_NTT.ciphertext_mod, 20),
        (SMALL.ring_dim, SMALL.ciphertext_mod, 20),
        (support.SCALE_PARAMS.ring_dim, support.SCALE_PARAMS.ciphertext_mod, 2)],
        ids=["n2", "tiny", "tiny-no-ntt", "small", "scale"])
    def test_matches_schoolbook(self, n, q, pairs):
        # uniform x uniform, uniform x ternary as in every scheme product,
        # and a zero operand
        rnd = random.Random(f"kronecker{n}{q}")
        zero = [0] * n
        for _ in range(pairs):
            a = _uniform(rnd, n, q)
            for b in (_uniform(rnd, n, q), _ternary(rnd, n, q), zero):
                want = support.schoolbook_negacyclic_mul(a, b, q)
                assert bfv.negacyclic_mul(a, b, q) == want
                assert bfv.negacyclic_mul(b, a, q) == want
        assert bfv.negacyclic_mul(zero, zero, q) == zero

    @pytest.mark.parametrize("n,q", [
        (TINY.ring_dim, TINY.ciphertext_mod),
        (TINY_NO_NTT.ring_dim, TINY_NO_NTT.ciphertext_mod),
        (SMALL.ring_dim, SMALL.ciphertext_mod),
        # q//2 = 25 * 10^10 - 1: the bound 16 * (q//2)^2 is just below 10^24
        (16, 500_000_000_000 - 1),
        # q//2 = 25 * 10^10: the bound is exactly 10^24
        (16, 500_000_000_000 + 1),
        # q//2 = h: the slot bound 2 * 16 * h^2 is just below 10^24, and
        # just above it for h + 1
        (16, 2 * math.isqrt((10**24 - 1) // 32) + 1),
        (16, 2 * math.isqrt((10**24 - 1) // 32) + 3),
        (DESK.ring_dim, DESK.ciphertext_mod)],
        ids=["tiny", "tiny-no-ntt", "small", "below-power-of-ten",
             "at-power-of-ten", "slot-bound-below", "slot-bound-above", "desk"])
    def test_worst_case_digits(self, n, q):
        # every coefficient of the plain product at its largest magnitude,
        # n * (q//2)^2, positive and negative
        top = [q // 2] * n
        bottom = [-(q // 2) % q] * n
        for a, b in ((top, top), (top, bottom), (bottom, bottom)):
            assert bfv.negacyclic_mul(a, b, q) == \
                   support.schoolbook_negacyclic_mul(a, b, q)

    @pytest.mark.parametrize("n,q", [
        (16, 500_000_000_000 + 1),
        # q//2 = 4.5 * 10^11 in 12-digit slots: offset by 5 * 10^11, the
        # coefficient -q//2 packs to 11 digits and must be padded
        (16, 900_000_000_000 + 1),
        (DESK.ring_dim, DESK.ciphertext_mod)], ids=["n16", "short-slot", "desk"])
    def test_zero_times_full_width(self, n, q):
        # the product bound is 0, yet the slots must still hold the other
        # operand's coefficients at their largest magnitude
        zero = [0] * n
        for full in ([q // 2] * n, [-(q // 2) % q] * n):
            assert bfv.negacyclic_mul(zero, full, q) == zero
            assert bfv.negacyclic_mul(full, zero, q) == zero

    @pytest.mark.parametrize("fixture", ["bfv_small_keys", "desk_keys"])
    def test_packed_secret_matches_schoolbook(self, fixture, request):
        # packed once, the secret serves canonical operands at its own
        # width and non-canonical ones by packing again
        keys = request.getfixturevalue(fixture)
        q, n = keys.params.ciphertext_mod, keys.params.ring_dim
        secret = keys.secret
        assert keys.packed_secret is keys.packed_secret
        rnd = random.Random(f"packed{n}")
        operands = [_uniform(rnd, n, q), [q // 2] * n, [0] * n]
        if n <= SMALL.ring_dim:
            operands.append([rnd.randrange(-3 * q, 3 * q) for _ in range(n)])
        for a in operands:
            assert bfv.negacyclic_mul(a, keys.packed_secret, q) == \
                   support.schoolbook_negacyclic_mul(a, secret, q)

    def test_desk_secret_slots_are_28_digits(self, desk_keys):
        # 2 * n * floor(q/2) < 10^28 for the ternary secret at desk
        assert desk_keys.packed_secret.digits == 28

    def test_product_runs_on_the_c_decimal_module(self):
        # the pure-Python fallback multiplies in quadratic time
        assert bfv.Decimal is _decimal.Decimal

    def test_x_power_n_equals_minus_one(self):
        # multiplying x^(n-1) by x wraps to -1
        for params in (TINY, SMALL):
            q, n = params.ciphertext_mod, params.ring_dim
            xn1 = [0] * n
            xn1[n - 1] = 1
            x = [0] * n
            x[1] = 1
            product = bfv.negacyclic_mul(xn1, x, q)
            assert product[0] == q - 1
            assert all(c == 0 for c in product[1:])

    def test_wraparound_on_random_polys(self):
        # a(x) * x^n as two half-shifts equals -a(x)
        rnd = random.Random("wrap")
        q, n = TINY.ciphertext_mod, TINY.ring_dim
        half_shift = [0] * n
        half_shift[n // 2] = 1
        for _ in range(20):
            a = [rnd.randrange(q) for _ in range(n)]
            shifted = bfv.negacyclic_mul(
                bfv.negacyclic_mul(a, half_shift, q), half_shift, q)
            assert shifted == [(-c) % q for c in a]

    def test_non_canonical_inputs_reduce(self):
        # coefficients outside [0, q) give the product of their residues
        rnd = random.Random("noncanon")
        q, n = TINY.ciphertext_mod, TINY.ring_dim
        for _ in range(20):
            a = [rnd.randrange(-3 * q, 3 * q) for _ in range(n)]
            b = _ternary(rnd, n, q)
            assert bfv.negacyclic_mul(a, b, q) == \
                   bfv.negacyclic_mul([x % q for x in a], b, q)


# ---------------------------------------------------------------------------
# sampling

CHI2_ALPHA = 1e-6
DRAWS = 100_000


def _chi2_sf(x: float, df: int) -> float:
    """P(chi-square with df degrees of freedom > x): the regularized upper
    incomplete gamma Q(df/2, x/2), by Q(a+1, y) = Q(a, y) + y^a e^-y / a!."""
    y = x / 2
    if df % 2:
        a, total = 0.5, math.erfc(math.sqrt(y))
    else:
        a, total = 1.0, math.exp(-y)
    while a < df / 2:
        total += math.exp(a * math.log(y) - y - math.lgamma(a + 1)) if y else 0.0
        a += 1
    return total


def _chi2_p_value(observed: list[int], probabilities: list[float]) -> float:
    total = sum(observed)
    stat = sum((o - total * p) ** 2 / (total * p)
               for o, p in zip(observed, probabilities))
    return _chi2_sf(stat, len(observed) - 1)


def _crypto_draws(sampler, q):
    out = sampler(RandomSource.crypto())
    assert len(out) == DRAWS
    return [x - q if x > q // 2 else x for x in out]


class _FirstBlockAllOnes(RandomSource):
    """A crypto-mode source whose first byte block is all 0xff."""

    def __init__(self, forbid_bytes=False):
        super().__init__(random.SystemRandom(), None)
        self.blocks = 0
        self.forbid_bytes = forbid_bytes

    def randbytes(self, k):
        assert not self.forbid_bytes, "this sampler must not draw bytes"
        self.blocks += 1
        return b"\xff" * k if self.blocks == 1 else super().randbytes(k)


class TestCryptoSampling:
    """The byte-block samplers of crypto mode, against the exact
    distribution; seeded streams are pinned by the golden tests."""

    @pytest.mark.parametrize("sigma", [3.2, 1.0])
    def test_gauss_matches_rounded_truncated_normal(self, sigma):
        q = DESK.ciphertext_mod
        draws = _crypto_draws(lambda rng: bfv._sample_gauss(DRAWS, sigma, q, rng), q)
        tail = int(6 * sigma)
        assert max(map(abs, draws)) <= tail
        normal = statistics.NormalDist(0, sigma)
        mass = [normal.cdf(v + 0.5) - normal.cdf(v - 0.5)
                for v in range(-tail, tail + 1)]
        expected = [m / sum(mass) for m in mass]
        counts = [draws.count(v) for v in range(-tail, tail + 1)]
        # fold each tail inward until its bin expects at least 5 draws
        for end in (0, -1):
            while expected[end] * DRAWS < 5:
                low_mass, low_count = expected.pop(end), counts.pop(end)
                expected[end] += low_mass
                counts[end] += low_count
        assert _chi2_p_value(counts, expected) > CHI2_ALPHA

    def test_ternary_is_uniform(self):
        q = DESK.ciphertext_mod
        draws = _crypto_draws(lambda rng: bfv._sample_ternary(DRAWS, q, rng), q)
        counts = [draws.count(v) for v in (-1, 0, 1)]
        assert sum(counts) == DRAWS
        assert _chi2_p_value(counts, [1 / 3] * 3) > CHI2_ALPHA

    @pytest.mark.parametrize("q", [DESK.ciphertext_mod, SMALL.ciphertext_mod],
                             ids=["80-bit", "52-bit"])
    def test_uniform_is_uniform_below_q(self, q):
        draws = bfv._sample_uniform(DRAWS, q, RandomSource.crypto())
        assert len(draws) == DRAWS and all(0 <= x < q for x in draws)
        counts = [0] * 16
        for x in draws:
            counts[x * 16 // q] += 1
        # bucket b holds the x with 16x // q == b
        starts = [-(-b * q // 16) for b in range(17)]
        expected = [(hi - lo) / q for lo, hi in zip(starts, starts[1:])]
        assert _chi2_p_value(counts, expected) > CHI2_ALPHA

    @pytest.mark.parametrize("n", [16, 4096])
    def test_rejected_first_block_is_refilled(self, n):
        q = DESK.ciphertext_mod
        rng = _FirstBlockAllOnes()
        uniform = bfv._sample_uniform(n, q, rng)
        assert rng.blocks >= 2 and len(uniform) == n
        assert all(0 <= x < q for x in uniform)
        rng = _FirstBlockAllOnes()
        ternary = bfv._sample_ternary(n, q, rng)
        assert rng.blocks >= 2 and len(ternary) == n
        assert set(ternary) <= {q - 1, 0, 1}
        # a Gaussian word is never rejected: all ones is the top value
        rng = _FirstBlockAllOnes()
        assert bfv._sample_gauss(n, 3.2, q, rng) == [19] * n
        assert rng.blocks == 1

    def test_wide_gauss_keeps_the_normal_variate_loop(self):
        # floor(6 sigma) = 120 exceeds the table's reach of 64
        q = DESK.ciphertext_mod
        rng = _FirstBlockAllOnes(forbid_bytes=True)
        draws = bfv._sample_gauss(4096, 20.0, q, rng)
        assert len(draws) == 4096
        assert max(min(x, q - x) for x in draws) <= 120


# ---------------------------------------------------------------------------
# encoding


class TestEncode:
    def test_single_value(self):
        pt = bfv.encode([5], TINY)
        assert pt[0] == 5
        assert all(c == 0 for c in pt[1:])

    def test_empty_is_zero_polynomial(self):
        assert bfv.encode([], TINY) == (0,) * TINY.ring_dim

    def test_round_trip_random_vectors(self):
        rnd = random.Random("enc")
        t, n = SMALL.plaintext_mod, SMALL.ring_dim
        for _ in range(50):
            values = [rnd.randrange(t) for _ in range(n)]
            assert list(bfv.encode(values, SMALL)) == values

    def test_encode_of_decode_is_identity(self):
        rnd = random.Random("dec")
        t, n = TINY.plaintext_mod, TINY.ring_dim
        poly = tuple(rnd.randrange(t) for _ in range(n))
        assert bfv.encode(poly, TINY) == poly

    def test_too_many_values(self):
        with pytest.raises(TooManyValues):
            bfv.encode([0] * (TINY.ring_dim + 1), TINY)


# ---------------------------------------------------------------------------
# keygen / encrypt / decrypt


class TestKeygen:
    def test_secret_is_ternary(self, bfv_small_keys):
        q = SMALL.ciphertext_mod
        assert set(bfv._centred(bfv_small_keys.secret, q)) <= {-1, 0, 1}

    def test_public_key_relation_is_small(self, bfv_small_keys):
        # pk0 + pk1*s should reduce to the sampled noise, within 6 sigma
        q = SMALL.ciphertext_mod
        pub = bfv_small_keys.public
        prod = bfv.negacyclic_mul(pub.pk1, bfv_small_keys.secret, q)
        residual = [(a + b) % q for a, b in zip(pub.pk0, prod)]
        bound = int(6 * SMALL.err_stddev)
        assert max(abs(c) for c in bfv._centred(residual, q)) <= bound

    def test_seeded_keygen_reproducible(self):
        assert bfv.keygen(SMALL, RNG(4)) == bfv.keygen(SMALL, RNG(4))

    def test_public_handle(self, bfv_small_keys):
        pub = bfv_small_keys.public
        assert pub.params == SMALL
        assert bfv_small_keys.params is pub.params


def test_round_trip_random_vectors(bfv_small_keys):
    rnd = random.Random("rt")
    rng = RNG(5)
    t, n = SMALL.plaintext_mod, SMALL.ring_dim
    for _ in range(50):
        values = [rnd.randrange(t) for _ in range(n)]
        pt = bfv.encode(values, SMALL)
        ct = bfv.encrypt(bfv_small_keys, pt, SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, ct, SMALL) == pt


class TestKeyHolderEncryption:
    """`encrypt` under a key pair: (-a*s + e + delta*m, a)."""

    @pytest.mark.parametrize("params,fixture", [(SMALL, "bfv_small_keys"),
                                                (DESK, "desk_keys")],
                             ids=["small", "desk"])
    def test_round_trip(self, params, fixture, request):
        keys = request.getfixturevalue(fixture)
        rnd = random.Random("key-holder")
        rng = RNG(22)
        t, n = params.plaintext_mod, params.ring_dim
        for _ in range(3):
            pt = bfv.encode([rnd.randrange(t) for _ in range(n)], params)
            ct = bfv.encrypt(keys, pt, params, rng)
            assert bfv.decrypt(keys, ct, params) == pt
            assert support.measure_noise(keys, ct, pt, params) <= \
                   bfv.fresh_noise_bound(params)

    def test_store_record_minus_query_within_budget(self, desk_keys):
        # a store record is a public-key encryption, a lookup query the key
        # holder's; their difference decrypts within the one-op budget
        rng = RNG(23)
        t, n = DESK.plaintext_mod, DESK.ring_dim
        budget = bfv.additive_noise_budget(DESK, 1)
        for _ in range(3):
            record = [rng.randrange(t) for _ in range(n)]
            query = [rng.randrange(t) for _ in range(n)]
            diff = bfv.eval_sub(
                bfv.encrypt(desk_keys, bfv.encode(query, DESK), DESK, rng),
                bfv.encrypt(desk_keys.public, bfv.encode(record, DESK), DESK, rng))
            expected = bfv.encode([(a - b) % t for a, b in zip(query, record)], DESK)
            assert support.measure_noise(desk_keys, diff, expected, DESK) <= budget
            assert bfv.decrypt(desk_keys, diff, DESK) == expected

    def test_public_key_ciphertext_is_pinned(self, desk_keys):
        # stores are public-key encryptions: a seeded one must not change
        # from release to release
        pt = bfv.encode([0x0A000000, 0xC0A80100, 0xFFFFFFFF], DESK)
        ct = bfv.encrypt(desk_keys.public, pt, DESK, RNG(33))
        blob = b"".join(c.to_bytes(10, "big") for c in ct.c0 + ct.c1)
        assert hashlib.sha256(blob).hexdigest() == \
               "54b8064712ee3c10eb5c5825970d7ad66fa284262d04933d8be94c337a236b9c"


def test_public_key_handle_can_encrypt(bfv_small_keys):
    rng = RNG(6)
    pt = bfv.encode([1234], SMALL)
    ct = bfv.encrypt(bfv_small_keys.public, pt, SMALL, rng)
    assert bfv.decrypt(bfv_small_keys, ct, SMALL) == pt


def test_fresh_ciphertexts_differ(bfv_small_keys):
    rng = RNG(7)
    pt = bfv.encode([9], SMALL)
    a = bfv.encrypt(bfv_small_keys, pt, SMALL, rng)
    b = bfv.encrypt(bfv_small_keys, pt, SMALL, rng)
    assert a != b


def test_all_zero_round_trip(bfv_small_keys):
    pt = (0,) * SMALL.ring_dim
    ct = bfv.encrypt(bfv_small_keys, pt, SMALL, RNG(8))
    assert bfv.decrypt(bfv_small_keys, ct, SMALL) == pt


def test_schoolbook_profile_round_trip():
    # a ciphertext modulus with (q - 1) % 2n != 0 works like any other
    keys = bfv.keygen(TINY_NO_NTT, RNG(9))
    rnd = random.Random("sb")
    rng = RNG(10)
    t, n = TINY_NO_NTT.plaintext_mod, TINY_NO_NTT.ring_dim
    for _ in range(20):
        values = [rnd.randrange(t) for _ in range(n)]
        pt = bfv.encode(values, TINY_NO_NTT)
        ct = bfv.encrypt(keys, pt, TINY_NO_NTT, rng)
        assert bfv.decrypt(keys, ct, TINY_NO_NTT) == pt


# ---------------------------------------------------------------------------
# homomorphic operations


class TestEval:
    def test_sub_of_self_is_zero(self, bfv_small_keys):
        rng = RNG(11)
        ct = bfv.encrypt(bfv_small_keys, bfv.encode([77], SMALL), SMALL, rng)
        out = bfv.decrypt(bfv_small_keys, bfv.eval_sub(ct, ct), SMALL)
        assert not any(out)

    def test_sub_known_values(self, bfv_small_keys):
        rng = RNG(12)
        c7 = bfv.encrypt(bfv_small_keys, bfv.encode([7], SMALL), SMALL, rng)
        c3 = bfv.encrypt(bfv_small_keys, bfv.encode([3], SMALL), SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, bfv.eval_sub(c7, c3), SMALL)[0] == 4
        wrapped = bfv.decrypt(bfv_small_keys, bfv.eval_sub(c3, c7), SMALL)
        assert wrapped[0] == SMALL.plaintext_mod - 4

    def test_add_known_values(self, bfv_small_keys):
        rng = RNG(13)
        c2 = bfv.encrypt(bfv_small_keys, bfv.encode([2], SMALL), SMALL, rng)
        c3 = bfv.encrypt(bfv_small_keys, bfv.encode([3], SMALL), SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, support.eval_add(c2, c3), SMALL)[0] == 5

    def test_add_identity_and_commutativity(self, bfv_small_keys):
        rng = RNG(14)
        m = bfv.encode([41, 5], SMALL)
        ct = bfv.encrypt(bfv_small_keys, m, SMALL, rng)
        zero = bfv.encrypt(bfv_small_keys, (0,) * SMALL.ring_dim, SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, support.eval_add(ct, zero), SMALL) == m
        other = bfv.encrypt(bfv_small_keys, bfv.encode([1, 2, 3], SMALL), SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, support.eval_add(ct, other), SMALL) == \
               bfv.decrypt(bfv_small_keys, support.eval_add(other, ct), SMALL)

    def test_sub_acts_on_every_coefficient(self, bfv_small_keys):
        rnd = random.Random("coef")
        rng = RNG(15)
        t, n = SMALL.plaintext_mod, SMALL.ring_dim
        for _ in range(20):
            v1 = [rnd.randrange(t) for _ in range(n)]
            v2 = [rnd.randrange(t) for _ in range(n)]
            ct1 = bfv.encrypt(bfv_small_keys, bfv.encode(v1, SMALL), SMALL, rng)
            ct2 = bfv.encrypt(bfv_small_keys, bfv.encode(v2, SMALL), SMALL, rng)
            out = bfv.decrypt(bfv_small_keys, bfv.eval_sub(ct1, ct2), SMALL)
            assert list(out) == [(a - b) % t for a, b in zip(v1, v2)]

    def test_param_mismatch_rejected(self, bfv_small_keys):
        rng = RNG(16)
        tiny_keys = bfv.keygen(TINY, rng)
        ct_small = bfv.encrypt(bfv_small_keys, (0,) * 64, SMALL, rng)
        ct_tiny = bfv.encrypt(tiny_keys, (0,) * 16, TINY, rng)
        with pytest.raises(ParamMismatch):
            bfv.eval_sub(ct_small, ct_tiny)


# ---------------------------------------------------------------------------
# noise behaviour


class TestNoise:
    def test_fresh_noise_within_bound(self, bfv_small_keys):
        rng = RNG(18)
        bound = bfv.fresh_noise_bound(SMALL)
        for _ in range(20):
            pt = bfv.encode([rng.randrange(SMALL.plaintext_mod)], SMALL)
            ct = bfv.encrypt(bfv_small_keys, pt, SMALL, rng)
            assert support.measure_noise(bfv_small_keys, ct, pt, SMALL) <= bound

    def test_noise_grows_at_most_linearly(self, bfv_small_keys):
        rnd = random.Random("noise")
        rng = RNG(19)
        t = SMALL.plaintext_mod
        total = 0
        pt = bfv.encode([rnd.randrange(t)], SMALL)
        acc = bfv.encrypt(bfv_small_keys, pt, SMALL, rng)
        for k in range(1, 101):
            value = rnd.randrange(t)
            fresh_pt = bfv.encode([value], SMALL)
            acc = support.eval_add(
                acc, bfv.encrypt(bfv_small_keys, fresh_pt, SMALL, rng))
            total = (total + value) % t  # plaintext oracle for the running sum
            expected_first = (pt[0] + total - value) % t
        # after 100 additions the noise must respect the additive budget
        expected = bfv.encode([(pt[0] + total) % t], SMALL)
        noise = support.measure_noise(bfv_small_keys, acc, expected, SMALL)
        assert noise <= bfv.additive_noise_budget(SMALL, 100)
        assert bfv.decrypt(bfv_small_keys, acc, SMALL) == expected

    def test_chained_additions_stay_exact(self, desk_keys):
        # 1000 chained additions at the default profile, against a plaintext
        # accumulator oracle; the worst-case additive budget must fit first
        rnd = random.Random("chain")
        rng = RNG(20)
        t = DESK.plaintext_mod
        start, step = rnd.randrange(t), rnd.randrange(t)
        acc = bfv.encrypt(desk_keys, bfv.encode([start], DESK), DESK, rng)
        step_ct = bfv.encrypt(desk_keys, bfv.encode([step], DESK), DESK, rng)
        total = start
        for _ in range(1000):
            acc = support.eval_add(acc, step_ct)
            total = (total + step) % t
        assert bfv.additive_noise_budget(DESK, 1000) < DESK.noise_threshold
        expected = bfv.encode([total], DESK)
        assert support.measure_noise(desk_keys, acc, expected, DESK) <= \
               bfv.additive_noise_budget(DESK, 1000)
        assert bfv.decrypt(desk_keys, acc, DESK)[0] == total

    def test_desk_profile_budget_supports_1000_adds(self):
        assert bfv.additive_noise_budget(DESK, 1000) < DESK.noise_threshold
        assert bfv.additive_noise_budget(WIDE, 1000) < WIDE.noise_threshold


def test_desk_profile_round_trip_and_sub(desk_keys):
    rnd = random.Random("desk")
    rng = RNG(21)
    t, n = DESK.plaintext_mod, DESK.ring_dim
    values1 = [rnd.randrange(t) for _ in range(n)]
    values2 = [rnd.randrange(t) for _ in range(n)]
    ct1 = bfv.encrypt(desk_keys, bfv.encode(values1, DESK), DESK, rng)
    ct2 = bfv.encrypt(desk_keys, bfv.encode(values2, DESK), DESK, rng)
    out = bfv.decrypt(desk_keys, bfv.eval_sub(ct1, ct2), DESK)
    assert list(out) == [(a - b) % t for a, b in zip(values1, values2)]

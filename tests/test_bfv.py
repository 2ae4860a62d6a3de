import random

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
        assert bfv.validate_params(DESK)
        assert bfv.validate_params(WIDE)
        assert bfv.validate_params(SMALL)
        assert bfv.validate_params(support.SCALE_PARAMS)
        assert bfv.validate_params(TINY)
        assert bfv.validate_params(TINY_NO_NTT)

    def test_wide_profile_reference_modulus(self):
        # divisibility checked by direct multiprecision remainder
        t = 35_184_372_744_193
        assert is_probable_prime(t)
        assert (t - 1) % (2 * 16384) == 0
        assert bfv.validate_params(
            bfv.BfvParams(16384, t, WIDE.ciphertext_mod, 3.2))

    def test_small_plaintext_modulus_65537(self):
        assert (65_537 - 1) % (2 * 4096) == 0
        assert bfv.validate_params(
            bfv.BfvParams(4096, 65_537, DESK.ciphertext_mod, 3.2))

    def test_rejects_composite_plaintext_modulus(self):
        params = bfv.BfvParams(4096, 65_536, DESK.ciphertext_mod, 3.2)
        assert not bfv.validate_params(params)
        assert any("prime" in v for v in bfv.param_violations(params))

    def test_rejects_bad_congruence(self):
        # 13 is prime but 12 is not a multiple of 8192
        params = bfv.BfvParams(4096, 13, DESK.ciphertext_mod, 3.2)
        violations = bfv.param_violations(params)
        assert any("congruent" in v for v in violations)

    def test_rejects_non_power_of_two_ring(self):
        params = bfv.BfvParams(3000, DESK.plaintext_mod, DESK.ciphertext_mod, 3.2)
        assert not bfv.validate_params(params)

    def test_rejects_small_modulus_ratio(self):
        params = bfv.BfvParams(16, 65_537, 65_537 * 3 + 1, 3.2)
        assert any("exceed" in v for v in bfv.param_violations(params))

    def test_rejects_nonpositive_sigma(self):
        params = bfv.BfvParams(TINY.ring_dim, TINY.plaintext_mod,
                               TINY.ciphertext_mod, 0.0)
        assert not bfv.validate_params(params)

    def test_fuzzed_bad_plaintext_moduli_rejected(self):
        rnd = random.Random("fuzz")
        n = 4096
        rejected = 0
        for _ in range(300):
            t = rnd.randrange(3, 1 << 48) | 1
            if (t - 1) % (2 * n) == 0 and is_probable_prime(t):
                continue  # accidentally valid; skip
            params = bfv.BfvParams(n, t, DESK.ciphertext_mod, 3.2)
            assert not bfv.validate_params(params)
            rejected += 1
        assert rejected > 250

    def test_keygen_rejects_invalid_params(self):
        with pytest.raises(InvalidParams):
            bfv.keygen(bfv.BfvParams(4096, 65_536, DESK.ciphertext_mod, 3.2), RNG(1))


# ---------------------------------------------------------------------------
# polynomial arithmetic


class TestNegacyclicMul:
    def test_ntt_matches_schoolbook(self):
        rnd = random.Random("ntt")
        q = SMALL.ciphertext_mod
        n = SMALL.ring_dim
        for _ in range(20):
            a = [rnd.randrange(q) for _ in range(n)]
            b = [rnd.randrange(q) for _ in range(n)]
            assert bfv.negacyclic_mul(a, b, q) == \
                   bfv.schoolbook_negacyclic_mul(a, b, q)

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

    def test_fallback_used_when_modulus_not_ntt_friendly(self):
        assert bfv._ntt_context(TINY_NO_NTT.ciphertext_mod,
                                TINY_NO_NTT.ring_dim) is None
        assert bfv._ntt_context(TINY.ciphertext_mod, TINY.ring_dim) is not None


# ---------------------------------------------------------------------------
# encode / decode


class TestEncode:
    def test_single_value(self):
        pt = bfv.encode([5], TINY)
        assert pt.coeffs[0] == 5
        assert all(c == 0 for c in pt.coeffs[1:])

    def test_empty_is_zero_polynomial(self):
        assert bfv.encode([], TINY) == bfv.ring_zero(TINY.ring_dim)

    def test_round_trip_random_vectors(self):
        rnd = random.Random("enc")
        t, n = SMALL.plaintext_mod, SMALL.ring_dim
        for _ in range(50):
            values = [rnd.randrange(t) for _ in range(n)]
            assert bfv.decode(bfv.encode(values, SMALL)) == values

    def test_encode_of_decode_is_identity(self):
        rnd = random.Random("dec")
        t, n = TINY.plaintext_mod, TINY.ring_dim
        poly = bfv.RingPoly(tuple(rnd.randrange(t) for _ in range(n)))
        assert bfv.encode(bfv.decode(poly), TINY) == poly

    def test_too_many_values(self):
        with pytest.raises(TooManyValues):
            bfv.encode([0] * (TINY.ring_dim + 1), TINY)


# ---------------------------------------------------------------------------
# keygen / encrypt / decrypt


class TestKeygen:
    def test_secret_is_ternary(self, bfv_small_keys):
        q = SMALL.ciphertext_mod
        assert set(bfv_small_keys.secret.centered(q)) <= {-1, 0, 1}

    def test_public_key_relation_is_small(self, bfv_small_keys):
        # pk0 + pk1*s should reduce to the sampled noise, within 6 sigma
        q = SMALL.ciphertext_mod
        prod = bfv.negacyclic_mul(list(bfv_small_keys.pk1.coeffs),
                                  list(bfv_small_keys.secret.coeffs), q)
        residual = bfv.RingPoly(tuple(
            (a + b) % q for a, b in zip(bfv_small_keys.pk0.coeffs, prod)))
        bound = int(6 * SMALL.err_stddev)
        assert max(abs(c) for c in residual.centered(q)) <= bound

    def test_seeded_keygen_reproducible(self):
        assert bfv.keygen(SMALL, RNG(4)) == bfv.keygen(SMALL, RNG(4))

    def test_public_handle(self, bfv_small_keys):
        pub = bfv_small_keys.public
        assert pub.params == SMALL
        assert pub.pk0 == bfv_small_keys.pk0


@pytest.mark.parametrize("use_public_key", [True, False])
def test_round_trip_random_vectors(bfv_small_keys, use_public_key):
    rnd = random.Random(f"rt{use_public_key}")
    rng = RNG(5)
    t, n = SMALL.plaintext_mod, SMALL.ring_dim
    for _ in range(50):
        values = [rnd.randrange(t) for _ in range(n)]
        pt = bfv.encode(values, SMALL)
        ct = bfv.encrypt(bfv_small_keys, pt, SMALL, rng,
                         use_public_key=use_public_key)
        assert bfv.decrypt(bfv_small_keys, ct, SMALL) == pt


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
    pt = bfv.ring_zero(SMALL.ring_dim)
    ct = bfv.encrypt(bfv_small_keys, pt, SMALL, RNG(8))
    assert bfv.decrypt(bfv_small_keys, ct, SMALL) == pt


def test_schoolbook_profile_round_trip():
    # no NTT-friendly modulus: every product runs through the fallback
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
        assert not any(out.coeffs)

    def test_sub_known_values(self, bfv_small_keys):
        rng = RNG(12)
        c7 = bfv.encrypt(bfv_small_keys, bfv.encode([7], SMALL), SMALL, rng)
        c3 = bfv.encrypt(bfv_small_keys, bfv.encode([3], SMALL), SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, bfv.eval_sub(c7, c3), SMALL).coeffs[0] == 4
        wrapped = bfv.decrypt(bfv_small_keys, bfv.eval_sub(c3, c7), SMALL)
        assert wrapped.coeffs[0] == SMALL.plaintext_mod - 4

    def test_add_known_values(self, bfv_small_keys):
        rng = RNG(13)
        c2 = bfv.encrypt(bfv_small_keys, bfv.encode([2], SMALL), SMALL, rng)
        c3 = bfv.encrypt(bfv_small_keys, bfv.encode([3], SMALL), SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, bfv.eval_add(c2, c3), SMALL).coeffs[0] == 5

    def test_add_identity_and_commutativity(self, bfv_small_keys):
        rng = RNG(14)
        m = bfv.encode([41, 5], SMALL)
        ct = bfv.encrypt(bfv_small_keys, m, SMALL, rng)
        zero = bfv.encrypt(bfv_small_keys, bfv.ring_zero(SMALL.ring_dim), SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, bfv.eval_add(ct, zero), SMALL) == m
        other = bfv.encrypt(bfv_small_keys, bfv.encode([1, 2, 3], SMALL), SMALL, rng)
        assert bfv.decrypt(bfv_small_keys, bfv.eval_add(ct, other), SMALL) == \
               bfv.decrypt(bfv_small_keys, bfv.eval_add(other, ct), SMALL)

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
            assert list(out.coeffs) == [(a - b) % t for a, b in zip(v1, v2)]

    def test_param_mismatch_rejected(self, bfv_small_keys):
        rng = RNG(16)
        tiny_keys = bfv.keygen(TINY, rng)
        ct_small = bfv.encrypt(bfv_small_keys, bfv.ring_zero(64), SMALL, rng)
        ct_tiny = bfv.encrypt(tiny_keys, bfv.ring_zero(16), TINY, rng)
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
            assert bfv.measure_noise(bfv_small_keys, ct, pt, SMALL) <= bound

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
            acc = bfv.eval_add(acc, bfv.encrypt(bfv_small_keys, fresh_pt, SMALL, rng))
            total = (total + value) % t  # plaintext oracle for the running sum
            expected_first = (pt.coeffs[0] + total - value) % t
        # after 100 additions the noise must respect the additive budget
        expected = bfv.encode([(pt.coeffs[0] + total) % t], SMALL)
        noise = bfv.measure_noise(bfv_small_keys, acc, expected, SMALL)
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
            acc = bfv.eval_add(acc, step_ct)
            total = (total + step) % t
        assert bfv.additive_noise_budget(DESK, 1000) < DESK.noise_threshold
        expected = bfv.encode([total], DESK)
        assert bfv.measure_noise(desk_keys, acc, expected, DESK) <= \
               bfv.additive_noise_budget(DESK, 1000)
        assert bfv.decrypt(desk_keys, acc, DESK).coeffs[0] == total

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
    assert list(out.coeffs) == [(a - b) % t for a, b in zip(values1, values2)]

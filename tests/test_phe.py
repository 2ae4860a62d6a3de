import hashlib
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helb import phe
from helb.errors import (
    CapabilityUnsupported,
    DecryptionFailure,
    InvalidOptions,
    MessageOutOfRange,
    NotInvertible,
    WidthMismatch,
)
from helb.numtheory import (
    RandomSource,
    first_primes,
    is_probable_prime,
    jacobi,
    mod_inv,
)
from helb.phe import SchemeId, benaloh, paillier

RNG = RandomSource.seeded


def random_message(rnd, keys) -> int:
    """Uniform in the scheme's encryption space (capped for wide spaces).

    The encryption space can be narrower than the wrap modulus: 2^k bits
    below the private prime for Okamoto-Uchiyama, 32 bits for the
    Goldwasser-Micali default width.
    """
    scheme = phe.scheme_of(keys)
    if scheme is SchemeId.GOLDWASSER_MICALI:
        return rnd.getrandbits(32)
    if scheme in (SchemeId.OKAMOTO_UCHIYAMA, SchemeId.NACCACHE_STERN):
        return rnd.randrange(keys.public.message_space)
    return rnd.randrange(min(phe.message_modulus(keys), 1 << 128))


def _mu_by_power(n, lam):
    """mod_inv(L(g^lam mod n^2), n) for g = n + 1, by the full power."""
    return mod_inv((pow(n + 1, lam, n * n) - 1) // n, n)


ADDITIVE_FIXTURES = ["paillier_keys", "dj_keys", "ou_keys", "benaloh_keys"]
ALL_FIXTURES = ADDITIVE_FIXTURES + ["ns_keys", "gm_keys"]


# ---------------------------------------------------------------------------
# keygen contracts


class TestKeygen:
    def test_paillier_forced_toy_primes(self):
        keys = phe.keygen(SchemeId.PAILLIER, 32, RNG(1), test_mode=True, p=5, q=7)
        assert keys.public.n == 35
        assert keys.public.g == 36
        assert keys.lam == 12
        assert keys.lam == math.lcm(5 - 1, 7 - 1)
        assert keys.mu * 12 % 35 == 1

    def test_paillier_mu_is_the_inverse_of_l_of_g_to_the_lambda(self, paillier_keys):
        assert paillier_keys.mu == _mu_by_power(paillier_keys.public.n,
                                                paillier_keys.lam)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(first_primes(300)[1:]),
           st.sampled_from(first_primes(300)[1:]))
    def test_paillier_mu_by_power_for_small_primes(self, p, q):
        assume(p != q)
        n = p * q
        try:
            expected = _mu_by_power(n, math.lcm(p - 1, q - 1))
        except NotInvertible:
            with pytest.raises(NotInvertible):
                paillier.keygen(n.bit_length(), RNG(1), p=p, q=q)
            return
        assert paillier.keygen(n.bit_length(), RNG(1), p=p, q=q).mu == expected

    def test_gm_pseudosquare(self, gm_keys):
        assert jacobi(gm_keys.public.a % gm_keys.p, gm_keys.p) == -1
        assert jacobi(gm_keys.public.a % gm_keys.q, gm_keys.q) == -1

    def test_benaloh_invariants(self, benaloh_keys):
        pub = benaloh_keys.public
        assert (benaloh_keys.p - 1) % pub.r == 0
        assert math.gcd(pub.r, (benaloh_keys.p - 1) // pub.r) == 1
        assert math.gcd(pub.r, benaloh_keys.q - 1) == 1
        assert benaloh_keys.x != 1
        assert benaloh_keys.x == pow(pub.y, benaloh_keys.phi // pub.r, pub.n)

    def test_benaloh_default_block_is_prime_above_2_33(self):
        assert benaloh.DEFAULT_BLOCK_SIZE > 2**33
        assert is_probable_prime(benaloh.DEFAULT_BLOCK_SIZE)

    def test_benaloh_rejects_composite_block(self):
        with pytest.raises(InvalidOptions):
            phe.keygen(SchemeId.BENALOH, 128, RNG(1), test_mode=True, r=256)

    def test_ou_structure(self, ou_keys):
        pub = ou_keys.public
        assert pub.n == ou_keys.p**2 * ou_keys.q
        assert pow(pub.g, ou_keys.p - 1, ou_keys.p**2) != 1
        assert pub.h == pow(pub.g, pub.n, pub.n)
        assert ou_keys.p.bit_length() >= 40
        assert 2**pub.msg_bits < ou_keys.p

    def test_ns_structure(self, ns_keys):
        from helb.numtheory import first_primes

        pub = ns_keys.public
        primes = first_primes(pub.n_bits)
        assert math.prod(primes) < pub.p
        assert math.gcd(ns_keys.s, pub.p - 1) == 1
        for vi, pi in zip(pub.v, primes):
            assert pow(vi, ns_keys.s, pub.p) == pi

    def test_dj_reduces_to_paillier_at_s1(self, dj_keys, paillier_keys):
        assert dj_keys.public.s == 1
        assert dj_keys.public.message_space == dj_keys.public.n
        # seeded alike, the two keygens give one key in two formats, and
        # encrypt a message to the same integer under either of them
        for seed in range(1, 5):
            pk = phe.keygen(SchemeId.PAILLIER, 256, RNG(seed), test_mode=True)
            dj = phe.keygen(SchemeId.DAMGARD_JURIK, 256, RNG(seed), test_mode=True,
                            s=1)
            assert (pk.public.n, pk.public.g, pk.lam) == \
                (dj.public.n, dj.public.g, dj.lam)
            assert pk.lam * pk.mu == dj.d
            ciphertexts = {int(phe.encrypt(keys, 2**32 + seed, RNG(100 + seed)))
                           for keys in (pk, pk.public, dj, dj.public)}
            assert len(ciphertexts) == 1

    def test_crypto_mode_floor(self):
        with pytest.raises(InvalidOptions):
            phe.keygen(SchemeId.PAILLIER, 256, RandomSource.crypto())

    def test_seeded_rng_needs_test_mode(self):
        with pytest.raises(InvalidOptions):
            phe.keygen(SchemeId.PAILLIER, 512, RNG(1))

    def test_test_mode_floor(self):
        with pytest.raises(InvalidOptions):
            phe.keygen(SchemeId.PAILLIER, 8, RNG(1), test_mode=True)

    def test_seeded_keygen_reproducible(self):
        a = phe.keygen(SchemeId.PAILLIER, 128, RNG(9), test_mode=True)
        b = phe.keygen(SchemeId.PAILLIER, 128, RNG(9), test_mode=True)
        assert a == b


# ---------------------------------------------------------------------------
# round trips and homomorphic identities


@pytest.mark.parametrize("fixture", ALL_FIXTURES)
def test_round_trip_random_messages(fixture, request):
    keys = request.getfixturevalue(fixture)
    rnd = random.Random(fixture)
    rng = RNG(17)
    for _ in range(150):
        m = random_message(rnd, keys)
        assert phe.decrypt(keys, phe.encrypt(keys, m, rng)) == m


@pytest.mark.parametrize("fixture", ALL_FIXTURES)
def test_encrypt_zero_decrypts_to_zero(fixture, request):
    keys = request.getfixturevalue(fixture)
    assert phe.decrypt(keys, phe.encrypt(keys, 0, RNG(3))) == 0


@pytest.mark.parametrize("fixture", ADDITIVE_FIXTURES)
def test_additive_homomorphism(fixture, request):
    keys = request.getfixturevalue(fixture)
    rnd = random.Random(fixture + "add")
    rng = RNG(23)
    modulus = phe.message_modulus(keys)
    for _ in range(60):
        m1, m2 = random_message(rnd, keys), random_message(rnd, keys)
        total = phe.add_encrypted(
            keys, phe.encrypt(keys, m1, rng), phe.encrypt(keys, m2, rng))
        assert phe.decrypt(keys, total) == (m1 + m2) % modulus


@pytest.mark.parametrize("fixture", ADDITIVE_FIXTURES)
def test_subtraction_and_wraparound(fixture, request):
    keys = request.getfixturevalue(fixture)
    rnd = random.Random(fixture + "sub")
    rng = RNG(29)
    modulus = phe.message_modulus(keys)
    for _ in range(60):
        m1, m2 = random_message(rnd, keys), random_message(rnd, keys)
        diff = phe.sub_encrypted(
            keys, phe.encrypt(keys, m1, rng), phe.encrypt(keys, m2, rng))
        assert phe.decrypt(keys, diff) == (m1 - m2) % modulus


@pytest.mark.parametrize("fixture", ADDITIVE_FIXTURES)
def test_scalar_multiplication(fixture, request):
    keys = request.getfixturevalue(fixture)
    rnd = random.Random(fixture + "mul")
    rng = RNG(31)
    modulus = phe.message_modulus(keys)
    for _ in range(40):
        m = random_message(rnd, keys)
        k = rnd.randrange(0, 1 << 16)
        ct = phe.scalar_mul(keys, phe.encrypt(keys, m, rng), k)
        assert phe.decrypt(keys, ct) == m * k % modulus


def test_paillier_toy_arithmetic_examples():
    keys = phe.keygen(SchemeId.PAILLIER, 32, RNG(1), test_mode=True, p=5, q=7)
    rng = RNG(2)

    def enc(m):
        return phe.encrypt(keys, m, rng)

    assert phe.decrypt(keys, phe.add_encrypted(keys, enc(2), enc(3))) == 5
    assert phe.decrypt(keys, phe.sub_encrypted(keys, enc(7), enc(3))) == 4
    assert phe.decrypt(keys, phe.sub_encrypted(keys, enc(3), enc(7))) == 35 - 4
    assert phe.decrypt(keys, phe.scalar_mul(keys, enc(4), 3)) == 12
    assert phe.decrypt(keys, phe.scalar_mul(keys, enc(4), 1)) == 4
    assert phe.decrypt(keys, phe.scalar_mul(keys, enc(4), 0)) == 0
    assert phe.decrypt(keys, phe.add_encrypted(keys, enc(9), enc(0))) == 9


# Naccache-Stern addition is valid only while bit exponents do not collide;
# subtraction of equal messages is always sound.
class TestNaccacheSternCapacity:
    def test_disjoint_bit_addition(self, ns_keys):
        rnd = random.Random("nsadd")
        rng = RNG(37)
        width = ns_keys.public.n_bits
        for _ in range(60):
            m1 = rnd.getrandbits(width)
            m2 = rnd.getrandbits(width) & ~m1
            total = phe.add_encrypted(
                ns_keys, phe.encrypt(ns_keys, m1, rng), phe.encrypt(ns_keys, m2, rng))
            assert phe.decrypt(ns_keys, total) == m1 + m2

    def test_bitwise_dominated_subtraction(self, ns_keys):
        rnd = random.Random("nssub")
        rng = RNG(41)
        width = ns_keys.public.n_bits
        for _ in range(60):
            m1 = rnd.getrandbits(width)
            m2 = m1 & rnd.getrandbits(width)  # clears only set bits
            diff = phe.sub_encrypted(
                ns_keys, phe.encrypt(ns_keys, m1, rng), phe.encrypt(ns_keys, m2, rng))
            assert phe.decrypt(ns_keys, diff) == m1 - m2

    def test_toy_exhaustive_message_space(self):
        keys = phe.keygen(SchemeId.NACCACHE_STERN, 16, RNG(5), test_mode=True,
                          n_bits=4, p=211)
        rng = RNG(6)
        for m in range(16):
            assert phe.decrypt(keys, phe.encrypt(keys, m, rng)) == m


# ---------------------------------------------------------------------------
# Goldwasser-Micali


class TestGoldwasserMicali:
    def test_worked_example_17_xor_16(self, gm_keys):
        rng = RNG(43)
        c17 = phe.encrypt(gm_keys, 17, rng, width=5)
        c16 = phe.encrypt(gm_keys, 16, rng, width=5)
        assert len(c17) == 5
        assert phe.decrypt(gm_keys, c17) == 17
        assert phe.decrypt(gm_keys, phe.xor_encrypted(gm_keys, c17, c16)) == 1

    def test_xor_self_inverse_and_identity(self, gm_keys):
        rnd = random.Random("gmx")
        rng = RNG(47)
        for _ in range(30):
            m = rnd.getrandbits(32)
            cm = phe.encrypt(gm_keys, m, rng)
            zero = phe.encrypt(gm_keys, 0, rng)
            assert phe.decrypt(gm_keys, phe.xor_encrypted(gm_keys, cm, cm)) == 0
            assert phe.decrypt(gm_keys, phe.xor_encrypted(gm_keys, cm, zero)) == m

    def test_xor_matches_plain_xor(self, gm_keys):
        rnd = random.Random("gmxx")
        rng = RNG(53)
        for _ in range(50):
            m1, m2 = rnd.getrandbits(32), rnd.getrandbits(32)
            c = phe.xor_encrypted(gm_keys, phe.encrypt(gm_keys, m1, rng),
                                  phe.encrypt(gm_keys, m2, rng))
            assert phe.decrypt(gm_keys, c) == m1 ^ m2

    def test_bit_semantics(self, gm_keys):
        # bit 0 -> quadratic residue (jacobi +1 mod p), bit 1 -> jacobi -1
        rng = RNG(59)
        ct = phe.encrypt(gm_keys, 0b10, rng, width=2)
        one_bit, zero_bit = ct
        assert jacobi(one_bit % gm_keys.p, gm_keys.p) == -1
        assert jacobi(zero_bit % gm_keys.p, gm_keys.p) == 1
        assert jacobi(zero_bit, gm_keys.public.n) == 1

    def test_width_mismatch(self, gm_keys):
        rng = RNG(61)
        a = phe.encrypt(gm_keys, 1, rng, width=4)
        b = phe.encrypt(gm_keys, 1, rng, width=5)
        with pytest.raises(WidthMismatch):
            phe.xor_encrypted(gm_keys, a, b)

    def test_default_width_is_32(self, gm_keys):
        assert len(phe.encrypt(gm_keys, 1, RNG(67))) == 32


# ---------------------------------------------------------------------------
# zero tests


@pytest.mark.parametrize("fixture", ADDITIVE_FIXTURES + ["ns_keys"])
def test_is_zero_on_differences(fixture, request):
    keys = request.getfixturevalue(fixture)
    rnd = random.Random(fixture + "zero")
    rng = RNG(71)
    for _ in range(40):
        m1 = random_message(rnd, keys)
        m2 = random_message(rnd, keys)
        same = phe.sub_encrypted(
            keys, phe.encrypt(keys, m1, rng), phe.encrypt(keys, m1, rng))
        assert phe.is_zero(keys, same)
        if m1 != m2:
            differ = phe.sub_encrypted(
                keys, phe.encrypt(keys, m1, rng), phe.encrypt(keys, m2, rng))
            assert not phe.is_zero(keys, differ)


def test_gm_is_zero(gm_keys):
    rng = RNG(73)
    m = 0xDEAD_BEEF
    a, b = phe.encrypt(gm_keys, m, rng), phe.encrypt(gm_keys, m, rng)
    assert phe.is_zero(gm_keys, phe.xor_encrypted(gm_keys, a, b))
    c = phe.encrypt(gm_keys, m ^ 1, rng)
    assert not phe.is_zero(gm_keys, phe.xor_encrypted(gm_keys, a, c))


def test_benaloh_is_zero_agrees_with_decrypt_exhaustively():
    # 4-bit message space: every message pair is cross-checked
    keys = phe.keygen(SchemeId.BENALOH, 128, RNG(79), test_mode=True, r=17)
    rng = RNG(83)
    for m1 in range(16):
        for m2 in range(16):
            diff = phe.sub_encrypted(
                keys, phe.encrypt(keys, m1, rng), phe.encrypt(keys, m2, rng))
            assert phe.is_zero(keys, diff) == (phe.decrypt(keys, diff) == 0)


def test_benaloh_wide_block_refuses_full_decrypt(benaloh_wide_keys):
    rng = RNG(89)
    ct = phe.encrypt(benaloh_wide_keys, 123456, rng)
    with pytest.raises(DecryptionFailure):
        phe.decrypt(benaloh_wide_keys, ct)
    # the zero test still works
    diff = phe.sub_encrypted(benaloh_wide_keys, ct,
                             phe.encrypt(benaloh_wide_keys, 123456, rng))
    assert phe.is_zero(benaloh_wide_keys, diff)


# ---------------------------------------------------------------------------
# capabilities, ranges, blinding


class TestCapabilities:
    def test_gm_has_no_addition(self, gm_keys):
        rng = RNG(97)
        a = phe.encrypt(gm_keys, 1, rng)
        b = phe.encrypt(gm_keys, 2, rng)
        for op in (phe.add_encrypted, phe.sub_encrypted):
            with pytest.raises(CapabilityUnsupported):
                op(gm_keys, a, b)
        with pytest.raises(CapabilityUnsupported):
            phe.scalar_mul(gm_keys, a, 3)

    def test_additive_schemes_have_no_xor(self, paillier_keys):
        rng = RNG(101)
        a = phe.encrypt(paillier_keys, 1, rng)
        with pytest.raises(CapabilityUnsupported):
            phe.xor_encrypted(paillier_keys, a, a)


@pytest.mark.parametrize("fixture,too_big", [
    ("paillier_keys", lambda k: k.public.n),
    ("dj_keys", lambda k: k.public.message_space),
    ("ou_keys", lambda k: k.public.message_space),
    ("benaloh_keys", lambda k: k.public.r),
    ("ns_keys", lambda k: k.public.message_space),
])
def test_message_out_of_range(fixture, too_big, request):
    keys = request.getfixturevalue(fixture)
    with pytest.raises(MessageOutOfRange):
        phe.encrypt(keys, too_big(keys), RNG(103))


def test_gm_message_out_of_range(gm_keys):
    with pytest.raises(MessageOutOfRange):
        phe.encrypt(gm_keys, 32, RNG(104), width=5)
    with pytest.raises(MessageOutOfRange):
        phe.encrypt(gm_keys, 0, RNG(104), width=0)


@pytest.mark.parametrize("fixture", ["paillier_keys", "dj_keys", "ou_keys",
                                     "benaloh_keys", "gm_keys"])
def test_probabilistic_encryption(fixture, request):
    # two encryptions of one message under one key should never repeat
    keys = request.getfixturevalue(fixture)
    rng = RNG(107)
    m = 5
    pairs = [(phe.encrypt(keys, m, rng), phe.encrypt(keys, m, rng))
             for _ in range(100)]
    distinct = sum(1 for a, b in pairs if a != b)
    assert distinct == 100


def test_naccache_stern_is_deterministic(ns_keys):
    # no blinding factor in this formulation: same message, same ciphertext
    rng = RNG(109)
    assert phe.encrypt(ns_keys, 77, rng) == phe.encrypt(ns_keys, 77, rng)


@pytest.mark.parametrize("fixture", ADDITIVE_FIXTURES)
def test_blinding_preserves_zero_test(fixture, request):
    keys = request.getfixturevalue(fixture)
    rnd = random.Random(fixture + "blind")
    rng = RNG(113)
    modulus = phe.message_modulus(keys)
    for _ in range(25):
        m1 = random_message(rnd, keys)
        m2 = random_message(rnd, keys)
        diff = phe.sub_encrypted(
            keys, phe.encrypt(keys, m1, rng), phe.encrypt(keys, m2, rng))
        blinded = phe.blind(keys, diff, rng)
        assert phe.is_zero(keys, blinded) == ((m1 - m2) % modulus == 0)


def test_blinding_unsupported_for_ns_and_gm(ns_keys, gm_keys):
    rng = RNG(127)
    ct = phe.encrypt(ns_keys, 3, rng)
    with pytest.raises(CapabilityUnsupported):
        phe.blind(ns_keys, ct, rng)
    gm_ct = phe.encrypt(gm_keys, 3, rng)
    with pytest.raises(CapabilityUnsupported):
        phe.blind(gm_keys, gm_ct, rng)


@pytest.mark.parametrize("fixture, scheme", [
    ("paillier_keys", SchemeId.PAILLIER), ("dj_keys", SchemeId.DAMGARD_JURIK),
    ("ou_keys", SchemeId.OKAMOTO_UCHIYAMA), ("benaloh_keys", SchemeId.BENALOH),
    ("ns_keys", SchemeId.NACCACHE_STERN), ("gm_keys", SchemeId.GOLDWASSER_MICALI)])
def test_scheme_of_pairs_and_public_keys(fixture, scheme, request):
    keys = request.getfixturevalue(fixture)
    assert phe.scheme_of(keys) is scheme
    assert phe.scheme_of(keys.public) is scheme


@pytest.mark.parametrize("not_phe", ["bfv_small_keys", None])
def test_scheme_of_rejects_other_objects(not_phe, request):
    from helb.errors import SchemeMismatch

    keys = request.getfixturevalue(not_phe) if not_phe else object()
    with pytest.raises(SchemeMismatch):
        phe.scheme_of(keys)
    if not_phe:
        with pytest.raises(SchemeMismatch):
            phe.scheme_of(keys.public)


def test_public_key_cannot_decrypt(paillier_keys):
    from helb.errors import SchemeMismatch

    ct = phe.encrypt(paillier_keys.public, 1, RNG(132))
    with pytest.raises(SchemeMismatch):
        phe.decrypt(paillier_keys.public, ct)
    with pytest.raises(SchemeMismatch):
        phe.is_zero(paillier_keys.public, ct)


def test_dj_digit_extraction_against_direct_powers():
    # oracle: build (1 + n)^m mod n^(s+1) directly and extract m
    from helb.phe.damgard_jurik import _extract_exponent

    rnd = random.Random("djx")
    for s in (1, 2, 3, 4):
        keys = phe.keygen(SchemeId.DAMGARD_JURIK, 96, RNG(137), test_mode=True, s=s)
        n = keys.public.n
        for _ in range(25):
            m = rnd.randrange(n**s)
            assert _extract_exponent(pow(1 + n, m, n**(s + 1)), n, s) == m


def test_dj_high_s_round_trip():
    rng = RNG(139)
    rnd = random.Random("djs")
    for s in (2, 3, 4):
        keys = phe.keygen(SchemeId.DAMGARD_JURIK, 128, RNG(149), test_mode=True, s=s)
        space = keys.public.message_space
        for _ in range(20):
            m = rnd.randrange(space)
            assert phe.decrypt(keys, phe.encrypt(keys, m, rng)) == m


# toy key pairs for the pinned digest below: (scheme, bits, seed, options)
PINNED_KEYS = [
    (SchemeId.PAILLIER, 128, 151, {}),
    (SchemeId.DAMGARD_JURIK, 128, 152, {"s": 2}),
    (SchemeId.OKAMOTO_UCHIYAMA, 128, 153, {}),
    (SchemeId.BENALOH, 128, 154, {"r": 257}),
    (SchemeId.NACCACHE_STERN, 224, 155, {}),
    (SchemeId.GOLDWASSER_MICALI, 128, 156, {}),
]
PINNED_OPS_SHA256 = "8fc7b4cac61e2e77d8b63a8d605c73f1ca91f6a3b60f631aa2ea5839dc1f891b"


def _pinned_rows(keys, rnd, rng) -> list:
    """Payloads and zero verdicts of seeded homomorphic operations, whose
    operands are encrypted under the key pair, the public key, or one each
    (a key holder's Paillier and Damgard-Jurik operands are `CrtElement`s)."""
    scheme = phe.scheme_of(keys)
    rows = []
    for first, second in ((keys, keys), (keys.public, keys.public),
                          (keys, keys.public), (keys.public, keys)):
        m1, m2 = random_message(rnd, keys), random_message(rnd, keys)
        c1, c3 = phe.encrypt(first, m1, rng), phe.encrypt(first, m1, rng)
        c2 = phe.encrypt(second, m2, rng)
        if scheme is SchemeId.GOLDWASSER_MICALI:
            diffs = [phe.xor_encrypted(keys, c1, c2), phe.xor_encrypted(keys, c1, c3),
                     phe.xor_encrypted(keys, c2, c1)]
            others = []
        else:
            diffs = [phe.sub_encrypted(keys, c1, c2), phe.sub_encrypted(keys, c1, c3),
                     phe.sub_encrypted(keys, c2, c1)]
            if scheme is not SchemeId.NACCACHE_STERN:
                diffs += [phe.blind(keys, d, rng) for d in diffs]
            k = rnd.randrange(1, 2**64)
            others = [phe.add_encrypted(keys, c1, c2), phe.add_encrypted(keys, c2, c1),
                      phe.scalar_mul(keys, c1, k), phe.scalar_mul(keys, c2, -k)]
        rows.append([ct if isinstance(ct, tuple) else int(ct)
                     for ct in diffs + others])
        rows.append([phe.is_zero(keys, d) for d in diffs])
    return rows


def test_homomorphic_ops_are_pinned():
    """The exact ciphertexts of add, sub, scalar_mul, blind and xor, and
    their zero verdicts, for all six schemes."""
    rows = []
    for scheme, bits, seed, opts in PINNED_KEYS:
        keys = phe.keygen(scheme, bits, RNG(seed), test_mode=True, **opts)
        rows.append((scheme.value, _pinned_rows(keys, random.Random(seed), RNG(seed))))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == PINNED_OPS_SHA256

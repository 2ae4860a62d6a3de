import collections
import hashlib
import math
import pathlib
import random

import pytest
import support

from helb import numtheory, phe, pool, serial
from helb.errors import InvalidModulus, NotFound, NotInvertible
from helb.numtheory import (
    RandomSource,
    PrimePowerCrt,
    brute_force_dlog,
    factor_from_lambda,
    first_primes,
    gen_prime,
    gen_safe_prime,
    is_probable_prime,
    jacobi,
    lcm,
    mod_inv,
    rand_coprime,
)


class TestRandomSource:
    def test_seeded_streams_are_identical(self):
        a = RandomSource.seeded(42)
        b = RandomSource.seeded(42)
        assert [a.getrandbits(64) for _ in range(32)] == \
               [b.getrandbits(64) for _ in range(32)]

    def test_different_seeds_differ(self):
        assert RandomSource.seeded(1).getrandbits(128) != \
               RandomSource.seeded(2).getrandbits(128)

    def test_crypto_mode_has_no_seed(self):
        rng = RandomSource.crypto()
        assert not rng.is_seeded

    def test_seed_must_be_u64(self):
        with pytest.raises(ValueError):
            RandomSource.seeded(2**64)
        with pytest.raises(ValueError):
            RandomSource.seeded(-1)


FIXED_WITNESSES = first_primes(12)


def restated_miller_rabin(n, rounds=40):
    """Miller-Rabin without any sieve, its witnesses from its own stream:
    2..37 below 3.3e24, where they decide exactly, random ones above."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    if n < 3_317_044_064_679_887_385_961_981:
        if n in FIXED_WITNESSES:
            return True
        witnesses = FIXED_WITNESSES
    else:
        rnd = random.Random(n)
        witnesses = [rnd.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CountingWitnesses:
    """A stand-in for `numtheory._witness_rng` that counts its draws, in
    all and per tested number n (from the range [2, n - 1) asked for), and
    always gives `witness`."""

    def __init__(self, witness=2):
        self.witness, self.draws = witness, 0
        self.per_number = collections.Counter()

    def randrange(self, start, stop):
        self.draws += 1
        self.per_number[stop + 1] += 1
        return self.witness


# the primes of the second sieve stage
SIEVE_PRIMES = [s for s in range(353, numtheory._SIEVE_BOUND)
                if support.trial_division_is_prime(s)]


class TestSecondSieveStage:
    def test_product_is_the_sieve_primes(self):
        assert numtheory._sieve_product() == math.prod(SIEVE_PRIMES)
        assert SIEVE_PRIMES[0] == numtheory._TRIAL_PRIMES[-1] + 4

    def test_refuses_every_sieve_multiple_before_a_round(self, monkeypatch):
        q = gen_prime(128, RandomSource.seeded(1))
        stub = CountingWitnesses()
        monkeypatch.setattr(numtheory, "_witness_rng", stub)
        for s in SIEVE_PRIMES:
            assert not is_probable_prime(s * q), s
        assert stub.draws == 0

    def test_accepts_every_prime_just_above_the_bound(self):
        start = 1 << 82
        assert start > numtheory._MR_DETERMINISTIC_BOUND
        primes = {n for n in range(start + 1, start + 20_000, 2)
                  if restated_miller_rabin(n)}
        assert len(primes) > 100
        for n in range(start, start + 20_000):
            assert is_probable_prime(n) == (n in primes), n

    def test_fixed_witness_range_never_builds_the_product(self):
        numtheory._sieve_product.cache_clear()
        try:
            assert is_probable_prime(numtheory._MR_DETERMINISTIC_BOUND - 2) \
                == restated_miller_rabin(numtheory._MR_DETERMINISTIC_BOUND - 2)
            gen_prime(80, RandomSource.seeded(2))
            assert numtheory._sieve_product.cache_info().currsize == 0
        finally:
            numtheory._sieve_product.cache_clear()


class TestWitnessDraws:
    def test_a_composite_draws_one_witness(self, monkeypatch):
        # two primes above the sieve bound: both sieve stages pass it
        n = gen_prime(64, RandomSource.seeded(3)) * gen_prime(64, RandomSource.seeded(4))
        assert n > numtheory._MR_DETERMINISTIC_BOUND
        assert math.gcd(n, numtheory._sieve_product()) == 1
        assert not restated_miller_rabin(n)
        stub = CountingWitnesses(2)
        monkeypatch.setattr(numtheory, "_witness_rng", stub)
        assert not is_probable_prime(n)
        assert stub.draws == 1

    def test_a_prime_draws_one_witness_per_round(self, monkeypatch):
        stub = CountingWitnesses(2)
        monkeypatch.setattr(numtheory, "_witness_rng", stub)
        assert is_probable_prime(2**127 - 1, 7)
        assert stub.draws == 7

    def test_fixed_witness_range_draws_none(self, monkeypatch):
        stub = CountingWitnesses()
        monkeypatch.setattr(numtheory, "_witness_rng", stub)
        assert is_probable_prime(2**61 - 1)
        assert stub.draws == 0


def dlp_bound(k, t):
    """The Damgard-Landrock-Pomerance bound (HAC Fact 4.48) on the chance
    that a random odd k-bit integer passing t Miller-Rabin rounds is
    composite, for 3 <= t <= k/9 and k >= 21."""
    return k**1.5 * 2**t * t**-0.5 * 4 ** (2 - math.sqrt(t * k))


class TestRoundsPerSearch:
    @pytest.mark.parametrize("bits, rounds",
                             [(384, 17), (512, 12), (683, 9), (1024, 6), (2048, 3)])
    def test_fewest_rounds_that_bound_a_random_candidate_by_2_to_the_128(
            self, bits, rounds):
        t = numtheory.random_candidate_rounds(bits)
        assert t == rounds and 3 <= t <= bits / 9
        assert dlp_bound(bits, t) <= 2.0**-128
        assert t - 1 < 3 or dlp_bound(bits, t - 1) > 2.0**-128

    def test_no_size_below_257_bits_has_a_bound(self):
        assert all(dlp_bound(256, t) > 2.0**-128 for t in range(3, 256 // 9 + 1))
        assert numtheory.random_candidate_rounds(256) == numtheory.DEFAULT_MR_ROUNDS == 40

    @pytest.fixture
    def witnesses(self, monkeypatch):
        """Counted witnesses, with every search in this process, where the
        stand-in draws them."""
        monkeypatch.setattr(pool, "worker_count", lambda: 1)
        stub = CountingWitnesses()
        monkeypatch.setattr(numtheory, "_witness_rng", stub)
        return stub

    @pytest.mark.parametrize("bits, rounds", [(320, 21), (384, 17), (512, 12),
                                              (1024, 6)])
    def test_a_generated_prime_draws_the_rounds_of_its_size(self, bits, rounds,
                                                            witnesses):
        p = gen_prime(bits, RandomSource.seeded(bits))
        assert witnesses.per_number[p] == rounds

    def test_a_callers_draw_keeps_the_default_rounds(self, witnesses):
        rng = RandomSource.seeded(5)
        p = numtheory.find_prime(lambda: rng.getrandbits(512) | (1 << 511) | 1,
                                 512, rng)
        assert witnesses.per_number[p] == 40

    def test_a_number_from_outside_keeps_the_default_rounds(self, witnesses):
        assert is_probable_prime(2**521 - 1)
        assert witnesses.draws == 40

    def test_both_halves_of_a_safe_prime_keep_the_default_rounds(self, witnesses):
        p = gen_safe_prime(384, RandomSource.seeded(6))
        assert witnesses.per_number[p] == witnesses.per_number[(p - 1) // 2] == 40


# `same_keys` of BENCH_15.json, which the `paillier-2048` benchmark generates
PAILLIER_2048_SEED_1 = (
    "276db98254b1a6d06b71829a3856763f14b5d19384183dcb69ba2c973d36e55a",
    "724316b8bfd3a696611a9954b10b1884dc30c80b6b96ed345b1f96fa00918d52")


def test_seeded_2048_bit_paillier_keys_keep_their_digests(tmp_path):
    keys = phe.keygen(phe.SchemeId.PAILLIER, 2048, RandomSource.seeded(1),
                      test_mode=True)
    paths = serial.write_key_files(keys, str(tmp_path / "key"))
    assert tuple(hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
                 for path in paths) == PAILLIER_2048_SEED_1


class TestIsProbablePrime:
    def test_small_values(self):
        assert is_probable_prime(2)
        assert is_probable_prime(7)
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert not is_probable_prime(9)

    def test_carmichael_number_is_composite(self):
        # 561 = 3 * 11 * 17 fools the Fermat test but not Miller-Rabin
        assert not support.trial_division_is_prime(561)
        assert not is_probable_prime(561, 40)

    def test_agrees_with_trial_division_below_10k(self):
        for n in range(10_000):
            assert is_probable_prime(n) == support.trial_division_is_prime(n), n

    def test_large_known_prime(self):
        # 2^127 - 1, a Mersenne prime
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**128 + 1)


class TestGenPrime:
    def test_eight_bit_prime_in_range(self):
        p = gen_prime(8, RandomSource.seeded(1))
        assert 128 <= p <= 255
        assert is_probable_prime(p)

    def test_crypto_mode_512(self):
        p = gen_prime(512, RandomSource.crypto())
        assert p.bit_length() == 512
        assert is_probable_prime(p, 40)

    def test_seeded_determinism(self):
        assert gen_prime(64, RandomSource.seeded(42)) == \
               gen_prime(64, RandomSource.seeded(42))

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            gen_prime(7, RandomSource.seeded(1))

    @pytest.mark.parametrize("bits", [8, 16, 48, 128])
    def test_exact_bit_length_and_primality(self, bits):
        rng = RandomSource.seeded(bits)
        for _ in range(5):
            p = gen_prime(bits, rng)
            assert p.bit_length() == bits
            assert p % 2 == 1
            assert is_probable_prime(p, 40)

    def test_safe_prime(self):
        p = gen_safe_prime(64, RandomSource.seeded(3))
        assert p.bit_length() == 64
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    @pytest.mark.parametrize("bits", [80, 81, 82, 96, 128, 256])
    def test_prime_matches_a_restated_miller_rabin_loop(self, bits):
        # same candidate stream, no sieve, other witnesses: the sieve stages
        # refuse only composites, so the first prime is the same
        def reference(rng):
            while True:
                candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
                if restated_miller_rabin(candidate):
                    return candidate

        for seed in range(20):
            assert gen_prime(bits, RandomSource.seeded(seed)) == \
                reference(RandomSource.seeded(seed))

    # from 96 bits on, m and 2m + 1 go through the second sieve stage
    @pytest.mark.parametrize("bits", [64, 96, 128])
    def test_safe_prime_matches_the_full_test_loop(self, bits):
        # the loop as it was before the one-round pre-tests: same candidate
        # stream, so the same first safe prime
        def full_test_loop(rng):
            while True:
                m = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
                p = 2 * m + 1
                if is_probable_prime(m) and is_probable_prime(p):
                    return p

        for seed in range(20):
            assert gen_safe_prime(bits, RandomSource.seeded(seed)) == \
                full_test_loop(RandomSource.seeded(seed))


def _prime_pair(bits, seed, common=2):
    """Distinct primes p, q of `bits` bits with `common` dividing p-1 and q-1."""
    rnd = random.Random(seed)
    found = []
    while len(found) < 2:
        k = rnd.randrange(2 ** (bits - 1) // common, 2**bits // common)
        candidate = common * k + 1
        if candidate.bit_length() == bits and is_probable_prime(candidate) \
                and candidate not in found:
            found.append(candidate)
    return tuple(sorted(found))


class TestFactorFromLambda:
    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_random_factors(self, seed):
        p, q = _prime_pair(256, seed)
        assert factor_from_lambda(p * q, lcm(p - 1, q - 1)) == (p, q)

    def test_toy_key(self):
        assert factor_from_lambda(35, 12) == (5, 7)

    def test_large_gcd_falls_back_to_the_split(self):
        # gcd(p-1, q-1) is a multiple of 4099, beyond the sum search
        p, q = _prime_pair(160, 1, common=2 * 4099)
        assert math.gcd(p - 1, q - 1) > 4096
        assert factor_from_lambda(p * q, lcm(p - 1, q - 1)) == (p, q)

    def test_multiples_of_lambda_also_split(self):
        p, q = _prime_pair(128, 2)
        phi = (p - 1) * (q - 1)
        assert factor_from_lambda(p * q, phi) == (p, q)
        assert factor_from_lambda(p * q, 6 * phi) == (p, q)

    @pytest.mark.parametrize("delta", [1, 2, -2])
    def test_wrong_lambda_yields_none(self, delta):
        p, q = _prime_pair(128, 3)
        assert factor_from_lambda(p * q, lcm(p - 1, q - 1) + delta) is None

    @pytest.mark.parametrize("n, lam", [(0, 1), (35, 0), (35, -12), (3, 2)])
    def test_degenerate_input_yields_none(self, n, lam):
        assert factor_from_lambda(n, lam) is None

    def test_crt_needs_a_multiple_of_lambda(self):
        p, q = _prime_pair(128, 4)
        lam = lcm(p - 1, q - 1)
        assert PrimePowerCrt.from_lambda(p * q, lam, 1).p == p
        # lam / 2 still factors n by the sum search, but is no exponent of Z*_n
        with pytest.raises(InvalidModulus):
            PrimePowerCrt.from_lambda(p * q, lam // 2, 1)


class TestPrimePowerCrt:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_nth_power_matches_pow(self, s):
        p, q = _prime_pair(96, s)
        n = p * q
        crt = PrimePowerCrt(p, q, s)
        rnd = random.Random(s)
        for _ in range(20):
            r = rnd.randrange(2, n)
            if math.gcd(r, n) == 1:
                assert crt.nth_power(r) == pow(r, n**s, n ** (s + 1))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_residues_are_nth_powers(self, s):
        p, q = _prime_pair(96, 10 + s)
        n = p * q
        crt = PrimePowerCrt(p, q, s)
        rnd = random.Random(s)
        for _ in range(20):
            r = rnd.randrange(2, n)
            if math.gcd(r, n) != 1:
                continue
            residue = pow(r, n**s, n ** (s + 1))
            assert crt.is_nth_residue(residue)
            assert not crt.is_nth_residue(residue * (1 + n) % n ** (s + 1))


class TestModInv:
    def test_known_value(self):
        assert support.inverse_by_search(3, 11) == 4
        assert mod_inv(3, 11) == 4

    def test_identity(self):
        for m in (2, 7, 35, 561):
            assert mod_inv(1, m) == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inv(6, 9)

    def test_random_inverses(self):
        rnd = random.Random(7)
        for _ in range(1000):
            m = rnd.randrange(2, 1 << 64)
            a = rnd.randrange(1, m)
            if math.gcd(a, m) != 1:
                continue
            assert mod_inv(a, m) * a % m == 1


class TestJacobi:
    def test_zero_numerator(self):
        assert jacobi(0, 9) == 0
        assert jacobi(21, 21) == 0

    def test_known_values_mod_7(self):
        # squares mod 7 are {1, 2, 4}
        assert support.legendre_by_squares(2, 7) == 1
        assert jacobi(2, 7) == 1
        assert support.legendre_by_squares(3, 7) == -1
        assert jacobi(3, 7) == -1

    def test_matches_legendre_for_all_small_primes(self):
        for p in first_primes(26):  # all odd primes up to 101
            if p == 2:
                continue
            for a in range(p):
                assert jacobi(a, p) == support.legendre_by_squares(a, p), (a, p)

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            jacobi(3, 8)
        with pytest.raises(InvalidModulus):
            jacobi(3, 1)

    def test_multiplicative_in_numerator(self):
        rnd = random.Random(11)
        for _ in range(200):
            n = rnd.randrange(3, 10_000) | 1
            a, b = rnd.randrange(n), rnd.randrange(n)
            assert jacobi(a * b % n, n) == jacobi(a, n) * jacobi(b, n)


class TestLcm:
    def test_basic(self):
        assert lcm(4, 6) == 12

    def test_toy_key_exponent(self):
        # p = 5, q = 7 gives lcm(4, 6) = 12
        assert lcm(5 - 1, 7 - 1) == 12

    def test_identity(self):
        for k in (1, 17, 561):
            assert lcm(1, k) == k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lcm(0, 4)


class TestFirstPrimes:
    def test_starts_at_two(self):
        assert first_primes(1) == [2]

    def test_first_four(self):
        assert first_primes(4) == [2, 3, 5, 7]

    def test_all_prime_and_ascending(self):
        primes = first_primes(100)
        assert primes == sorted(set(primes))
        assert all(support.trial_division_is_prime(p) for p in primes)

    def test_product_of_33_exceeds_32_bits(self):
        product = math.prod(first_primes(33))
        assert product > 2**32
        # direct multiplication oracle for the 32-prime product as well
        product32 = 1
        for p in first_primes(32):
            product32 *= p
        assert product32 > 2**32


class TestBruteForceDlog:
    def test_exponent_zero(self):
        assert brute_force_dlog(5, 1, 11, 16) == 0

    def test_known_value(self):
        assert support.dlog_by_enumeration(2, 8, 11, 16) == 3
        assert brute_force_dlog(2, 8, 11, 16) == 3

    def test_not_found(self):
        assert support.dlog_by_enumeration(2, 7, 11, 3) is None
        with pytest.raises(NotFound):
            brute_force_dlog(2, 7, 11, 3)

    def test_smallest_exponent_wins(self):
        # base 3 has order 5 mod 11: 3^1 = 3 and 3^6 = 3 as well
        assert brute_force_dlog(3, 3, 11, 10) == 1

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            brute_force_dlog(2, 1, 11, 0)


def test_rand_coprime_is_unit():
    rng = RandomSource.seeded(5)
    for modulus in (35, 721, 1 << 64):
        for _ in range(50):
            u = rand_coprime(modulus, rng)
            assert 1 < u < modulus
            assert math.gcd(u, modulus) == 1

"""Multiprecision number-theoretic primitives shared by every scheme.

Plain Python integers are the big-integer substrate throughout the
package; nothing here assumes values fit a machine word.

Primality tests sieve before Miller-Rabin, in two stages.  Trial division
by the primes up to 349 refuses most candidates for a few microseconds.
Above `_MR_DETERMINISTIC_BOUND`, where the witnesses are random, one gcd
with the product of the primes from 353 to `_SIEVE_BOUND` then refuses
about half of the survivors for a fraction of one Miller-Rabin round.
Both stages refuse only numbers with a small prime factor, which
Miller-Rabin refuses too, and the witnesses come from the operating
system, not from the caller's stream.  So a seeded prime search returns
the same prime, and leaves the stream where a plain Miller-Rabin loop
over the same candidates would, also when its rounds run one at a time
in forked workers (`_search`).

How many random rounds a number takes depends on where it comes from.
`gen_prime` draws its candidates uniformly from the odd k-bit integers,
and for such a draw Damgard, Landrock and Pomerance (Math. Comp. 61,
1993; Handbook of Applied Cryptography, Fact 4.48) bound the chance that
one passing t rounds is composite far below 4^-t: `random_candidate_rounds`
gives the fewest rounds that bound it by 2^-128, 6 at 1024 bits.  Every
other number, such as a BFV modulus read from a file, a safe prime's two
halves or Benaloh's p = r*k + 1, takes `DEFAULT_MR_ROUNDS`, whose error
is at most 4^-40 for any input.  The sieve only refuses composites, so it
cannot raise the chance that a number that passes is composite.
"""

from __future__ import annotations

import functools
import itertools
import math
import random as _random

from . import pool
from .errors import DecryptionFailure, InvalidModulus, NotFound, NotInvertible

DEFAULT_MR_ROUNDS = 40

# `random_candidate_rounds` bounds the error of a generated prime by 2^-this.
_RANDOM_CANDIDATE_ERROR_BITS = 128

# Below this bound the fixed witness set is a deterministic primality test.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_FIXED_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Quick rejection sieve for prime generation.
_TRIAL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
)

# The second sieve stage divides by the primes from 353 up to this bound.
# At 2^16 its gcd costs 0.3 ms against a 1024-bit candidate and refuses
# 47 % of the trial-division survivors, each of which would cost a 5-6 ms
# Miller-Rabin round; 2^15 and 2^17 cost more per survivor.
_SIEVE_BOUND = 1 << 16

# Internal source for Miller-Rabin witness selection; the verdict does not
# need to be reproducible, only the candidate stream fed by the caller.
_witness_rng = _random.SystemRandom()


class RandomSource:
    """Randomness tap with a cryptographic mode and a reproducible seeded mode.

    Seeded sources emit an identical stream for an identical seed and exist
    so that examples and property tests are repeatable.  The cryptographic
    mode draws from the OS and never accepts a seed.
    """

    def __init__(self, rng: _random.Random, seed: int | None):
        self._rng = rng
        self._seed = seed

    @classmethod
    def crypto(cls) -> "RandomSource":
        return cls(_random.SystemRandom(), None)

    @classmethod
    def seeded(cls, seed: int) -> "RandomSource":
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        return cls(_random.Random(seed), seed)

    @property
    def is_seeded(self) -> bool:
        return self._seed is not None

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def randbytes(self, k: int) -> bytes:
        return self._rng.randbytes(k)

    def randrange(self, start: int, stop: int | None = None) -> int:
        return self._rng.randrange(start, stop)

    def gauss(self, sigma: float) -> float:
        return self._rng.gauss(0.0, sigma)

    def getstate(self):
        """The state of a seeded stream, for `setstate`; None in crypto
        mode, whose stream cannot be replayed."""
        return self._rng.getstate() if self.is_seeded else None

    def setstate(self, state) -> None:
        """Rewind a seeded stream to a state from `getstate`; in crypto
        mode (state None) there is nothing to rewind."""
        if state is not None:
            self._rng.setstate(state)

    def __repr__(self) -> str:  # pragma: no cover
        mode = f"seeded({self._seed})" if self.is_seeded else "crypto"
        return f"RandomSource({mode})"


@functools.cache
def _sieve_product() -> int:
    """The product of the primes from 353 to `_SIEVE_BOUND`, built once
    per process by a product tree."""
    flags = bytearray([1]) * _SIEVE_BOUND
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(_SIEVE_BOUND - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, _SIEVE_BOUND, i)))
    first = _TRIAL_PRIMES[-1] + 1
    level = list(itertools.compress(range(first, _SIEVE_BOUND), flags[first:]))
    while len(level) > 1:
        level = [math.prod(level[i:i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def _unsettled(n: int) -> tuple[int, ...] | None:
    """What the sieve leaves of n's primality test: None when n is
    composite, () when it is prime, and (n,) when it takes random
    Miller-Rabin rounds (`_passes`).

    Trial division by `_TRIAL_PRIMES` settles every n with a factor up to
    349, and below ~3.3e24 the fixed witness set settles the rest exactly.
    Above it, one gcd with `_sieve_product` refuses a number with a prime
    factor up to `_SIEVE_BOUND` before any round.
    """
    if n < 2:
        return None
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return () if n == p else None
    if n < _MR_DETERMINISTIC_BOUND:
        return () if _miller_rabin(n, _MR_FIXED_WITNESSES) else None
    if math.gcd(n, _sieve_product()) != 1:
        return None
    return (n,)


def _miller_rabin(n: int, witnesses) -> bool:
    """Whether odd n > 2 passes a Miller-Rabin round for every witness."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _passes(job: tuple[tuple[int, ...], int]) -> bool:
    """Whether every number of a (numbers, rounds) job passes `rounds`
    Miller-Rabin rounds.  Each witness is drawn from the operating system
    when its round runs, so a composite costs one draw."""
    numbers, rounds = job
    return all(_miller_rabin(n, (_witness_rng.randrange(2, n - 1)
                                 for _ in range(rounds)))
               for n in numbers)


def is_probable_prime(n: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Miller-Rabin primality test, after the sieve of `_unsettled`.

    Composites slip through with probability at most 4**-rounds, whatever
    n is, so the default suits numbers read from outside; below ~3.3e24
    the fixed witness set makes the answer exact.
    """
    left = _unsettled(n)
    return left is not None and _passes((left, rounds))


def random_candidate_rounds(bits: int) -> int:
    """The Miller-Rabin rounds that leave a prime drawn by `gen_prime`, a
    uniformly random odd `bits`-bit integer that passes them, composite
    with probability at most 2^-128.

    For 3 <= t <= k/9 and k >= 21, Damgard, Landrock and Pomerance bound
    that probability after t rounds by k^(3/2) 2^t t^(-1/2) 4^(2-sqrt(tk))
    (Math. Comp. 61, 1993; HAC Fact 4.48).  It is a bound over the random
    draw: a chosen composite passes t rounds with probability up to 4^-t.
    This is the smallest such t whose bound is at most 2^-128: 17 at 384
    bits, 12 at 512, 6 at 1024 and 3 at 2048.  Where none is, below 257
    bits, it is `DEFAULT_MR_ROUNDS`.
    """
    for t in range(3, bits // 9 + 1):
        log2_bound = (1.5 * math.log2(bits) + t - 0.5 * math.log2(t)
                      + 2 * (2 - math.sqrt(t * bits)))
        if log2_bound <= -_RANDOM_CANDIDATE_ERROR_BITS:
            return t
    return DEFAULT_MR_ROUNDS


# The search forks workers for candidates of this many bits and more.  Per
# prime, seeded `gen_prime` searches on a 2-vCPU host, with the rounds of
# `random_candidate_rounds`, in this process against two workers (medians
# of 7 alternating runs of 20 seeds each): 15.0 against 34.4 ms at 320
# bits, 9.9 / 11.5 at 352, 16.5 / 16.9 at 384 and 21.6 / 19.6 at 448;
# then 36.0 / 27.8 ms at 512 and 222 / 129 ms at 1024 bits (5 runs of 10
# seeds).  In 11 more runs at 384 bits the workers read 17.5 against
# 18.1 ms and won 8.  The forks cost about 2 ms.
_FORK_BITS = 384


def _search(sift, bits: int, rng: RandomSource, tries: int | None = None,
            rounds: int = DEFAULT_MR_ROUNDS):
    """The value of the first candidate, in stream order, whose numbers all
    pass `rounds` Miller-Rabin rounds; None when `tries` draws give none.
    Only `gen_prime`, whose candidates are uniformly random, passes fewer
    rounds than `DEFAULT_MR_ROUNDS` (`random_candidate_rounds`).

    `sift()` draws one candidate from `rng` and returns None when the sieve
    refuses it, else (value, numbers), with the numbers left to test by
    random rounds (none when the sieve proved them prime).  Below
    `_FORK_BITS`, or on one usable CPU, the search is a plain loop in this
    process, which leaves `rng` just past the winner.  Otherwise one
    forked worker per usable CPU runs the rounds (`_forked_search`).
    """
    count = pool.worker_count() if bits >= _FORK_BITS else 1
    draws = itertools.repeat(None) if tries is None else range(tries)
    if count < 2:
        for _ in draws:
            sifted = sift()
            if sifted is not None and _passes((sifted[1], rounds)):
                return sifted[0]
        return None
    with pool.forked(_passes, [None] * count) as workers:
        return _forked_search(sift, rng, draws, rounds, workers)


class _Survivor:
    """A candidate that passed the sieve, with the state of the stream
    just after it was drawn, and the Miller-Rabin rounds of its test sent
    to a worker and passed so far."""

    __slots__ = ("value", "numbers", "state", "sent", "passed")

    def __init__(self, value: int, numbers: tuple[int, ...], state):
        self.value, self.numbers, self.state = value, numbers, state
        self.sent = self.passed = 0


def _forked_search(sift, rng: RandomSource, draws, rounds: int, workers: list):
    """`_search` on forked `workers`, each running one Miller-Rabin round,
    a (numbers, 1) job, at a time.  A free worker takes the next round of
    the first survivor, in stream order, that has passed a round and has
    rounds left to send; while none has passed one, the first round of
    the next survivor, which the parent sieves while every worker is busy.
    The first survivor left that has passed all `rounds` wins.  A number
    the sieve proved prime takes its rounds as empty jobs (none from
    `_FORK_BITS` on).  The parent alone draws, so a seeded `rng` is rewound
    to its state just after the winner was drawn, as if no candidate after
    it had been; a crypto `rng` just drops them.
    """
    import select  # only a process that forks needs it

    sifted = (sift() for _ in draws)
    fresh = (_Survivor(*s, rng.getstate()) for s in sifted if s is not None)
    survivors = []  # in stream order, none known to fail
    running = {}  # worker: the survivor whose round it runs
    ahead = None  # the next survivor, sieved before its first round is sent

    while True:
        if survivors and survivors[0].passed == rounds:
            rng.setstate(survivors[0].state)
            return survivors[0].value
        passing = [survivor for survivor in survivors if survivor.passed]
        for worker in [worker for worker in workers if worker not in running]:
            survivor = next((survivor for survivor in passing
                             if survivor.sent < rounds), None)
            if survivor is None and not passing:
                survivor, ahead = ahead or next(fresh, None), None
                if survivor is not None:
                    survivors.append(survivor)
            if survivor is None:
                break
            worker.send((survivor.numbers, 1))
            survivor.sent += 1
            running[worker] = survivor
        if ahead is None and not passing:
            ahead = next(fresh, None)
        if not running:  # every draw is settled: `tries` gave no prime
            return None
        for worker in select.select(list(running), [], [])[0]:
            survivor = running.pop(worker)
            if worker.receive("a Miller-Rabin round"):
                survivor.passed += 1
            elif survivor in survivors:
                survivors.remove(survivor)


def find_prime(draw, bits: int, rng: RandomSource, tries: int | None = None,
               rounds: int = DEFAULT_MR_ROUNDS) -> int | None:
    """The first prime among the candidates of about `bits` bits that
    `draw()` takes from `rng`, in stream order, each confirmed by `rounds`
    Miller-Rabin rounds (`_search`); `draw` returns None for a candidate
    that it refuses itself.  None when `tries` draws give no prime."""
    def sift():
        candidate = draw()
        left = None if candidate is None else _unsettled(candidate)
        return None if left is None else (candidate, left)

    return _search(sift, bits, rng, tries, rounds)


def gen_prime(bits: int, rng: RandomSource) -> int:
    """Return an odd probable prime of exactly `bits` bits (top bit set).

    The first candidate that passes the sieve and `random_candidate_rounds`
    Miller-Rabin rounds, so it is composite with probability at most
    2^-128 (4^-40 below 257 bits, where the rounds stay at
    `DEFAULT_MR_ROUNDS`): the candidates are uniformly random odd integers
    with the top bit set.  The sieve refuses only composites, and the
    witnesses do not come from `rng`, so a seeded search returns the prime
    that a plain Miller-Rabin loop over the same candidates would, and
    leaves `rng` as that loop would.
    """
    if bits < 8:
        raise ValueError(f"prime size must be at least 8 bits, got {bits}")
    return find_prime(lambda: rng.getrandbits(bits) | (1 << (bits - 1)) | 1,
                      bits, rng, rounds=random_candidate_rounds(bits))


def gen_safe_prime(bits: int, rng: RandomSource) -> int:
    """Return a prime p of exactly `bits` bits with (p-1)/2 also prime,
    both confirmed by `DEFAULT_MR_ROUNDS` rounds: the bound of
    `random_candidate_rounds` is for a uniform candidate tested on its
    own, and neither half of a safe prime is one."""
    if bits < 9:
        raise ValueError(f"safe prime size must be at least 9 bits, got {bits}")

    def sift():
        m = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * m + 1
        if m < _MR_DETERMINISTIC_BOUND:
            left_m, left_p = _unsettled(m), _unsettled(p)
            return None if left_m is None or left_p is None else (p, left_m + left_p)
        # one sieve for m and p together: trial division of both, then
        # one gcd of their product for the second stage
        for s in _TRIAL_PRIMES:
            if m % s == 0 or p % s == 0:
                return None
        if math.gcd(m * p, _sieve_product()) != 1:
            return None
        return p, (m, p)

    return _search(sift, bits, rng)


# gcd(p-1, q-1) is tried up to this bound before the Miller-Rabin split
_PHI_COFACTOR_LIMIT = 1024


def factor_from_lambda(n: int, lam: int) -> tuple[int, int] | None:
    """The factors p <= q of n = p*q, given lam = lcm(p-1, q-1), or None.

    phi(n) = lam * g with g = gcd(p-1, q-1), which is small for random
    primes.  So for g = 1, 2, ... the sum p + q = n + 1 - lam * g is tried:
    p and q are the roots of x^2 - (p+q)x + n when its discriminant is a
    square.  A larger g falls back to the Miller-Rabin split, which finds
    a square root of 1 other than +-1 for at least half of all bases when
    lam is a multiple of the Carmichael function of n.  None means that lam
    yields no factors; a multiple check of lam is left to the caller.
    """
    if n < 4 or lam < 1:
        return None
    for g in range(1, _PHI_COFACTOR_LIMIT + 1):
        total = n + 1 - lam * g
        disc = total * total - 4 * n
        if total < 0 or disc < 0:
            break
        root = math.isqrt(disc)
        if root * root == disc and 0 < root < total:
            p = (total - root) // 2
            if p > 1 and p * (total - p) == n:
                return p, total - p
    t = (lam & -lam).bit_length() - 1
    odd = lam >> t
    for a in range(2, 2 + DEFAULT_MR_ROUNDS):
        d = math.gcd(a, n)
        if d == 1:
            x = pow(a, odd, n)
            for _ in range(t):
                y = x * x % n
                if y == 1:  # x is a square root of 1; +-1 give d = n or 1
                    d = math.gcd(x - 1, n)
                    break
                x = y
            else:
                if x != 1:  # a^lam != 1: lam is no multiple of the exponent of Z*_n
                    return None
        if 1 < d < n:
            return min(d, n // d), max(d, n // d)
    return None


class PrimePowerCrt:
    """Exponentiation modulo n^(s+1), n = p*q, by p^(s+1) and q^(s+1).

    The key holder's arithmetic for Paillier (s = 1) and Damgard-Jurik:
    every exponentiation works on a half-size modulus, with an exponent
    of half size or less.
    """

    def __init__(self, p: int, q: int, s: int):
        self.p, self.q = p, q
        self._p_s, self._q_s = p**s, q**s
        self._p_mod, self._q_mod = p * self._p_s, q * self._q_s
        self._modulus = self._p_mod * self._q_mod
        self._r_exp_p, self._r_exp_q = self._q_s % (p - 1), self._p_s % (q - 1)
        self._q_mod_inv = mod_inv(self._q_mod, self._p_mod)

    @classmethod
    def from_lambda(cls, n: int, lam: int, s: int) -> "PrimePowerCrt":
        """Raises InvalidModulus unless lam is a multiple of lcm(p-1, q-1)
        for factors p, q of n."""
        p, q = factor_from_lambda(n, lam) or (0, 0)
        if math.gcd(p, q) != 1 or lam % math.lcm(p - 1, q - 1):
            raise InvalidModulus("lambda does not yield two factors of n")
        return cls(p, q, s)

    def nth_power(self, r: int) -> "CrtElement":
        """r^(n^s) mod n^(s+1), for r coprime to n.

        y^(p^s) mod p^(s+1) depends only on y mod p, so r^(q^s) is taken
        mod p first (by Fermat), then lifted.  The residue mod q^(s+1) is
        left to `nth_power_mod_q`, which runs only when it is read.
        """
        xp = pow(pow(r, self._r_exp_p, self.p), self._p_s, self._p_mod)
        return CrtElement(self, xp, lambda: self.nth_power_mod_q(r))

    def nth_power_mod_q(self, r: int) -> int:
        """r^(n^s) mod q^(s+1): the deferred half of `nth_power`."""
        return pow(pow(r, self._r_exp_q, self.q), self._q_s, self._q_mod)

    def inverse(self, c: int) -> "CrtElement":
        """c^-1 mod n^(s+1) for an integer c, its residue mod q^(s+1)
        computed only when read; raises NotInvertible, as `mod_inv` does,
        when p or q divides c."""
        if c % self.p == 0 or c % self.q == 0:
            raise NotInvertible(f"{c} has no inverse modulo {self._modulus}")
        return CrtElement(self, pow(c, -1, self._p_mod),
                          lambda: pow(c, -1, self._q_mod))

    def is_nth_residue(self, c) -> bool:
        """Whether c is an n^s-th power modulo n^(s+1), that is
        (1 + n)^m * r^(n^s) with m = 0: c^(p-1) = 1 mod p^(s+1) and
        c^(q-1) = 1 mod q^(s+1).  A non-residue almost always fails the
        first test, and a `CrtElement` then never computes its residue
        mod q^(s+1).  Raises DecryptionFailure unless c is a unit in
        [1, n^(s+1)), as decryption does; a `CrtElement` always is one."""
        if isinstance(c, CrtElement) and c.crt is self:
            return (pow(c.xp, self.p - 1, self._p_mod) == 1
                    and pow(c.xq, self.q - 1, self._q_mod) == 1)
        c = int(c)
        if not 0 < c < self._modulus or c % self.p == 0 or c % self.q == 0:
            raise DecryptionFailure("ciphertext outside the units modulo n^(s+1)")
        return (pow(c, self.p - 1, self._p_mod) == 1
                and pow(c, self.q - 1, self._q_mod) == 1)


class CrtElement:
    """A unit modulo n^(s+1), held as its residue mod p^(s+1); its residue
    mod q^(s+1) is computed on first read, then kept.

    `combine` and `invert` act on each residue separately, the q
    side again on first read, so a zero test that fails modulo p^(s+1)
    never pays for the q side.  `int()` recombines the two residues into
    the integer that the arithmetic modulo n^(s+1) gives; `==` and `hash`
    compare that integer.  An operand that is not a unit is handed back
    as a plain integer, so that no test can skip its refusal.
    """

    __slots__ = ("crt", "xp", "_xq", "_q_of")

    def __init__(self, crt: PrimePowerCrt, xp: int, q_of):
        self.crt, self.xp = crt, xp
        self._xq, self._q_of = None, q_of

    @property
    def xq(self) -> int:
        if self._q_of is not None:
            self._xq, self._q_of = self._q_of(), None
        return self._xq

    def combine(self, other) -> "CrtElement | int":
        """self * other mod n^(s+1)."""
        crt = self.crt
        if isinstance(other, CrtElement) and other.crt is crt:
            return CrtElement(crt, self.xp * other.xp % crt._p_mod,
                              lambda: self.xq * other.xq % crt._q_mod)
        other = int(other)
        bp = other % crt._p_mod
        if bp % crt.p == 0 or other % crt.q == 0:
            return int(self) * other % crt._modulus
        return CrtElement(crt, self.xp * bp % crt._p_mod,
                          lambda: self.xq * other % crt._q_mod)

    def invert(self) -> "CrtElement":
        """self^-1 mod n^(s+1)."""
        crt = self.crt
        return CrtElement(crt, pow(self.xp, -1, crt._p_mod),
                          lambda: pow(self.xq, -1, crt._q_mod))

    def __int__(self) -> int:
        crt, xq = self.crt, self.xq
        return xq + crt._q_mod * ((self.xp - xq) * crt._q_mod_inv % crt._p_mod)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, CrtElement)):
            return int(self) == int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(int(self))

    def __repr__(self) -> str:  # pragma: no cover
        return f"CrtElement({int(self)})"


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m, raising NotInvertible when gcd(a, m) != 1."""
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {m}") from None


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3, via quadratic reciprocity."""
    if n < 3 or n % 2 == 0:
        raise InvalidModulus(f"Jacobi symbol needs an odd modulus >= 3, got {n}")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a < 1 or b < 1:
        raise ValueError("lcm arguments must be >= 1")
    return math.lcm(a, b)


def first_primes(count: int) -> list[int]:
    """The first `count` primes in ascending order, starting at 2."""
    if count < 1:
        raise ValueError("count must be >= 1")
    primes = [2]
    n = 3
    while len(primes) < count:
        for p in primes:
            if p * p > n:
                primes.append(n)
                break
            if n % p == 0:
                break
        n += 2
    return primes


def brute_force_dlog(base: int, target: int, modulus: int, bound: int) -> int:
    """Smallest exponent e in [0, bound) with base**e == target (mod modulus)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    base %= modulus
    target %= modulus
    acc = 1 % modulus
    for e in range(bound):
        if acc == target:
            return e
        acc = acc * base % modulus
    raise NotFound(
        f"no exponent below {bound} maps {base} to {target} (mod {modulus})"
    )


def rand_coprime(modulus: int, rng: RandomSource) -> int:
    """Uniform unit modulo `modulus` (resamples until coprime)."""
    if modulus < 3:
        raise InvalidModulus(f"modulus must be >= 3, got {modulus}")
    while True:
        u = rng.randrange(2, modulus)
        if math.gcd(u, modulus) == 1:
            return u

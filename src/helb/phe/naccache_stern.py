"""Naccache-Stern cryptosystem (bitwise variant) over a prime field.

Each message bit rides on one small prime: the public values v_i are s-th
roots of the first primes modulo p, encryption multiplies the v_i of the
set bits, and decryption reads bits back from gcd(p_i, c^s mod p).  The
product of the small primes must stay below p.

Encryption is deterministic in this formulation; there is no random
blinding factor.  Sums of ciphertexts decrypt correctly only while the
per-prime exponents stay at 0 or 1 (no bit collisions, no wraps), but a
quotient of ciphertexts equals 1 exactly when the messages are equal,
which is all the matching protocol needs.
"""

from __future__ import annotations

import math
import secrets

from ..errors import DecryptionFailure, InvalidOptions, MessageOutOfRange
from ..numtheory import RandomSource, first_primes, gen_safe_prime, jacobi, mod_inv
from ..value import Value

# 33 bit positions cover 32-bit messages with a spare top bit.
DEFAULT_MSG_BITS = 33


class NaccacheSternPublicKey(Value, frozen=True):
    SCHEME = "naccache_stern"
    FILE_FIELDS = (("p", "p", int), ("v", "v", tuple), ("n_bits", "n_bits", int))

    p: int
    v: tuple[int, ...]

    @property
    def n_bits(self) -> int:
        return len(self.v)

    @property
    def message_space(self) -> int:
        return 1 << self.n_bits

    @property
    def cipher_modulus(self) -> int:
        return self.p


class NaccacheSternKeyPair(Value, frozen=True):
    SCHEME = "naccache_stern"
    FILE_FIELDS = ((None, "public", NaccacheSternPublicKey), ("s", "s", int))

    public: NaccacheSternPublicKey
    s: int

    def violations(self) -> list[str]:
        """Why s is not the secret exponent of the public key, or some v_i
        not the s-th root of the i-th prime p_i modulo p."""
        p, v, s = self.public.p, self.public.v, self.s
        # p is a safe prime, so an s coprime to p - 1 with v_0^s = 2 is the
        # secret exponent modulo p - 1
        if p < 3 or p % 2 == 0 or math.gcd(s, p - 1) != 1 or not v \
                or pow(v[0], s, p) != 2:
            return ["v_0^s is not 2 modulo p"]
        primes = first_primes(len(v))
        # s is odd, so v_i^s has the Jacobi symbol of v_i: this settles the
        # order-2 part of v_i^s / p_i, which the batch test below cannot see
        if any(jacobi(vi, p) != jacobi(pi, p) for vi, pi in zip(v, primes)):
            return ["v_i^s is not p_i modulo p"]
        # small-exponent batch test (Bellare, Garay and Rabin): one s-th
        # power, (prod v_i^e_i)^s = prod p_i^e_i, instead of len(v); with
        # fresh 64-bit e_i, a wrong v_i passes with probability about 2^-64
        # when (p - 1) / 2 is prime.  Both products take one
        # square-and-multiply pass over the bits of all e_i.
        e = [secrets.randbits(64) for _ in v]
        lhs = rhs = 1
        for bit in range(63, -1, -1):
            lhs, rhs = lhs * lhs % p, rhs * rhs % p
            for vi, pi, ei in zip(v, primes, e):
                if ei >> bit & 1:
                    lhs, rhs = lhs * vi % p, rhs * pi % p
        if pow(lhs, s, p) != rhs:
            return ["v_i^s is not p_i modulo p"]
        return []


KEY_CLASSES = (NaccacheSternPublicKey, NaccacheSternKeyPair)


def keygen(bits: int, rng: RandomSource, n_bits: int = DEFAULT_MSG_BITS,
           p: int | None = None, s: int | None = None) -> NaccacheSternKeyPair:
    if n_bits < 1:
        raise InvalidOptions(f"message width must be >= 1, got {n_bits}")
    primes = first_primes(n_bits)
    sigma = math.prod(primes)
    if p is None:
        p_bits = max(bits, sigma.bit_length() + 1)
        p = gen_safe_prime(p_bits, rng)
    if sigma >= p:
        raise InvalidOptions(
            f"product of the first {n_bits} primes must stay below p")
    if s is None:
        while True:
            s = rng.randrange(3, p - 1)
            if math.gcd(s, p - 1) == 1:
                break
    elif math.gcd(s, p - 1) != 1:
        raise InvalidOptions("secret exponent must be coprime to p - 1")
    s_inv = mod_inv(s, p - 1)
    v = tuple(pow(pi, s_inv, p) for pi in primes)
    return NaccacheSternKeyPair(NaccacheSternPublicKey(p, v), s)


def encode(pub: NaccacheSternPublicKey, m: int) -> int:
    """The product of the v_i of the set bits of m, modulo p."""
    if not 0 <= m < pub.message_space:
        raise MessageOutOfRange(
            f"message must lie in [0, 2^{pub.n_bits}), got {m}")
    c = 1
    for i, vi in enumerate(pub.v):
        if (m >> i) & 1:
            c = c * vi % pub.p
    return c


def encrypt(keys, m: int, rng: RandomSource) -> int:
    """encode(m): this formulation draws no randomness."""
    return encode(getattr(keys, "public", keys), m)


def decrypt(keys: NaccacheSternKeyPair, c: int) -> int:
    p = keys.public.p
    if not 0 < c < p:
        raise DecryptionFailure("ciphertext outside Z*_p")
    cs = pow(c, keys.s, p)
    primes = first_primes(keys.public.n_bits)
    m = 0
    for i, pi in enumerate(primes):
        if math.gcd(pi, cs) > 1:
            m |= 1 << i
    return m


def is_zero(keys: NaccacheSternKeyPair, c: int) -> bool:
    # s is coprime to p - 1, so for a prime p, x -> x^s permutes Z*_p and
    # c^s = 1, the decryption of zero, exactly when c = 1: no secret is needed
    if not 0 < c < keys.public.p:
        raise DecryptionFailure("ciphertext outside Z*_p")
    return c == 1


def message_modulus(keys) -> None:
    # additive capacity is per-prime, not a single modulus
    return None

"""Paillier cryptosystem, and the arithmetic modulo n^(s+1) that it shares
with Damgard-Jurik, whose s = 1 it is.

A public key of either format gives n, g and s, a key pair lam and
mu = lam^-1 mod n^s.  Decryption is L'(c^lam)*mu mod n^s, where L' extracts
the exponent of 1 + n digit by digit; at s = 1 it is L(c^lam)*mu mod n,
which also holds for a loaded Paillier key whose mu inverts L(g^lam) for a
g other than n + 1.  Key generation fixes g = n + 1, so that at s = 1 the
g^m factor of an encryption is (1 + m*n) mod n^2.  The holder of the key
pair recovers p and q from lambda, and encrypts and zero-tests modulo
p^(s+1) and q^(s+1), computing the q side of a ciphertext only when a zero
test gets that far; `decrypt` keeps the exponentiation modulo n^(s+1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ..errors import DecryptionFailure, InvalidModulus, MessageOutOfRange
from ..numtheory import (
    PrimePowerCrt,
    RandomSource,
    gen_prime,
    lcm,
    mod_inv,
    rand_coprime,
)


@dataclass(frozen=True)
class PaillierPublicKey:
    SCHEME = "paillier"
    FILE_FIELDS = (("n", "n", int), ("g", "g", int))
    s = 1

    n: int
    g: int

    @property
    def message_space(self) -> int:
        return self.n

    @property
    def cipher_modulus(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class PaillierKeyPair:
    SCHEME = "paillier"
    FILE_FIELDS = ((None, "public", PaillierPublicKey), ("lambda", "lam", int),
                   ("mu", "mu", int))

    public: PaillierPublicKey
    lam: int
    mu: int

    @functools.cached_property
    def crt(self) -> PrimePowerCrt:
        """Arithmetic modulo p^2 and q^2, by the factors of n that lam yields."""
        return PrimePowerCrt.from_lambda(self.public.n, self.lam, 1)

    def violations(self) -> list[str]:
        """Why lam and mu are not a decryption key for the public key."""
        try:
            self.crt
        except InvalidModulus as exc:
            return [str(exc)]
        n, g = self.public.n, self.public.g
        g_lam = 1 + self.lam * n if g == n + 1 else pow(g, self.lam, n * n)
        if (g_lam - 1) % n or (g_lam - 1) // n * self.mu % n != 1:
            return ["mu is not the inverse of L(g^lambda) modulo n"]
        return []


KEY_CLASSES = (PaillierPublicKey, PaillierKeyPair)


def _generate(bits: int, rng: RandomSource, s: int, p: int | None,
              q: int | None) -> tuple[int, int, int]:
    """n, lam and mu = lam^-1 mod n^s of a key with primes p and q, drawn
    when not given; raises NotInvertible when gcd(n, lam) != 1."""
    if p is None or q is None:
        half = bits // 2
        while True:
            p = gen_prime(half, rng)
            q = gen_prime(bits - half, rng)
            n = p * q
            # digit extraction divides by k! for k <= s, and mu inverts lam
            if p != q and n.bit_length() == bits and p > s and q > s \
                    and math.gcd(n, lcm(p - 1, q - 1)) == 1:
                break
    n = p * q
    lam = lcm(p - 1, q - 1)
    return n, lam, mod_inv(lam, n**s)


def keygen(bits: int, rng: RandomSource, p: int | None = None,
           q: int | None = None) -> PaillierKeyPair:
    # g^lam = (1 + n)^lam = 1 + lam*n mod n^2, so L(g^lam mod n^2) = lam mod n
    n, lam, mu = _generate(bits, rng, 1, p, q)
    return PaillierKeyPair(PaillierPublicKey(n, n + 1), lam, mu)


def encrypt(keys, m: int, rng: RandomSource):
    """Encrypt under a public key, or by CRT under a key pair: the same
    ciphertext for the same draw of r, which under a key pair is a
    `CrtElement` that computes its residue mod q^(s+1) only when read."""
    pub = getattr(keys, "public", keys)
    if not 0 <= m < pub.message_space:
        raise MessageOutOfRange(f"message must lie in [0, n^{pub.s}), got {m}")
    nx = pub.cipher_modulus
    if pub.s == 1 and pub.g == pub.n + 1:
        gm = (1 + m * pub.n) % nx
    else:
        gm = pow(pub.g, m, nx)
    r = rand_coprime(pub.n, rng)
    if hasattr(keys, "public"):
        return keys.crt.nth_power(r).combine(gm)
    return gm * pow(r, pub.message_space, nx) % nx


def _extract_exponent(a: int, n: int, s: int) -> int:
    """Recover m from a = (1 + n)^m mod n^(s+1), for 0 <= m < n^s."""
    npow = [n**j for j in range(s + 2)]
    m = 0
    for j in range(1, s + 1):
        rem = a % npow[j + 1] - 1
        if rem % n:
            raise DecryptionFailure("ciphertext is malformed")
        t1 = (rem // n) % npow[j]
        t2 = m
        factorial = 1
        for k in range(2, j + 1):
            m -= 1
            factorial *= k
            t2 = t2 * m % npow[j]
            t1 = (t1 - t2 * npow[k - 1] * mod_inv(factorial, npow[j])) % npow[j]
        m = t1
    return m


def decrypt(keys, c) -> int:
    pub, c = keys.public, int(c)
    if not 0 < c < pub.cipher_modulus:
        raise DecryptionFailure("ciphertext outside Z*_{n^(s+1)}")
    a = pow(c, keys.lam, pub.cipher_modulus)
    return _extract_exponent(a, pub.n, pub.s) * keys.mu % pub.message_space


def is_zero(keys, c) -> bool:
    """decrypt(keys, c) == 0, raising where decrypt raises: c is an
    encryption of 0 exactly when it is an n^s-th residue modulo n^(s+1)."""
    return keys.crt.is_nth_residue(c)


def message_modulus(keys) -> int:
    pub = getattr(keys, "public", keys)
    return pub.message_space

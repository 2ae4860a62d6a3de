"""Paillier cryptosystem: additive homomorphism in Z*_{n^2}.

The generator is fixed at g = n + 1, which keeps mu well-defined and lets
encryption of the g^m factor collapse to (1 + m*n) mod n^2; by the same
identity, key generation takes mu = (lam mod n)^-1 mod n.  The holder of
the key pair recovers p and q from lambda, and encrypts and zero-tests
modulo p^2 and q^2, computing the q^2 side of a ciphertext only when a
zero test gets that far; `decrypt` keeps the exponentiation modulo n^2.
"""

from __future__ import annotations

import functools
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

    n: int
    g: int

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


def _l(x: int, n: int) -> int:
    if (x - 1) % n:
        raise DecryptionFailure("value is not congruent to 1 modulo n")
    return (x - 1) // n


def keygen(bits: int, rng: RandomSource, p: int | None = None,
           q: int | None = None) -> PaillierKeyPair:
    if p is None or q is None:
        half = bits // 2
        while True:
            p = gen_prime(half, rng)
            q = gen_prime(bits - half, rng)
            if p != q and (p * q).bit_length() == bits:
                break
    n = p * q
    g = n + 1
    lam = lcm(p - 1, q - 1)
    # g^lam = (1 + n)^lam = 1 + lam*n mod n^2, so L(g^lam mod n^2) = lam mod n
    mu = mod_inv(lam % n, n)
    return PaillierKeyPair(PaillierPublicKey(n, g), lam, mu)


def encrypt(keys, m: int, rng: RandomSource):
    """Encrypt under a public key, or by CRT under a key pair: the same
    ciphertext for the same draw of r, which under a key pair is a
    `CrtElement` that computes its residue mod q^2 only when read."""
    pub = getattr(keys, "public", keys)
    if not 0 <= m < pub.n:
        raise MessageOutOfRange(f"message must lie in [0, n), got {m}")
    nsq = pub.cipher_modulus
    if pub.g == pub.n + 1:
        gm = (1 + m * pub.n) % nsq
    else:
        gm = pow(pub.g, m, nsq)
    r = rand_coprime(pub.n, rng)
    if isinstance(keys, PaillierKeyPair):
        return keys.crt.nth_power(r).combine(gm)
    return gm * pow(r, pub.n, nsq) % nsq


def decrypt(keys: PaillierKeyPair, c) -> int:
    n, c = keys.public.n, int(c)
    if not 0 < c < keys.public.cipher_modulus:
        raise DecryptionFailure("ciphertext outside Z*_{n^2}")
    return _l(pow(c, keys.lam, keys.public.cipher_modulus), n) * keys.mu % n


def is_zero(keys: PaillierKeyPair, c) -> bool:
    """decrypt(keys, c) == 0, raising where decrypt raises: c is an
    encryption of 0 exactly when it is an n-th residue modulo n^2."""
    return keys.crt.is_nth_residue(c)


def message_modulus(keys) -> int:
    pub = getattr(keys, "public", keys)
    return pub.n

"""Damgard-Jurik cryptosystem: Paillier generalized to message space Z_{n^s}.

Ciphertexts live in Z*_{n^(s+1)}.  Decryption raises to the CRT exponent d
(d = 1 mod n^s, d = 0 mod lam) and then extracts the exponent of (1 + n)
with the iterative digit-extraction algorithm; s = 1 reduces exactly to
Paillier.  As for Paillier, the holder of the key pair encrypts and
zero-tests modulo p^(s+1) and q^(s+1), the q side only when read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ..errors import (
    DecryptionFailure,
    InvalidModulus,
    InvalidOptions,
    MessageOutOfRange,
)
from ..numtheory import (
    PrimePowerCrt,
    RandomSource,
    gen_prime,
    lcm,
    mod_inv,
    rand_coprime,
)

MAX_S = 4


@dataclass(frozen=True)
class DamgardJurikPublicKey:
    SCHEME = "damgard_jurik"
    FILE_FIELDS = (("n", "n", int), ("g", "g", int), ("s", "s", int))

    n: int
    g: int
    s: int

    @property
    def message_space(self) -> int:
        return self.n**self.s

    @property
    def cipher_modulus(self) -> int:
        return self.n ** (self.s + 1)

    def violations(self) -> list[str]:
        # n^(s+1) is computed from a file's s: bound it before any use
        out = [] if 1 <= self.s <= MAX_S else [f"s is outside [1, {MAX_S}]"]
        # decryption and the zero test read exponents of 1 + n
        return out if self.g == self.n + 1 else out + ["g is not n + 1"]


@dataclass(frozen=True)
class DamgardJurikKeyPair:
    SCHEME = "damgard_jurik"
    FILE_FIELDS = ((None, "public", DamgardJurikPublicKey), ("lambda", "lam", int),
                   ("d", "d", int))

    public: DamgardJurikPublicKey
    lam: int
    d: int

    @functools.cached_property
    def crt(self) -> PrimePowerCrt:
        """Arithmetic modulo p^(s+1) and q^(s+1), by the factors of n that
        lam yields."""
        return PrimePowerCrt.from_lambda(self.public.n, self.lam, self.public.s)

    def violations(self) -> list[str]:
        """Why lam and d are not a decryption key for the public key."""
        try:
            self.crt
        except InvalidModulus as exc:
            return [str(exc)]
        out = []
        if self.d % self.lam:
            out.append("d is not a multiple of lambda")
        if self.d % self.public.message_space != 1:
            out.append("d is not 1 modulo n^s")
        return out


KEY_CLASSES = (DamgardJurikPublicKey, DamgardJurikKeyPair)


def keygen(bits: int, rng: RandomSource, s: int = 1, p: int | None = None,
           q: int | None = None) -> DamgardJurikKeyPair:
    if not 1 <= s <= MAX_S:
        raise InvalidOptions(f"s must be in [1, {MAX_S}], got {s}")
    if p is None or q is None:
        half = bits // 2
        while True:
            p = gen_prime(half, rng)
            q = gen_prime(bits - half, rng)
            n = p * q
            # digit extraction divides by k! for k <= s, and the CRT exponent
            # needs gcd(n, lam) = 1
            if p != q and n.bit_length() == bits and p > s and q > s \
                    and math.gcd(n, lcm(p - 1, q - 1)) == 1:
                break
    n = p * q
    lam = lcm(p - 1, q - 1)
    if math.gcd(n, lam) != 1:
        raise InvalidOptions("p*q and lcm(p-1, q-1) must be coprime")
    ns = n**s
    d = lam * mod_inv(lam, ns)
    return DamgardJurikKeyPair(DamgardJurikPublicKey(n, n + 1, s), lam, d)


def encrypt(keys, m: int, rng: RandomSource):
    """Encrypt under a public key, or by CRT under a key pair: the same
    ciphertext for the same draw of r, which under a key pair is a
    `CrtElement` that computes its residue mod q^(s+1) only when read."""
    pub = getattr(keys, "public", keys)
    if not 0 <= m < pub.message_space:
        raise MessageOutOfRange(f"message must lie in [0, n^s), got {m}")
    nx = pub.cipher_modulus
    r = rand_coprime(pub.n, rng)
    if isinstance(keys, DamgardJurikKeyPair):
        return keys.crt.nth_power(r).combine(pow(pub.g, m, nx))
    return pow(pub.g, m, nx) * pow(r, pub.n**pub.s, nx) % nx


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


def decrypt(keys: DamgardJurikKeyPair, c) -> int:
    pub, c = keys.public, int(c)
    if not 0 < c < pub.cipher_modulus:
        raise DecryptionFailure("ciphertext outside Z*_{n^(s+1)}")
    return _extract_exponent(pow(c, keys.d, pub.cipher_modulus), pub.n, pub.s)


def is_zero(keys: DamgardJurikKeyPair, c) -> bool:
    """decrypt(keys, c) == 0, raising where decrypt raises: c is an
    encryption of 0 exactly when it is an n^s-th residue modulo n^(s+1)."""
    return keys.crt.is_nth_residue(c)


def message_modulus(keys) -> int:
    pub = getattr(keys, "public", keys)
    return pub.message_space

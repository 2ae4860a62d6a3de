"""Okamoto-Uchiyama cryptosystem over n = p^2 * q.

Messages must stay below 2^(k-1) where 2^(k-1) < p, so the message width
k is published with the key.  Homomorphic results decrypt modulo p.
"""

from __future__ import annotations

import functools
import math

from ..errors import DecryptionFailure, InvalidOptions, MessageOutOfRange, NotInvertible
from ..numtheory import RandomSource, gen_prime, mod_inv
from ..value import Value

# 32-bit payloads need headroom below p regardless of key size.
MIN_P_BITS = 40


class OkamotoUchiyamaPublicKey(Value, frozen=True):
    SCHEME = "okamoto_uchiyama"
    FILE_FIELDS = (("n", "n", int), ("g", "g", int), ("h", "h", int),
                   ("k", "msg_bits", int))

    n: int
    g: int
    h: int
    msg_bits: int

    @property
    def message_space(self) -> int:
        return 1 << self.msg_bits

    @property
    def cipher_modulus(self) -> int:
        return self.n


class OkamotoUchiyamaKeyPair(Value, frozen=True):
    SCHEME = "okamoto_uchiyama"
    FILE_FIELDS = ((None, "public", OkamotoUchiyamaPublicKey), ("p", "p", int),
                   ("q", "q", int))

    public: OkamotoUchiyamaPublicKey
    p: int
    q: int

    @functools.cached_property
    def g_factor(self) -> int:
        """Inverse of L(g^(p-1) mod p^2) modulo p, the decryption constant."""
        p = self.p
        return mod_inv(_l(pow(self.public.g, p - 1, p * p), p), p)

    def violations(self) -> list[str]:
        """Why p and q are not the factors of the public key's n, g has no
        `g_factor` (which this caches for decryption), or h is not g^n
        modulo n: checked modulo p^2 and modulo q, with n reduced by the
        orders p(p-1) and q-1 of their unit groups."""
        p, q, pub = self.p, self.q, self.public
        if not (p > 1 and q > 1 and p * p * q == pub.n):
            return ["p^2 * q is not n"]
        if math.gcd(pub.g, pub.n) != 1:
            return ["g is not a unit modulo n"]
        try:
            self.g_factor
        except DecryptionFailure:  # Fermat's little theorem fails: p is composite
            return ["g^(p-1) is not 1 modulo p"]
        except NotInvertible:
            return ["g^(p-1) is 1 modulo p^2"]
        psq = p * p
        if (pub.h % psq != pow(pub.g, pub.n % (psq - p), psq)
                or pub.h % q != pow(pub.g, pub.n % (q - 1), q)):
            return ["h is not g^n modulo n"]
        return []


KEY_CLASSES = (OkamotoUchiyamaPublicKey, OkamotoUchiyamaKeyPair)


def keygen(bits: int, rng: RandomSource, p: int | None = None,
           q: int | None = None) -> OkamotoUchiyamaKeyPair:
    if p is None or q is None:
        p_bits = max(bits // 3, MIN_P_BITS)
        q_bits = max(bits - 2 * p_bits, MIN_P_BITS)
        while True:
            p = gen_prime(p_bits, rng)
            q = gen_prime(q_bits, rng)
            if p != q:
                break
    n = p * p * q
    psq = p * p
    while True:
        g = rng.randrange(2, n)
        if math.gcd(g, n) == 1 and pow(g, p - 1, psq) != 1:
            break
    h = pow(g, n, n)
    # message space [0, 2^(k-1)) with 2^(k-1) < p
    msg_bits = p.bit_length() - 1
    if (1 << msg_bits) >= p:
        msg_bits -= 1
    if msg_bits < 1:
        raise InvalidOptions(f"prime p = {p} leaves no message space")
    return OkamotoUchiyamaKeyPair(
        OkamotoUchiyamaPublicKey(n, g, h, msg_bits), p, q)


def encode(pub: OkamotoUchiyamaPublicKey, m: int) -> int:
    """g^m mod n, the factor of an encryption of m that draws no randomness."""
    if not 0 <= m < pub.message_space:
        raise MessageOutOfRange(
            f"message must lie in [0, 2^{pub.msg_bits}), got {m}")
    return pow(pub.g, m, pub.n)


def encrypt(keys, m: int, rng: RandomSource) -> int:
    pub = getattr(keys, "public", keys)
    gm = encode(pub, m)
    r = rng.randrange(1, pub.n)
    return gm * pow(pub.h, r, pub.n) % pub.n


def _l(x: int, p: int) -> int:
    if (x - 1) % p:
        raise DecryptionFailure("value is not congruent to 1 modulo p")
    return (x - 1) // p


def decrypt(keys: OkamotoUchiyamaKeyPair, c: int) -> int:
    p = keys.p
    psq = p * p
    if not 0 < c < keys.public.n:
        raise DecryptionFailure("ciphertext outside Z*_n")
    return _l(pow(c, p - 1, psq), p) * keys.g_factor % p


def is_zero(keys: OkamotoUchiyamaKeyPair, c: int) -> bool:
    return decrypt(keys, c) == 0

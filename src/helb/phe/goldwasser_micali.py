"""Goldwasser-Micali cryptosystem: probabilistic bitwise encryption.

Bit 0 encrypts to a random quadratic residue mod n, bit 1 to a
pseudosquare multiple, and multiplying ciphertexts XORs the bits.  A
message is carried as one ciphertext per bit, most significant first.
"""

from __future__ import annotations

from . import GM_WIDTH
from ..errors import DecryptionFailure, MessageOutOfRange
from ..numtheory import RandomSource, gen_prime, jacobi, rand_coprime
from ..value import Value


class GoldwasserMicaliPublicKey(Value, frozen=True):
    SCHEME = "goldwasser_micali"
    FILE_FIELDS = (("n", "n", int), ("a", "a", int))

    n: int
    a: int

    @property
    def cipher_modulus(self) -> int:
        return self.n


class GoldwasserMicaliKeyPair(Value, frozen=True):
    SCHEME = "goldwasser_micali"
    FILE_FIELDS = ((None, "public", GoldwasserMicaliPublicKey), ("p", "p", int),
                   ("q", "q", int))

    public: GoldwasserMicaliPublicKey
    p: int
    q: int

    def violations(self) -> list[str]:
        """Why p and q are not a decryption key for the public key."""
        p, q, a = self.p, self.q, self.public.a
        if p * q != self.public.n or min(p, q) < 3:
            return ["p * q is not n"]
        if jacobi(a, p) != -1 or jacobi(a, q) != -1:
            return ["a is not a non-residue modulo both p and q"]
        return []


KEY_CLASSES = (GoldwasserMicaliPublicKey, GoldwasserMicaliKeyPair)


def keygen(bits: int, rng: RandomSource, p: int | None = None,
           q: int | None = None) -> GoldwasserMicaliKeyPair:
    if p is None or q is None:
        half = bits // 2
        while True:
            p = gen_prime(half, rng)
            q = gen_prime(bits - half, rng)
            if p != q:
                break
    n = p * q
    while True:
        a = rng.randrange(2, n)
        if jacobi(a % p, p) == -1 and jacobi(a % q, q) == -1:
            break
    return GoldwasserMicaliKeyPair(GoldwasserMicaliPublicKey(n, a), p, q)


def encode(pub: GoldwasserMicaliPublicKey, m: int) -> tuple[int, ...]:
    """The factors of an encryption of m that draw no randomness, one per
    bit of `GM_WIDTH`, most significant first: a for a 1-bit, 1 for a 0-bit."""
    if not 0 <= m < (1 << GM_WIDTH):
        raise MessageOutOfRange(f"message must fit in {GM_WIDTH} bits, got {m}")
    return tuple(pub.a if (m >> i) & 1 else 1 for i in reversed(range(GM_WIDTH)))


def encrypt(keys, m: int, rng: RandomSource) -> tuple[int, ...]:
    """encode(m) times a fresh square per bit."""
    pub = getattr(keys, "public", keys)
    out = []
    for e in encode(pub, m):
        r = rand_coprime(pub.n, rng)
        out.append(r * r % pub.n * e % pub.n)
    return tuple(out)


def _decrypt_bit(keys: GoldwasserMicaliKeyPair, c: int) -> int:
    sym = jacobi(c % keys.p, keys.p)
    if sym == 0 or c % keys.q == 0:
        raise DecryptionFailure("ciphertext shares a factor with the modulus")
    return 0 if sym == 1 else 1


def decrypt(keys: GoldwasserMicaliKeyPair, ct: tuple[int, ...]) -> int:
    m = 0
    for c in ct:
        m = (m << 1) | _decrypt_bit(keys, c)
    return m


def is_zero(keys: GoldwasserMicaliKeyPair, ct: tuple[int, ...]) -> bool:
    return all(_decrypt_bit(keys, c) == 0 for c in ct)

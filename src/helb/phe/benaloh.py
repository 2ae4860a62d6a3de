"""Benaloh cryptosystem: additive homomorphism modulo a block size r.

The block size must be a prime dividing p - 1 (with gcd(r, (p-1)/r) =
gcd(r, q-1) = 1).  Decryption recovers the message by exhaustive search of
the exponent, which is only feasible for small blocks; the default block
is a 34-bit prime so that differences of 32-bit values never wrap, and in
that configuration only the zero test is available.
"""

from __future__ import annotations

import math

from ..errors import DecryptionFailure, InvalidOptions, MessageOutOfRange, NotFound
from ..numtheory import (
    RandomSource,
    brute_force_dlog,
    find_prime,
    gen_prime,
    is_probable_prime,
    rand_coprime,
)
from ..value import Value

# Smallest prime above 2^33: differences of 32-bit messages cannot wrap.
DEFAULT_BLOCK_SIZE = 8589934609

# Exhaustive-search decryption is refused above this block size.
FULL_DECRYPT_LIMIT = 1 << 20

_KEYGEN_TRIES = 200_000


class BenalohPublicKey(Value, frozen=True):
    SCHEME = "benaloh"
    FILE_FIELDS = (("y", "y", int), ("r", "r", int), ("n", "n", int))

    y: int
    r: int
    n: int

    @property
    def cipher_modulus(self) -> int:
        return self.n


class BenalohKeyPair(Value, frozen=True):
    SCHEME = "benaloh"
    FILE_FIELDS = ((None, "public", BenalohPublicKey), ("p", "p", int), ("q", "q", int),
                   ("x", "x", int))

    public: BenalohPublicKey
    p: int
    q: int
    x: int

    @property
    def phi(self) -> int:
        return (self.p - 1) * (self.q - 1)

    def violations(self) -> list[str]:
        """Why p, q and x are not a decryption key for the public key."""
        p, q, x = self.p, self.q, self.x
        y, r, n = self.public.y, self.public.r, self.public.n
        if p * q != n or min(p, q, r) < 2:
            return ["p * q is not n, or r < 2"]
        try:
            _check_block(r, p, q)
        except InvalidOptions as exc:
            return [str(exc)]
        # modulo q, y^(phi/r) is 1 by Fermat, since (p - 1) / r is whole;
        # modulo p, its exponent reduces to (p - 1) / r * ((q - 1) mod r)
        e = (p - 1) // r * ((q - 1) % r)
        if not 1 < x < n or x % q != 1 or x % p != pow(y, e, p):
            return ["x is not y^(phi/r) modulo n, or is 1"]
        return []


KEY_CLASSES = (BenalohPublicKey, BenalohKeyPair)


def _check_block(r: int, p: int, q: int) -> None:
    if (p - 1) % r:
        raise InvalidOptions("block size must divide p - 1")
    if math.gcd(r, (p - 1) // r) != 1:
        raise InvalidOptions("block size must be coprime to (p - 1) / r")
    if math.gcd(r, q - 1) != 1:
        raise InvalidOptions("block size must be coprime to q - 1")


def keygen(bits: int, rng: RandomSource, r: int = DEFAULT_BLOCK_SIZE,
           p: int | None = None, q: int | None = None) -> BenalohKeyPair:
    if r < 2 or not is_probable_prime(r):
        raise InvalidOptions(f"block size must be a prime >= 2, got {r}")
    half = bits // 2
    if p is None:
        # k range making p = r*k + 1 exactly `half` bits
        k_lo = ((1 << (half - 1)) + r - 1) // r
        k_hi = ((1 << half) - 2) // r
        if k_hi - k_lo < 2:
            raise InvalidOptions(
                f"{bits}-bit modulus is too small for a {r.bit_length()}-bit block")

        def candidate():
            k = rng.randrange(k_lo, k_hi + 1)
            return r * k + 1 if k % r else None

        p = find_prime(candidate, half, rng, _KEYGEN_TRIES)
        if p is None:
            raise InvalidOptions(
                f"no prime p with r | p - 1 found within {_KEYGEN_TRIES} tries")
    if q is None:
        while True:
            q = gen_prime(bits - half, rng)
            if q != p and q % r != 1:
                break
    _check_block(r, p, q)
    n = p * q
    phi = (p - 1) * (q - 1)
    for _ in range(_KEYGEN_TRIES):
        y = rand_coprime(n, rng)
        x = pow(y, phi // r, n)
        if x != 1:
            # r prime and x != 1 force x to have order exactly r
            return BenalohKeyPair(BenalohPublicKey(y, r, n), p, q, x)
    raise InvalidOptions("could not find a generator y with y^(phi/r) != 1")


def encode(pub: BenalohPublicKey, m: int) -> int:
    """y^m mod n, the factor of an encryption of m that draws no randomness."""
    if not 0 <= m < pub.r:
        raise MessageOutOfRange(f"message must lie in [0, r), got {m}")
    return pow(pub.y, m, pub.n)


def encrypt(keys, m: int, rng: RandomSource) -> int:
    pub = getattr(keys, "public", keys)
    ym = encode(pub, m)
    u = rand_coprime(pub.n, rng)
    return ym * pow(u, pub.r, pub.n) % pub.n


def decrypt(keys: BenalohKeyPair, c: int) -> int:
    r = keys.public.r
    if r > FULL_DECRYPT_LIMIT:
        raise DecryptionFailure(
            f"block size {r} exceeds the exhaustive-decryption limit "
            f"{FULL_DECRYPT_LIMIT}; use the zero test instead")
    n = keys.public.n
    if not 0 < c < n:
        raise DecryptionFailure("ciphertext outside Z*_n")
    a = pow(c, keys.phi // r, n)
    try:
        return brute_force_dlog(keys.x, a, n, r)
    except NotFound:
        raise DecryptionFailure("no exponent matches; ciphertext is malformed") from None


def is_zero(keys: BenalohKeyPair, c: int) -> bool:
    """Whether c^(phi/r) is 1 modulo n, that is c = y^m u^r with m = 0 mod r,
    tested modulo p.  Modulo q that power is 1 for every c prime to q,
    since r divides p - 1; modulo p it is c^((p-1)/r) raised to q - 1,
    which is prime to r, so it is 1 exactly when c^((p-1)/r) is."""
    p = keys.p
    return c % keys.q != 0 and pow(c, (p - 1) // keys.public.r, p) == 1


def message_modulus(keys) -> int:
    pub = getattr(keys, "public", keys)
    return pub.r

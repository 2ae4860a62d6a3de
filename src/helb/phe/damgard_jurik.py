"""Damgard-Jurik cryptosystem: Paillier generalized to message space Z_{n^s}.

Ciphertexts live in Z*_{n^(s+1)}, and s = 1 is Paillier.  This module
holds only the key format, (n, g, s) public and (lambda, d) private with
d = 1 mod n^s and d = 0 mod lam, and key generation.  Encoding, encryption,
decryption and the zero test are the arithmetic modulo n^(s+1) of
:mod:`helb.phe.paillier`, so a Damgard-Jurik key loads both modules.
Decryption raises a ciphertext to lam and multiplies the extracted
exponent by mu = d / lam, the inverse of lam modulo n^s, instead of
raising it to d, an exponent about s*|n| bits longer.
"""

from __future__ import annotations

import functools

from ..errors import InvalidModulus, InvalidOptions
from ..numtheory import PrimePowerCrt, RandomSource
from ..value import Value
from .paillier import (_extract_exponent, _generate, decrypt, encode, encrypt,
                       is_zero, message_modulus)

MAX_S = 4


class DamgardJurikPublicKey(Value, frozen=True):
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


class DamgardJurikKeyPair(Value, frozen=True):
    SCHEME = "damgard_jurik"
    FILE_FIELDS = ((None, "public", DamgardJurikPublicKey), ("lambda", "lam", int),
                   ("d", "d", int))

    public: DamgardJurikPublicKey
    lam: int
    d: int

    @property
    def mu(self) -> int:
        """lam^-1 mod n^s, for a key whose `violations()` are empty."""
        return self.d // self.lam

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
    n, lam, mu = _generate(bits, rng, s, p, q)
    return DamgardJurikKeyPair(DamgardJurikPublicKey(n, n + 1, s), lam, lam * mu)

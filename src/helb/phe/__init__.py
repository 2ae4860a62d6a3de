"""Partially homomorphic schemes behind one capability interface.

Five additive schemes (add, subtract, scalar multiply) and one bitwise-XOR
scheme are dispatched by :class:`SchemeId`.  Keys are immutable dataclasses
with a ``public`` part; each key class names its scheme in ``SCHEME`` and
its key-file fields in ``FILE_FIELDS`` (see :mod:`helb.serial`).
Ciphertexts are :class:`PheCiphertext` values whose payload is a single
group element, or a tuple of per-bit elements for Goldwasser-Micali; each
element is a unit modulo ``cipher_modulus`` of the public key.

The group law is written once, here: a sum, difference or scalar multiple
of additive ciphertexts, and the XOR of Goldwasser-Micali ones (element by
element), is a product, inverse or power modulo ``cipher_modulus``.  A
scheme's module exports only ``KEY_CLASSES``, ``keygen``, ``encrypt``,
``decrypt``, ``is_zero`` and ``message_modulus`` (Goldwasser-Micali also
its ``DEFAULT_WIDTH``), and is imported on first use, so a process loads
only the schemes whose keys it handles.

A key holder's Paillier or Damgard-Jurik ciphertext holds a
:class:`~helb.numtheory.CrtElement`, which ``int()`` turns into that
element; the group law hands it to its own ``combine``, ``invert`` and
``scale``, so its residue modulo q^(s+1) is computed only when read.  A
stored record subtracted under such a key pair is inverted the same way,
by ``PrimePowerCrt.inverse``.
"""

from __future__ import annotations

import enum
import importlib
from dataclasses import dataclass

from ..errors import CapabilityUnsupported, InvalidOptions, SchemeMismatch, WidthMismatch
from ..numtheory import CrtElement as _CrtElement, RandomSource, rand_coprime
from ..numtheory import mod_inv as _mod_inv


class SchemeId(str, enum.Enum):
    PAILLIER = "paillier"
    DAMGARD_JURIK = "damgard_jurik"
    OKAMOTO_UCHIYAMA = "okamoto_uchiyama"
    BENALOH = "benaloh"
    NACCACHE_STERN = "naccache_stern"
    GOLDWASSER_MICALI = "goldwasser_micali"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


ADDITIVE_CAPS = frozenset({"add", "sub", "scalar_mul"})
XOR_CAPS = frozenset({"xor"})

CAPABILITIES: dict[SchemeId, frozenset[str]] = {
    SchemeId.PAILLIER: ADDITIVE_CAPS,
    SchemeId.DAMGARD_JURIK: ADDITIVE_CAPS,
    SchemeId.OKAMOTO_UCHIYAMA: ADDITIVE_CAPS,
    SchemeId.BENALOH: ADDITIVE_CAPS,
    SchemeId.NACCACHE_STERN: ADDITIVE_CAPS,
    SchemeId.GOLDWASSER_MICALI: XOR_CAPS,
}


def _module(scheme: SchemeId):
    """The module of `scheme`, named after its value; imported on first use."""
    return importlib.import_module(f"{__name__}.{scheme.value}")


MIN_CRYPTO_BITS = 512
MIN_TEST_BITS = 16


@dataclass(frozen=True)
class PheCiphertext:
    scheme: SchemeId
    payload: int | tuple[int, ...]

    @property
    def width(self) -> int | None:
        """Bit width for bitwise payloads, None for single-element ones."""
        if isinstance(self.payload, tuple):
            return len(self.payload)
        return None


def scheme_of(keys) -> SchemeId:
    """SchemeId of a key pair or public key object."""
    try:
        return SchemeId(getattr(keys, "SCHEME", None))
    except ValueError:
        raise SchemeMismatch(f"not a scheme key object: {type(keys).__name__}") from None


def public_part(keys):
    return getattr(keys, "public", keys)


def key_classes(scheme: SchemeId) -> tuple[type, type]:
    """(public key class, key pair class) of `scheme`."""
    return _module(SchemeId(scheme)).KEY_CLASSES


def keygen(scheme: SchemeId, security_bits: int, rng: RandomSource, *,
           test_mode: bool = False, **opts):
    """Generate a key pair for `scheme`.

    Production keys need at least 512-bit moduli and a cryptographic rng;
    `test_mode` lowers the floor to 16 bits and permits seeded rngs (and
    scheme-specific overrides such as forced primes).
    """
    scheme = SchemeId(scheme)
    if test_mode:
        if security_bits < MIN_TEST_BITS:
            raise InvalidOptions(
                f"security_bits must be >= {MIN_TEST_BITS} in test mode")
    else:
        if security_bits < MIN_CRYPTO_BITS:
            raise InvalidOptions(
                f"security_bits must be >= {MIN_CRYPTO_BITS}; "
                "pass test_mode=True for toy keys")
        if rng.is_seeded:
            raise InvalidOptions(
                "seeded randomness is refused for key generation "
                "unless test_mode is set")
    return _module(scheme).keygen(security_bits, rng, **opts)


def encrypt(keys, m: int, rng: RandomSource, *, width: int | None = None) -> PheCiphertext:
    """Encrypt `m` under the public part of `keys`.

    The scheme module gets `keys` as given: Paillier and Damgard-Jurik
    encrypt by CRT under a key pair, to a `CrtElement` of the same value.
    """
    scheme = scheme_of(keys)
    mod = _module(scheme)
    if scheme is SchemeId.GOLDWASSER_MICALI:
        if width is None:
            width = mod.DEFAULT_WIDTH
        payload = mod.encrypt(keys, m, rng, width)
    else:
        if width is not None:
            raise InvalidOptions("width applies only to Goldwasser-Micali")
        payload = mod.encrypt(keys, m, rng)
    return PheCiphertext(scheme, payload)


def _require_pair(keys) -> None:
    if not hasattr(keys, "public"):
        raise SchemeMismatch("this operation needs the full key pair, "
                             "not just the public key")


def decrypt(keys, ct: PheCiphertext) -> int:
    scheme = scheme_of(keys)
    _require_pair(keys)
    if scheme is not ct.scheme:
        raise SchemeMismatch(f"{scheme} keys cannot decrypt a {ct.scheme} ciphertext")
    return _module(scheme).decrypt(keys, ct.payload)


def _require(scheme: SchemeId, cap: str) -> None:
    if cap not in CAPABILITIES[scheme]:
        raise CapabilityUnsupported(f"{scheme} does not support {cap}")


def _check_pair(keys, ct1: PheCiphertext, ct2: PheCiphertext) -> SchemeId:
    scheme = scheme_of(keys)
    if ct1.scheme is not scheme or ct2.scheme is not scheme:
        raise SchemeMismatch("ciphertexts do not match the key scheme")
    return scheme


def _mul(a, b, modulus: int):
    """a * b mod `modulus`; a key holder's `CrtElement` operand multiplies
    itself, so that its residue mod q^(s+1) stays deferred."""
    if isinstance(b, _CrtElement):
        a, b = b, a
    return a.combine(b) if isinstance(a, _CrtElement) else a * b % modulus


def add_encrypted(keys, ct1: PheCiphertext, ct2: PheCiphertext) -> PheCiphertext:
    """Ciphertext of m1 + m2 (mod the scheme's message modulus)."""
    scheme = _check_pair(keys, ct1, ct2)
    _require(scheme, "add")
    modulus = public_part(keys).cipher_modulus
    return PheCiphertext(scheme, _mul(ct1.payload, ct2.payload, modulus))


def sub_encrypted(keys, ct1: PheCiphertext, ct2: PheCiphertext) -> PheCiphertext:
    """Ciphertext of m1 - m2, via the group inverse of ct2; raises
    NotInvertible when ct2 is not a unit modulo the cipher modulus.  A key
    pair with a `crt` inverts an integer ct2 modulo p^(s+1) only, and
    defers its residue mod q^(s+1)."""
    scheme = _check_pair(keys, ct1, ct2)
    _require(scheme, "sub")
    modulus, b = public_part(keys).cipher_modulus, ct2.payload
    if isinstance(b, _CrtElement):
        b = b.invert()
    elif hasattr(keys, "crt"):
        b = keys.crt.inverse(b)
    else:
        b = _mod_inv(b, modulus)
    return PheCiphertext(scheme, _mul(ct1.payload, b, modulus))


def scalar_mul(keys, ct: PheCiphertext, k: int) -> PheCiphertext:
    """Ciphertext of k * m."""
    scheme = scheme_of(keys)
    if ct.scheme is not scheme:
        raise SchemeMismatch("ciphertext does not match the key scheme")
    _require(scheme, "scalar_mul")
    a = ct.payload
    return PheCiphertext(scheme, a.scale(k) if isinstance(a, _CrtElement)
                         else pow(a, k, public_part(keys).cipher_modulus))


def xor_encrypted(keys, ct1: PheCiphertext, ct2: PheCiphertext) -> PheCiphertext:
    """Bitwise XOR of two equal-width Goldwasser-Micali ciphertexts."""
    scheme = _check_pair(keys, ct1, ct2)
    _require(scheme, "xor")
    if ct1.width != ct2.width:
        raise WidthMismatch(f"widths differ: {ct1.width} vs {ct2.width}")
    modulus = public_part(keys).cipher_modulus
    return PheCiphertext(scheme, tuple(
        a * b % modulus for a, b in zip(ct1.payload, ct2.payload)))


def is_zero(keys, ct: PheCiphertext) -> bool:
    """True iff the ciphertext decrypts to zero.

    Uses per-scheme shortcuts where full decryption would be wasteful or
    infeasible (Benaloh order test, Goldwasser-Micali residue test,
    Paillier and Damgard-Jurik residue tests modulo p^(s+1) and q^(s+1)).
    """
    scheme = scheme_of(keys)
    _require_pair(keys)
    if ct.scheme is not scheme:
        raise SchemeMismatch("ciphertext does not match the key scheme")
    return _module(scheme).is_zero(keys, ct.payload)


def message_modulus(keys) -> int | None:
    """Modulus of the additive message space, or None when not a single value."""
    return _module(scheme_of(keys)).message_modulus(keys)


def blinding_factor(keys, rng: RandomSource) -> int:
    """Fresh unit of the message space, suitable for :func:`blind`.

    Only sound for schemes whose message space is a single modulus, since
    multiplying by a unit must map zero, and only zero, to zero.
    """
    scheme = scheme_of(keys)
    _require(scheme, "scalar_mul")
    modulus = _module(scheme).message_modulus(keys)
    if modulus is None:
        raise CapabilityUnsupported(
            f"{scheme} has no single message modulus; blinding would not "
            "preserve the zero test")
    return rand_coprime(modulus, rng)


def blind(keys, ct: PheCiphertext, rng: RandomSource) -> PheCiphertext:
    """Randomize a difference ciphertext before a zero test.

    Multiplies the plaintext by a fresh unit, so a zero stays zero while a
    non-zero difference decrypts to an unrelated value.
    """
    return scalar_mul(keys, ct, blinding_factor(keys, rng))

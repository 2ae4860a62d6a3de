"""Partially homomorphic schemes behind one interface.

Five additive schemes (add, subtract, scalar multiply) and one bitwise-XOR
scheme, Goldwasser-Micali, are dispatched by :class:`SchemeId`.  Keys are
immutable dataclasses with a ``public`` part; each key class names its
scheme in ``SCHEME`` and its key-file fields in ``FILE_FIELDS`` (see
:mod:`helb.serial`).  A ciphertext is its group element, a unit modulo
``cipher_modulus`` of the public key: an ``int``, or for Goldwasser-Micali
a tuple of per-bit ones, ``GM_WIDTH`` of them unless ``encrypt`` is given
another width.  It carries no scheme tag, so the key decides the scheme:
Goldwasser-Micali only XORs, the other schemes only add, subtract and
scale, and any other operation raises ``CapabilityUnsupported``.

The group law is written once, here: a sum, difference or scalar multiple
of additive ciphertexts, and the XOR of Goldwasser-Micali ones (element by
element), is a product, inverse or power modulo ``cipher_modulus``.  A
scheme's module exports only ``KEY_CLASSES``, ``keygen``, ``encrypt``,
``decrypt``, ``is_zero`` and ``message_modulus``, and is imported on first
use, so a process loads only the schemes whose keys it handles.  Paillier
is Damgard-Jurik at s = 1: the Damgard-Jurik module keeps its key format
and takes its operations from the Paillier module, which it loads.

A key holder's Paillier or Damgard-Jurik ciphertext is a
:class:`~helb.numtheory.CrtElement`, which ``int()`` turns into the same
element; the group law hands it to its own ``combine``, ``invert`` and
``scale``, so its residue modulo q^(s+1) is computed only when read.  A
stored record subtracted under such a key pair is inverted the same way,
by ``PrimePowerCrt.inverse``.
"""

from __future__ import annotations

import enum
import importlib

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


def _module(scheme: SchemeId):
    """The module of `scheme`, named after its value; imported on first use."""
    return importlib.import_module(f"{__name__}.{scheme.value}")


MIN_CRYPTO_BITS = 512
MIN_TEST_BITS = 16
# the bits of a Goldwasser-Micali ciphertext, unless `encrypt` is given a width
GM_WIDTH = 32


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


def encrypt(keys, m: int, rng: RandomSource, *, width: int | None = None):
    """Encrypt `m` under the public part of `keys`.

    The scheme module gets `keys` as given: Paillier and Damgard-Jurik
    encrypt by CRT under a key pair, to a `CrtElement` of the same value.
    """
    scheme = scheme_of(keys)
    mod = _module(scheme)
    if scheme is SchemeId.GOLDWASSER_MICALI:
        return mod.encrypt(keys, m, rng, GM_WIDTH if width is None else width)
    if width is not None:
        raise InvalidOptions("width applies only to Goldwasser-Micali")
    return mod.encrypt(keys, m, rng)


def _holder(keys):
    """The scheme module of a key pair; a public key alone cannot decrypt."""
    mod = _module(scheme_of(keys))
    if not hasattr(keys, "public"):
        raise SchemeMismatch("this operation needs the full key pair, "
                             "not just the public key")
    return mod


def decrypt(keys, ct) -> int:
    return _holder(keys).decrypt(keys, ct)


def _modulus(keys, op: str) -> int:
    """The cipher modulus of `keys`, whose scheme must support `op`:
    Goldwasser-Micali only "xor", the additive schemes all but "xor"."""
    scheme = scheme_of(keys)
    if (op == "xor") is not (scheme is SchemeId.GOLDWASSER_MICALI):
        raise CapabilityUnsupported(f"{scheme} does not support {op}")
    return public_part(keys).cipher_modulus


def _mul(a, b, modulus: int):
    """a * b mod `modulus`; a key holder's `CrtElement` operand multiplies
    itself, so that its residue mod q^(s+1) stays deferred."""
    if isinstance(b, _CrtElement):
        a, b = b, a
    return a.combine(b) if isinstance(a, _CrtElement) else a * b % modulus


def add_encrypted(keys, ct1, ct2):
    """Ciphertext of m1 + m2 (mod the scheme's message modulus)."""
    return _mul(ct1, ct2, _modulus(keys, "add"))


def sub_encrypted(keys, ct1, ct2):
    """Ciphertext of m1 - m2, via the group inverse of ct2; raises
    NotInvertible when ct2 is not a unit modulo the cipher modulus.  A key
    pair with a `crt` inverts an integer ct2 modulo p^(s+1) only, and
    defers its residue mod q^(s+1)."""
    modulus = _modulus(keys, "sub")
    if isinstance(ct2, _CrtElement):
        ct2 = ct2.invert()
    elif hasattr(keys, "crt"):
        ct2 = keys.crt.inverse(ct2)
    else:
        ct2 = _mod_inv(ct2, modulus)
    return _mul(ct1, ct2, modulus)


def scalar_mul(keys, ct, k: int):
    """Ciphertext of k * m."""
    modulus = _modulus(keys, "scalar_mul")
    return ct.scale(k) if isinstance(ct, _CrtElement) else pow(ct, k, modulus)


def xor_encrypted(keys, ct1: tuple[int, ...], ct2: tuple[int, ...]) -> tuple[int, ...]:
    """Bitwise XOR of two equal-width Goldwasser-Micali ciphertexts."""
    modulus = _modulus(keys, "xor")
    if len(ct1) != len(ct2):
        raise WidthMismatch(f"widths differ: {len(ct1)} vs {len(ct2)}")
    return tuple(a * b % modulus for a, b in zip(ct1, ct2))


def is_zero(keys, ct) -> bool:
    """True iff the ciphertext decrypts to zero.

    Uses per-scheme shortcuts where full decryption would be wasteful or
    infeasible (Benaloh order test, Goldwasser-Micali residue test,
    Paillier and Damgard-Jurik residue tests modulo p^(s+1) and q^(s+1)).
    """
    return _holder(keys).is_zero(keys, ct)


def message_modulus(keys) -> int | None:
    """Modulus of the additive message space, or None when not a single value."""
    return _module(scheme_of(keys)).message_modulus(keys)


def blind(keys, ct, rng: RandomSource):
    """Randomize a difference ciphertext before a zero test.

    Multiplies the plaintext by a fresh unit of the message space, so a
    zero stays zero while a non-zero difference decrypts to an unrelated
    value.  Only sound for schemes whose message space is a single
    modulus, since multiplying by a unit must map zero, and only zero, to
    zero.
    """
    modulus = message_modulus(keys)
    if modulus is None:
        raise CapabilityUnsupported(
            f"{scheme_of(keys)} has no single message modulus; blinding would "
            "not preserve the zero test")
    return scalar_mul(keys, ct, rand_coprime(modulus, rng))

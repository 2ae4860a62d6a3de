"""IPv4/CIDR handling, encrypted blacklist stores, and the match engine.

Addresses are plain 32-bit integers (big-endian octet packing, validated
at parse time).  A store groups ciphertexts of masked network addresses by
prefix length.  `match` masks the target with each group's subnet mask,
encrypts it once per group, combines it with every stored record and
zero-tests the result.  The store's scheme picks the combination:
subtraction for the additive schemes and the lattice backend, XOR of all
`GM_WIDTH` bits for Goldwasser-Micali.  A packed lattice record holds up to
ring_dim networks, and its zero coefficients mark the matching ones.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from . import bfv, phe
from .errors import (
    DecryptionFailure,
    HelbError,
    InvalidAddress,
    InvalidOptions,
    InvalidPrefix,
    MessageOutOfRange,
    SchemeMismatch,
)
from .numtheory import RandomSource
from .phe import SchemeId

BFV_SCHEME = "bfv"
GM_WIDTH = phe.goldwasser_micali.DEFAULT_WIDTH
_GM = SchemeId.GOLDWASSER_MICALI.value
_MAX_ADDR = 0xFFFFFFFF


def parse_ipv4(text: str) -> int:
    """Dotted-quad string to a 32-bit integer, first octet most significant."""
    try:
        return int(ipaddress.IPv4Address(text))
    except ipaddress.AddressValueError as exc:
        raise InvalidAddress(f"invalid IPv4 address {text!r}: {exc}") from None


def format_ipv4(value: int) -> str:
    if not 0 <= value <= _MAX_ADDR:
        raise InvalidAddress(f"address value out of range: {value}")
    return str(ipaddress.IPv4Address(value))


def prefix_to_mask(prefix_len: int) -> int:
    """Subnet mask with the top `prefix_len` bits set."""
    if not 0 <= prefix_len <= 32:
        raise InvalidPrefix(f"prefix length must be in [0, 32], got {prefix_len}")
    return (_MAX_ADDR << (32 - prefix_len)) & _MAX_ADDR


@dataclass(frozen=True)
class CidrEntry:
    """A network in CIDR form, normalized so host bits are clear."""

    network: int
    prefix_len: int
    host_bits_cleared: bool = field(default=False, compare=False)


def parse_cidr(text: str) -> CidrEntry:
    """Parse "a.b.c.d/p", masking away any set host bits (flagged, not fatal)."""
    addr, sep, prefix = text.strip().partition("/")
    if not sep:
        raise InvalidPrefix(f"missing '/prefix' in {text!r}")
    value = parse_ipv4(addr)
    try:
        prefix_len = int(prefix)
    except ValueError:
        raise InvalidPrefix(f"prefix is not an integer in {text!r}") from None
    masked = value & prefix_to_mask(prefix_len)
    return CidrEntry(masked, prefix_len, masked != value)


def load_cidr_file(path) -> list[CidrEntry]:
    """Read one CIDR per line; '#' starts a comment, blank lines are skipped."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                entries.append(parse_cidr(line))
            except HelbError as exc:
                raise type(exc)(f"{path}: line {lineno}: {exc}") from None
    return entries


@dataclass
class EncryptedStore:
    """Encrypted blacklist grouped by prefix length.

    Unpacked groups hold (entry_id, ciphertext) pairs; packed groups hold
    (start_id, fill_count, ciphertext) with up to ring_dim networks in one
    ciphertext's coefficients.  Prefix lengths and group sizes are public.
    `pub` is the public key the store was built under; it is not part of
    the serialized form (stores and keys travel in separate files).
    """

    scheme: str
    groups: dict[int, list]
    packed: bool = False
    meta: dict = field(default_factory=dict)
    pub: object | None = None

    @property
    def entry_count(self) -> int:
        if self.packed:
            return sum(fill for g in self.groups.values() for _, fill, _ in g)
        return sum(len(g) for g in self.groups.values())


@dataclass
class MatchResult:
    matched: bool
    entry_id: int | None = None
    differences: dict[int, int | None] | None = None
    stats: dict = field(default_factory=dict)


# packed coefficients that carry no entry hold this plaintext value, which
# no masked 32-bit address can collide with
def _pad_value(params: bfv.BfvParams) -> int:
    return params.plaintext_mod - 1


def _store_scheme_of(keys) -> str:
    if isinstance(keys, (bfv.BfvKeyPair, bfv.BfvPublicKey)):
        return BFV_SCHEME
    return phe.scheme_of(keys).value


def _require_bfv_fits_addresses(params: bfv.BfvParams) -> None:
    if params.plaintext_mod <= _MAX_ADDR + 1:
        raise MessageOutOfRange(
            "plaintext modulus must exceed 2^32 so masked addresses and the "
            "padding value are distinct residues")


def build_store(entries, keys, rng: RandomSource, *,
                packed: bool = False) -> EncryptedStore:
    """Mask, deduplicate, group and encrypt a CIDR list under `keys`."""
    if not entries:
        raise InvalidOptions("cannot build a store from an empty blacklist")
    scheme = _store_scheme_of(keys)
    if packed and scheme != BFV_SCHEME:
        raise InvalidOptions("packed stores require the lattice backend")

    seen = set()
    cleaned: dict[int, list[int]] = {}
    duplicates = 0
    normalized = 0
    for entry in entries:
        masked = entry.network & prefix_to_mask(entry.prefix_len)
        if masked != entry.network or entry.host_bits_cleared:
            normalized += 1
        key = (masked, entry.prefix_len)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        cleaned.setdefault(entry.prefix_len, []).append(masked)

    # one ciphertext per `size` networks: ring_dim when packed, else one
    if scheme == BFV_SCHEME:
        params = keys.params
        _require_bfv_fits_addresses(params)
        size = params.ring_dim if packed else 1
        pad = [_pad_value(params)]

        def encrypt(chunk):
            coeffs = chunk + pad * (size - len(chunk))
            return bfv.encrypt(keys, bfv.encode(coeffs, params), params, rng)
    else:
        size = 1

        def encrypt(chunk):
            return phe.encrypt(keys, chunk[0], rng)

    groups: dict[int, list] = {}
    next_id = 0
    for prefix_len, values in cleaned.items():
        group = groups[prefix_len] = []
        for i in range(0, len(values), size):
            chunk = values[i:i + size]
            ct = encrypt(chunk)
            group.append((next_id, len(chunk), ct) if packed else (next_id, ct))
            next_id += len(chunk)

    meta = {"duplicates_removed": duplicates, "entries_normalized": normalized}
    pub = keys.public if hasattr(keys, "public") else keys
    return EncryptedStore(scheme, groups, packed, meta, pub)


def _check_store_keys(store: EncryptedStore, keys) -> None:
    scheme = _store_scheme_of(keys)
    if scheme != store.scheme:
        raise SchemeMismatch(
            f"store was built for {store.scheme}, keys are {scheme}")
    if not hasattr(keys, "public"):
        raise SchemeMismatch("matching needs the full key pair, not just the "
                             "public key")
    # stores loaded from disk carry no key material (pub is None)
    if store.pub is not None and store.pub != keys.public:
        raise SchemeMismatch("store was built under a different public key")


def _debug_decrypt(keys, diff) -> int | None:
    try:
        return phe.decrypt(keys, diff)
    except DecryptionFailure:
        return None


def _hooks(store: EncryptedStore, keys, rng: RandomSource, *, blind: bool,
           debug: bool):
    """The two steps in which the backends differ.

    `encrypt(masked)` encrypts a group's masked target.  `test(target,
    record)` combines it with one stored record, zero-tests the result, and
    returns (matching slot offsets, decrypted difference or None).  The
    offsets are () or (0,) for a one-entry record, any of range(fill) for a
    packed one.
    """
    if blind and store.scheme in (BFV_SCHEME, _GM):
        raise InvalidOptions("blinding is only available for the additive schemes")
    if store.scheme == BFV_SCHEME:
        params = keys.params
        width = params.ring_dim if store.packed else 1

        def encrypt(masked):
            return bfv.encrypt(keys, bfv.encode([masked] * width, params),
                               params, rng)

        def test(target, record):
            diff = bfv.eval_sub(target, record[-1])
            coeffs = bfv.decrypt(keys, diff, params).coeffs
            if store.packed:
                return [slot for slot in range(record[1]) if coeffs[slot] == 0], None
            return (() if any(coeffs) else (0,)), coeffs[0]

        return encrypt, test

    def encrypt(masked):
        return phe.encrypt(keys, masked, rng)

    def test(target, record):
        if store.scheme == _GM:
            diff = phe.xor_encrypted(keys, target, record[-1])
        else:
            diff = phe.sub_encrypted(keys, target, record[-1])
            if blind:
                diff = phe.scalar_mul(keys, diff, phe.blinding_factor(keys, rng))
        offsets = (0,) if phe.is_zero(keys, diff) else ()
        return offsets, _debug_decrypt(keys, diff) if debug else None

    return encrypt, test


def match(ip: int, store: EncryptedStore, keys, rng: RandomSource, *,
          exhaustive: bool = False, blind: bool = False,
          debug: bool = False) -> MatchResult:
    """Test `ip` against `store` under the key pair `keys`.

    Scans prefix groups longest first and records in insertion order; the
    first match wins, and `exhaustive` only keeps the scan going to the end.
    `blind` multiplies each difference by a fresh unit before the zero test
    (additive schemes only).  `debug` reports each record's decrypted
    difference by entry id; packed records, which hold many entries, report
    none.
    """
    _check_store_keys(store, keys)
    encrypt, test = _hooks(store, keys, rng, blind=blind, debug=debug)
    op = "xor_calls" if store.scheme == _GM else "sub_calls"
    stats = {"encryptions": 0, op: 0, "zero_tests": 0}
    differences = {} if debug and not store.packed else None
    matched_id = None
    for prefix_len in sorted(store.groups, reverse=True):
        target = encrypt(ip & prefix_to_mask(prefix_len))
        stats["encryptions"] += 1
        for record in store.groups[prefix_len]:
            offsets, difference = test(target, record)
            stats[op] += 1
            stats["zero_tests"] += 1
            if differences is not None:
                differences[record[0]] = difference
            if offsets and matched_id is None:
                matched_id = record[0] + offsets[0]
                if not exhaustive:
                    return MatchResult(True, matched_id, differences, stats)
    return MatchResult(matched_id is not None, matched_id, differences, stats)

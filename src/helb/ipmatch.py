"""IPv4/CIDR handling, encrypted blacklist stores, and the match engine.

Addresses are plain 32-bit integers (big-endian octet packing, validated
at parse time).  A store groups ciphertexts of masked network addresses by
prefix length.  Every record is a ciphertext with its slot runs, which
`slot_layout` derives from the network count of each prefix length: one
slot for a PHE or unpacked lattice record, up to ring_dim networks of any
prefix lengths for a packed lattice record, longest prefix first.
`match` encrypts the target masked for each slot's prefix once per slot
layout, combines it with every stored record and zero-tests the filled
slots; the first zero slot marks the longest matching network.  The
store's scheme picks the combination: subtraction for the additive
schemes and the lattice backend, XOR of all `GM_WIDTH` bits for
Goldwasser-Micali.
"""

from __future__ import annotations

import ipaddress
import time
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

BFV_SCHEME = bfv.BfvPublicKey.SCHEME
# Goldwasser-Micali encrypts an address bit by bit, at its default width
GM_WIDTH = 32
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

    Every record is (runs, ciphertext).  `runs` lays out the ciphertext's
    slots as (prefix length, first entry id, count) triples, as
    `slot_layout` cuts them, and a record sits in the group of its first
    slot's prefix.  A PHE or unpacked lattice record holds one network,
    `((prefix length, entry id, 1),)`; a packed one up to ring_dim networks
    in its coefficients.  Prefix lengths and group sizes are public.  `pub` is
    the public key the store was built under; a store file carries only
    its fingerprint (stores and keys travel in separate files).
    """

    scheme: str
    groups: dict[int, list]
    packed: bool = False
    meta: dict = field(default_factory=dict)
    pub: object | None = None

    def prefix_counts(self) -> dict[int, int]:
        """Number of networks per prefix length, in entry-id order."""
        counts: dict[int, int] = {}
        runs = [run for records in self.groups.values()
                for record_runs, _ in records for run in record_runs]
        for prefix_len, _, count in sorted(runs, key=lambda run: run[1]):
            counts[prefix_len] = counts.get(prefix_len, 0) + count
        return counts

    @property
    def entry_count(self) -> int:
        return sum(self.prefix_counts().values())


@dataclass
class MatchResult:
    matched: bool
    entry_id: int | None = None
    differences: dict[int, int | None] | None = None
    stats: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)


# packed coefficients that carry no entry hold this plaintext value, which
# no masked 32-bit address can collide with
def _pad_value(params: bfv.BfvParams) -> int:
    return params.plaintext_mod - 1


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
    scheme = keys.SCHEME
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
    pub = phe.public_part(keys)
    if scheme == BFV_SCHEME:
        params = keys.params
        _require_bfv_fits_addresses(params)
        size = params.ring_dim if packed else 1
        pad = [_pad_value(params)]

        # under the public key, so that a store is the same from either key file
        def encrypt(chunk):
            coeffs = chunk + pad * (size - len(chunk))
            return bfv.encrypt(pub, bfv.encode(coeffs, params), params, rng)
    else:
        size = 1

        def encrypt(chunk):
            return phe.encrypt(keys, chunk[0], rng)

    # entry ids count networks prefix by prefix in first-appearance order
    values = [value for group in cleaned.values() for value in group]
    groups: dict[int, list] = {}
    for runs in slot_layout([(p, len(group)) for p, group in cleaned.items()], size):
        chunk = [value for _, first_id, count in runs
                 for value in values[first_id:first_id + count]]
        groups.setdefault(runs[0][0], []).append((runs, encrypt(chunk)))

    meta = {"duplicates_removed": duplicates, "entries_normalized": normalized}
    return EncryptedStore(scheme, groups, packed, meta, pub)


def slot_layout(counts, size: int) -> list[tuple[tuple[int, int, int], ...]]:
    """The (prefix length, first entry id, count) runs of each record.

    `counts` holds (prefix length, network count) pairs with distinct
    prefix lengths, in entry-id order: the ids count networks prefix by
    prefix, in that order.  Slots run longest prefix first, ids ascending
    within a prefix, so the first zero slot of a scan marks the longest
    covering network; every `size` slots make one record.
    """
    first_ids, next_id = {}, 0
    for prefix_len, count in counts:
        first_ids[prefix_len] = next_id
        next_id += count
    records, runs, fill = [], [], 0
    for prefix_len, count in sorted(counts, reverse=True):
        first_id = first_ids[prefix_len]
        while count:
            take = min(count, size - fill)
            runs.append((prefix_len, first_id, take))
            first_id, count, fill = first_id + take, count - take, fill + take
            if fill == size:
                records.append(tuple(runs))
                runs, fill = [], 0
    if runs:
        records.append(tuple(runs))
    return records


def _entry_id(runs, slot: int) -> int:
    """Entry id of a record's slot, counted through its runs."""
    for _, first_id, count in runs:
        if slot < count:
            return first_id + slot
        slot -= count


def _check_store_keys(store: EncryptedStore, keys) -> None:
    if keys.SCHEME != store.scheme:
        raise SchemeMismatch(
            f"store was built for {store.scheme}, keys are {keys.SCHEME}")
    if not hasattr(keys, "public"):
        raise SchemeMismatch("matching needs the full key pair, not just the "
                             "public key")
    if store.pub != keys.public:
        raise SchemeMismatch("store was built under a different public key")


def _debug_decrypt(keys, diff) -> int | None:
    try:
        return phe.decrypt(keys, diff)
    except DecryptionFailure:
        return None


def _hooks(ip: int, store: EncryptedStore, keys, rng: RandomSource, *,
           blind: bool, debug: bool):
    """The three steps in which the backends differ.

    `encrypt(layout)` encrypts the target masked for each slot of a record
    layout ((prefix length, count), ...).  `combine(target, ct)` subtracts
    (or XORs) one stored ciphertext from it, blinded when asked.
    `test(diff, fill)` zero-tests the first `fill` slots of the difference
    and returns (first zero slot or None, decrypted difference of slot 0
    or None).  A PHE ciphertext has the one slot 0.
    """
    if blind and store.scheme in (BFV_SCHEME, _GM):
        raise InvalidOptions("blinding is only available for the additive schemes")
    if store.scheme == BFV_SCHEME:
        params = keys.params

        def encrypt(layout):
            values = []
            for prefix_len, count in layout:
                values += [ip & prefix_to_mask(prefix_len)] * count
            return bfv.encrypt(keys, bfv.encode(values, params), params, rng)

        def test(diff, fill):
            coeffs = bfv.decrypt(keys, diff, params).coeffs
            try:
                return coeffs.index(0, 0, fill), coeffs[0]
            except ValueError:
                return None, coeffs[0]

        return encrypt, bfv.eval_sub, test

    def encrypt(layout):
        (prefix_len, _), = layout
        return phe.encrypt(keys, ip & prefix_to_mask(prefix_len), rng)

    def combine(target, ct):
        if store.scheme == _GM:
            return phe.xor_encrypted(keys, target, ct)
        diff = phe.sub_encrypted(keys, target, ct)
        if blind:
            diff = phe.blind(keys, diff, rng)
        return diff

    def test(diff, fill):
        slot = 0 if phe.is_zero(keys, diff) else None
        return slot, _debug_decrypt(keys, diff) if debug else None

    return encrypt, combine, test


def match(ip: int, store: EncryptedStore, keys, rng: RandomSource, *,
          exhaustive: bool = False, blind: bool = False,
          debug: bool = False) -> MatchResult:
    """Test `ip` against `store` under the key pair `keys`.

    Scans prefix groups longest first and records in insertion order, and
    encrypts a new query only when a record's slot layout differs from the
    record's before it: once per slot layout, which for one-network
    records is once per group.  The first match wins, and `exhaustive`
    only keeps the scan going to the end.  `blind` multiplies each
    difference by a fresh unit before the zero test (additive schemes
    only).  `debug` reports each record's decrypted difference by entry
    id; packed records, which hold many entries, report none.  `seconds`
    holds the wall time of each phase: query encryption, the homomorphic
    operation (with blinding) and the zero test (with `debug`'s
    decryption).
    """
    _check_store_keys(store, keys)
    encrypt, combine, test = _hooks(ip, store, keys, rng, blind=blind, debug=debug)
    op = "xor_calls" if store.scheme == _GM else "sub_calls"
    stats = {"encryptions": 0, op: 0, "zero_tests": 0}
    seconds = dict.fromkeys(("encrypt", "combine", "zero_test"), 0.0)
    differences = {} if debug and not store.packed else None
    matched_id = query = target = None
    for prefix_len in sorted(store.groups, reverse=True):
        for runs, ct in store.groups[prefix_len]:
            layout = tuple((p, count) for p, _, count in runs)
            t0 = time.perf_counter()
            if layout != query:
                query, target = layout, encrypt(layout)
                fill = sum(count for _, count in layout)
                stats["encryptions"] += 1
            t1 = time.perf_counter()
            diff = combine(target, ct)
            t2 = time.perf_counter()
            slot, difference = test(diff, fill)
            t3 = time.perf_counter()
            seconds["encrypt"] += t1 - t0
            seconds["combine"] += t2 - t1
            seconds["zero_test"] += t3 - t2
            stats[op] += 1
            stats["zero_tests"] += 1
            if differences is not None:
                differences[runs[0][1]] = difference
            if slot is not None and matched_id is None:
                matched_id = _entry_id(runs, slot)
                if not exhaustive:
                    return MatchResult(True, matched_id, differences, stats, seconds)
    return MatchResult(matched_id is not None, matched_id, differences, stats,
                       seconds)

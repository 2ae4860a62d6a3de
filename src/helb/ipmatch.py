"""IPv4/CIDR handling, encrypted blacklist stores, and the match engine.

Addresses are plain 32-bit integers (big-endian octet packing, validated
at parse time), and a network is a (network, prefix length) pair with
its host bits clear.  A store holds the network count of each prefix
length and its records, ciphertexts of masked network addresses in scan
order.
`slot_layout` derives every record's slot runs from those counts: one
slot for a PHE or unpacked lattice record, up to ring_dim networks of any
prefix lengths for a packed lattice record, longest prefix first.  A PHE
record is its bare group element, an int (a tuple of ints for
Goldwasser-Micali), and a lattice record a `bfv.BfvCiphertext`.
`match` encrypts zero once per lookup, and derives from it the query of
each slot layout, the target masked for each slot's prefix, by adding
those masked values as a known plaintext through the group law; it
combines the query with every stored record and zero-tests the filled
slots; the first zero slot marks the longest matching network.

Everything in which the backends differ lives in one record handler per
family, which `record_handler` picks from the key's scheme: how a record
is sealed, its layout as file integers (`serial` writes and reads records
through it), the encryption of zero and the queries derived from it, the
combination (subtraction for the additive schemes and the lattice
backend, XOR of all `phe.GM_WIDTH` bits for Goldwasser-Micali) and the
zero test.  Without a seed, `match` and `build_store` spread their
records over forked worker processes, one per usable CPU (`_spread`, on
the workers of `pool.forked`).
"""

from __future__ import annotations

import contextlib
import time

from . import bfv, phe, pool
from .errors import (
    DecryptionFailure,
    FormatError,
    HelbError,
    InvalidAddress,
    InvalidOptions,
    InvalidPrefix,
    MessageOutOfRange,
    SchemeMismatch,
)
from .numtheory import RandomSource
from .phe import SchemeId
from .value import Value

BFV_SCHEME = bfv.BfvPublicKey.SCHEME
# every backend's name: the lattice backend first, then the PHE schemes
SCHEMES = (BFV_SCHEME, *(scheme.value for scheme in SchemeId))
_MAX_ADDR = 0xFFFFFFFF

# the text of each octet value as `ipaddress.IPv4Address` reads it: ASCII
# decimal digits up to 255, without a leading zero
_OCTETS = {str(value): value for value in range(256)}


def parse_ipv4(text: str) -> int:
    """Dotted-quad string to a 32-bit integer, first octet most significant.
    Reads exactly the strings that `ipaddress.IPv4Address` reads."""
    try:
        a, b, c, d = text.split(".")
        return _OCTETS[a] << 24 | _OCTETS[b] << 16 | _OCTETS[c] << 8 | _OCTETS[d]
    except (KeyError, ValueError):
        raise InvalidAddress(f"invalid IPv4 address {text!r}") from None


def prefix_to_mask(prefix_len: int) -> int:
    """Subnet mask with the top `prefix_len` bits set."""
    if not 0 <= prefix_len <= 32:
        raise InvalidPrefix(f"prefix length must be in [0, 32], got {prefix_len}")
    return (_MAX_ADDR << (32 - prefix_len)) & _MAX_ADDR


def parse_cidr(text: str) -> tuple[int, int]:
    """Parse "a.b.c.d/p" to (network, p), masking away any set host bits."""
    addr, sep, prefix = text.strip().partition("/")
    if not sep:
        raise InvalidPrefix(f"missing '/prefix' in {text!r}")
    value = parse_ipv4(addr)
    try:
        # ASCII digits only, as `ipaddress` reads it: int() alone also takes
        # a sign, spaces, underscores and the digits of other scripts
        if not (prefix.isascii() and prefix.isdigit()):
            raise ValueError(prefix)
        prefix_len = int(prefix)  # raises past int()'s digit limit
    except ValueError:
        raise InvalidPrefix(f"prefix is not an integer in {text!r}") from None
    return value & prefix_to_mask(prefix_len), prefix_len


def load_cidr_file(path) -> list[tuple[int, int]]:
    """Read one CIDR per line; '#' starts a comment, blank lines are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: CIDR file is not UTF-8 text") from None
    entries = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.append(parse_cidr(line))
        except HelbError as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from None
    return entries


class EncryptedStore(Value):
    """An encrypted blacklist, as its store file holds it: the public key
    `pub` it was built under (the file carries only its fingerprint), the
    header's (prefix length, network count) pairs `counts` in entry-id
    order, and the `records`, bare ciphertexts in scan order.  `layout()`
    derives each record's slot runs from `counts`: up to ring_dim networks
    in a packed lattice record, one in any other.
    """

    pub: object
    counts: list[tuple[int, int]]
    records: list
    packed: bool = False

    @property
    def entry_count(self) -> int:
        return sum(count for _, count in self.counts)

    def layout(self) -> list[tuple[tuple[int, int, int], ...]]:
        """The (prefix length, first entry id, count) runs of each record."""
        return slot_layout(self.counts, record_handler(self.pub, self.packed).slots)

    @property
    def groups(self) -> dict[int, list]:
        """A read-only view of `records`: {first slot's prefix length: [ct]}."""
        groups: dict[int, list] = {}
        for runs, ct in zip(self.layout(), self.records):
            groups.setdefault(runs[0][0], []).append(ct)
        return groups


class MatchResult(Value):
    matched: bool
    entry_id: int | None
    differences: dict[int, int | None] | None
    stats: dict
    seconds: dict


def build_store(entries, keys, rng: RandomSource, *,
                packed: bool = False) -> EncryptedStore:
    """Mask, deduplicate, group and encrypt (network, prefix length) pairs
    under `keys`."""
    if not entries:
        raise InvalidOptions("cannot build a store from an empty blacklist")
    handler = record_handler(keys, packed)

    seen = set()
    cleaned: dict[int, list[int]] = {}
    for network, prefix_len in entries:
        masked = network & prefix_to_mask(prefix_len)
        if (masked, prefix_len) not in seen:
            seen.add((masked, prefix_len))
            cleaned.setdefault(prefix_len, []).append(masked)

    # entry ids count networks prefix by prefix in first-appearance order
    values = [value for group in cleaned.values() for value in group]
    counts = [(p, len(group)) for p, group in cleaned.items()]
    chunks = [[value for _, first_id, count in runs
               for value in values[first_id:first_id + count]]
              for runs in slot_layout(counts, handler.slots)]
    getattr(keys, "crt", None)  # built once here, not once per worker
    with _spread(lambda chunk: handler.seal(chunk, rng), chunks,
                 [1] * len(chunks), rng) as cts:
        records = list(cts)
    return EncryptedStore(phe.public_part(keys), counts, records, packed)


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
    if keys.SCHEME != store.pub.SCHEME:
        raise SchemeMismatch(
            f"store was built for {store.pub.SCHEME}, keys are {keys.SCHEME}")
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


class _LatticeRecords:
    """A BFV ciphertext of `slots` networks, in its plaintext coefficients;
    a coefficient with no network holds plaintext_mod - 1, which no masked
    32-bit address equals.  Its file values are the coefficients of c0,
    then of c1."""

    op = "sub"
    low = 0

    def __init__(self, keys, packed: bool, blind: bool, debug: bool):
        if blind:
            raise InvalidOptions("blinding is only available for the additive "
                                 "PHE schemes")
        self.keys, self.params = keys, keys.params
        if self.params.plaintext_mod <= _MAX_ADDR + 1:
            raise MessageOutOfRange(
                "plaintext modulus must exceed 2^32 so masked addresses and the "
                "padding value are distinct residues")
        self.slots = self.params.ring_dim if packed else 1
        self.width = 2 * self.params.ring_dim
        self.modulus = self.params.ciphertext_mod

    def seal(self, values: list[int], rng: RandomSource):
        # under the public key, so that a store is the same from either key file
        coeffs = values + [self.params.plaintext_mod - 1] * (self.slots - len(values))
        return bfv.encrypt(phe.public_part(self.keys),
                           bfv.encode(coeffs, self.params), self.params, rng)

    def values(self, ct) -> tuple[int, ...]:
        return ct.c0 + ct.c1

    def record(self, values: list[int]):
        n = self.params.ring_dim
        return bfv.BfvCiphertext(tuple(values[:n]), tuple(values[n:]), self.params)

    def zero(self, rng: RandomSource):
        return bfv.encrypt(self.keys, bfv.encode((), self.params), self.params, rng)

    def query(self, zero, ip: int, layout):
        values = []
        for prefix_len, count in layout:
            values += [ip & prefix_to_mask(prefix_len)] * count
        return bfv.add_plain(zero, bfv.encode(values, self.params))

    def combine(self, target, ct, rng: RandomSource):
        return bfv.eval_sub(target, ct)

    def test(self, diff, fill: int):
        coeffs = bfv.decrypt(self.keys, diff, self.params)
        try:
            return coeffs.index(0, 0, fill), coeffs[0]
        except ValueError:
            return None, coeffs[0]


class _PheRecords:
    """A PHE ciphertext of one network is its bare group element: an int,
    its one file value, or Goldwasser-Micali's tuple of `phe.GM_WIDTH`
    per-bit ints, its file values.  `seal` turns a key holder's Paillier
    or Damgard-Jurik `CrtElement` into the int that the public key gives
    for the same randomness."""

    slots = 1
    low = 1

    def __init__(self, keys, packed: bool, blind: bool, debug: bool):
        if packed:
            raise InvalidOptions("packed stores require the lattice backend")
        self.scheme = phe.scheme_of(keys)
        # a unit multiple keeps zero, and only zero, under one message modulus
        if blind and phe.message_modulus(keys) is None:
            raise InvalidOptions("blinding is only available for the additive "
                                 "schemes with one message modulus, not "
                                 f"{self.scheme.value}")
        self.keys, self.blind, self.debug = keys, blind, debug
        xor = self.scheme is SchemeId.GOLDWASSER_MICALI
        self.op = "xor" if xor else "sub"
        self.width = phe.GM_WIDTH if xor else 1
        self.modulus = phe.public_part(keys).cipher_modulus

    def seal(self, values: list[int], rng: RandomSource):
        # a key pair's CrtElement crosses a worker's pipe as its integer
        return self.record(self.values(phe.encrypt(self.keys, values[0], rng)))

    def values(self, ct) -> tuple[int, ...]:
        # int(): a key holder's ciphertext may still defer half of its residues
        return ct if isinstance(ct, tuple) else (int(ct),)

    def record(self, values: list[int]):
        return values[0] if self.width == 1 else tuple(values)

    def zero(self, rng: RandomSource):
        return phe.encrypt(self.keys, 0, rng)

    def query(self, zero, ip: int, layout):
        (prefix_len, _), = layout
        shift = phe.xor_encrypted if self.op == "xor" else phe.add_encrypted
        return shift(self.keys, zero,
                     phe.encode(self.keys, ip & prefix_to_mask(prefix_len)))

    def combine(self, target, ct, rng: RandomSource):
        if self.op == "xor":
            return phe.xor_encrypted(self.keys, target, ct)
        diff = phe.sub_encrypted(self.keys, target, ct)
        return phe.blind(self.keys, diff, rng) if self.blind else diff

    def test(self, diff, fill: int):
        slot = 0 if phe.is_zero(self.keys, diff) else None
        return slot, _debug_decrypt(self.keys, diff) if self.debug else None


def record_handler(keys, packed: bool = False, *, blind: bool = False,
                   debug: bool = False):
    """How the backend of `keys`, a key pair or a public key, handles the
    records of a store, packed or not.

    A record holds `slots` networks in `width` file values, each in
    [`low`, `modulus`): a `bfv.BfvCiphertext`, or a PHE group element (an
    int, or a tuple of ints for Goldwasser-Micali).  `seal(values, rng)`
    encrypts one to what the public key gives; `values(ct)` and
    `record(values)` turn it into its file values and back.  A lookup
    encrypts `zero(rng)`, an encryption of 0 by the key holder, once, and
    derives from it `query(zero, ip, layout)` for each record layout
    ((prefix length, count), ...): the same ciphertext that encrypting the
    layout's masked addresses would give with the zero's draws.  Then for
    each record it `combine`s (`op`: "sub", blinded when asked, or "xor")
    and `test`s: (first zero of the first `fill` slots or None, slot 0's
    difference or None).
    Refuses `packed` or `blind`, before any encryption, where the backend
    cannot do them.
    """
    family = _LatticeRecords if keys.SCHEME == BFV_SCHEME else _PheRecords
    return family(keys, packed, blind, debug)


def match(ip: int, store: EncryptedStore, keys, rng: RandomSource, *,
          exhaustive: bool = False, blind: bool = False,
          debug: bool = False) -> MatchResult:
    """Test `ip` against `store` under the key pair `keys`.

    Scans the records in store order, longest prefix first, cut
    into batches of consecutive records that share a slot layout.  The
    lookup encrypts zero once, before any worker starts, and each batch
    derives its query from that ciphertext, so `stats["encryptions"]` is
    1; the store's `record_handler` does each step.  The first match wins,
    and `exhaustive` only keeps the scan going to the end.  `blind`
    multiplies each difference by a fresh unit before the zero test
    (additive schemes of one message modulus only).  `debug` reports each
    record's decrypted difference by entry id; packed records, which hold
    many entries, report none.  `seconds` holds the time spent in each
    phase, summed over the batches scanned up to the answer: the query
    (the encryption of zero, and each batch's derivation), the
    homomorphic operation (with blinding) and the zero test (with
    `debug`'s decryption).  Batches go to worker processes as `_spread`
    decides, so `seconds` may exceed the wall time, while `stats` still
    counts the sequential scan up to the answer.
    """
    _check_store_keys(store, keys)
    handler = record_handler(keys, store.packed, blind=blind, debug=debug)
    debug_entries = debug and not store.packed

    def scan(batch):
        """(entry id of the first zero slot or None, records scanned,
        seconds per phase, differences by entry id) of one batch."""
        layout, records = batch
        fill = sum(count for _, count in layout)
        t0 = time.perf_counter()
        target = handler.query(zero, ip, layout)
        seconds = {"encrypt": time.perf_counter() - t0, "combine": 0.0,
                   "zero_test": 0.0}
        found, scanned, differences = None, 0, {}
        for runs, ct in records:
            t1 = time.perf_counter()
            diff = handler.combine(target, ct, rng)
            t2 = time.perf_counter()
            slot, difference = handler.test(diff, fill)
            seconds["combine"] += t2 - t1
            seconds["zero_test"] += time.perf_counter() - t2
            scanned += 1
            if debug_entries:
                differences[runs[0][1]] = difference
            if slot is not None and found is None:
                found = _entry_id(runs, slot)
                if not exhaustive:
                    break
        return found, scanned, seconds, differences

    batches = []  # (slot layout, (runs, ct) of each record)
    for runs, ct in zip(store.layout(), store.records):
        layout = tuple((p, count) for p, _, count in runs)
        if not batches or batches[-1][0] != layout:
            batches.append((layout, []))
        batches[-1][1].append((runs, ct))
    # once, before `_spread` forks: this also builds the key pair's `crt`
    # or `packed_secret` for every worker
    t0 = time.perf_counter()
    zero = handler.zero(rng)
    seconds = {"encrypt": time.perf_counter() - t0, "combine": 0.0,
               "zero_test": 0.0}

    op = f"{handler.op}_calls"
    stats = {"encryptions": 1, op: 0, "zero_tests": 0}
    differences = {} if debug_entries else None
    matched_id = None
    with _spread(scan, batches, [len(records) for _, records in batches],
                 rng) as outcomes:
        for found, scanned, batch_seconds, batch_differences in outcomes:
            stats[op] += scanned
            stats["zero_tests"] += scanned
            for phase, spent in batch_seconds.items():
                seconds[phase] += spent
            if differences is not None:
                differences.update(batch_differences)
            if found is not None and matched_id is None:
                matched_id = found
                if not exhaustive:
                    break
    return MatchResult(matched_id is not None, matched_id, differences, stats,
                       seconds)


# ---------------------------------------------------------------------------
# worker processes


@contextlib.contextmanager
def _spread(run, jobs: list, costs: list[int], rng: RandomSource):
    """Yields an iterator of run(job) for every job, in job order.

    Seeded randomness, a platform without `os.fork`, one job or one usable
    CPU run the jobs in this process, lazily, so that a consumer that
    stops early skips the rest.  Otherwise one forked worker per usable CPU
    (at most one per job) takes jobs in order, each to the worker with the
    least cost so far (`pool.forked`).  An error raised by a job is raised
    again here when its turn comes, and a worker that ends without a job's
    result raises HelbError then.  On leaving the context, however it is
    left, every worker is killed and reaped.
    """
    count = 1 if rng.is_seeded else pool.worker_count(len(jobs))
    if count < 2:
        yield map(run, jobs)
        return
    owner, load = [], [0] * count
    for cost in costs:
        owner.append(load.index(min(load)))
        load[owner[-1]] += cost
    shares = [[job for job, w in zip(jobs, owner) if w == worker]
              for worker in range(count)]
    with pool.forked(run, shares) as workers:
        yield (workers[w].receive(f"job {index}") for index, w in enumerate(owner))

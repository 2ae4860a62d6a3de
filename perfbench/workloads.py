"""Seeded inputs and the plaintext oracle of the HELB benchmark.

Standard library only: nothing here imports `helb`, so the oracle that
checks every verdict is independent of the code it checks.

A CIDR list is a list of `(network, prefix_len)` pairs, deduplicated and
ordered by prefix length, longest first.  `helb match` scans longest
prefixes first and numbers entries in file order, so the expected
`entry_id` of a hit is the position of the longest covering network in
the list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Prefix-length mix in parts per thousand.  It spans /8 to /32 and is
# weighted toward /24 and /32; short prefixes are rare, so almost all of the
# IPv4 space stays unlisted.  The weights are assumed, not taken from a
# published blocklist: the repository holds no list to derive them from.
# They set the group sizes, the scan positions and the number of distinct
# prefix lengths, and with them every per-lookup count.  The mix is
# applied as fixed quotas (see `quotas`), so every seed gives a store of the
# same shape and only the addresses change: scan positions, and with them
# the per-lookup counts, repeat exactly from seed to seed.
PREFIX_MIX = {
    32: 369, 30: 20, 28: 30, 27: 30, 26: 40, 25: 40, 24: 300,
    23: 30, 22: 40, 20: 40, 18: 20, 16: 30, 12: 10, 8: 1,
}

# The `helb keygen --seed` value of every run.  Prime search time varies
# about fivefold from one key seed to the next at 2048 bits, so a key seed
# taken from the run seed would swamp any change to key generation; with
# one fixed key seed every keygen does the same work.
KEYGEN_SEED = 1

_MAX_ADDR = 0xFFFFFFFF


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a key type, a list size and a store layout."""

    name: str
    keygen_args: tuple[str, ...]
    networks: int
    packed: bool


# The unpacked BFV store (one n = 4096 ciphertext per network) is not a
# workload: a lookup takes 2 to 4 s and varies by 15 % from one process to
# the next on a shared host, so the four or so lookups of each kind that fit
# in a run left its medians spread by 15 % to 35 % over ten seeds.
WORKLOADS = {
    w.name: w
    for w in (
        # the paper's PHE baseline
        Workload("paillier-2048", ("--scheme", "paillier", "--bits", "2048"),
                 24, False),
        # up to 4096 networks per ciphertext, one ciphertext per prefix length
        Workload("bfv-packed", ("--scheme", "bfv", "--profile", "desk"),
                 4096, True),
    )
}


def prefix_mask(prefix_len: int) -> int:
    return (_MAX_ADDR << (32 - prefix_len)) & _MAX_ADDR


def format_ipv4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def quotas(count: int) -> dict[int, int]:
    """Networks per prefix length for a list of `count` networks.

    Every length of the mix gets one network; the rest are shared out by
    weight, largest remainder first.  Ordered longest prefix first.
    """
    if count < len(PREFIX_MIX):
        raise ValueError(f"a list needs at least {len(PREFIX_MIX)} networks, "
                         f"got {count}")
    spare = count - len(PREFIX_MIX)
    total = sum(PREFIX_MIX.values())
    out = {p: 1 + spare * w // total for p, w in PREFIX_MIX.items()}
    by_remainder = sorted(PREFIX_MIX, key=lambda p: (
        -(spare * PREFIX_MIX[p] % total), -PREFIX_MIX[p], -p))
    for p in by_remainder[:count - sum(out.values())]:
        out[p] += 1
    return dict(sorted(out.items(), reverse=True))


def make_list(count: int, seed: int) -> list[tuple[int, int]]:
    """A deduplicated CIDR list of `count` networks, longest prefix first.

    It depends on the seed and the size only, so two workloads of the same
    size and seed list the same networks.
    """
    rng = random.Random(f"helb-list:{seed}:{count}")
    out = []
    seen = set()
    for prefix_len, quota in quotas(count).items():
        made = 0
        while made < quota:
            net = rng.getrandbits(32) & prefix_mask(prefix_len)
            if (net, prefix_len) in seen:
                continue
            seen.add((net, prefix_len))
            out.append((net, prefix_len))
            made += 1
    return out


def cidr_text(networks) -> str:
    return "".join(f"{format_ipv4(net)}/{p}\n" for net, p in networks)


class Oracle:
    """Plaintext answer to "which listed network covers this address?"."""

    def __init__(self, networks):
        self._tables: dict[int, dict[int, int]] = {}
        for index, (net, prefix_len) in enumerate(networks):
            self._tables.setdefault(prefix_len, {}).setdefault(net, index)
        self._order = sorted(self._tables, reverse=True)

    def lookup(self, ip: int) -> int | None:
        """List position of the longest covering network, or None."""
        for prefix_len in self._order:
            index = self._tables[prefix_len].get(ip & prefix_mask(prefix_len))
            if index is not None:
                return index
        return None


def hit_position(count: int) -> int:
    """The list position every hit targets: the middle of the scan order.

    The cost of an early-exit hit grows with its scan position, so a hit
    mid-scan is the median hit of a network chosen uniformly from the list;
    fixing the position keeps its cost, and its counts, the same on every
    seed.
    """
    return count // 2


@dataclass(frozen=True)
class Lookup:
    ip: int
    expected: int | None  # entry id of the longest covering network

    @property
    def is_hit(self) -> bool:
        return self.expected is not None


class LookupStream:
    """Rounds of lookups: each round is one address that no network covers,
    then a fresh address inside the network at `hit_position`.  The even
    split of hits and misses is assumed, not a measured traffic mix."""

    def __init__(self, networks, seed: int):
        self._networks = list(networks)
        self._oracle = Oracle(self._networks)
        self._position = hit_position(len(self._networks))
        self._rng = random.Random(f"helb-lookups:{seed}:{len(self._networks)}")

    def _hit(self, position: int) -> Lookup:
        net, prefix_len = self._networks[position]
        for _ in range(10_000):
            ip = net | self._rng.getrandbits(32 - prefix_len)
            if self._oracle.lookup(ip) == position:
                return Lookup(ip, position)
        raise ValueError(f"network {position} is covered by longer prefixes")

    def _miss(self) -> Lookup:
        while True:
            ip = self._rng.getrandbits(32)
            if self._oracle.lookup(ip) is None:
                return Lookup(ip, None)

    def next_round(self) -> list[Lookup]:
        return [self._miss(), self._hit(self._position)]

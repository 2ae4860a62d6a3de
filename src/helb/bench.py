"""Benchmark harness: per-scheme timing rows and store-scale timing rows.

Each scheme row times three phases of one IP match on the real lookup
path: key generation; encryption of both operands, which is the build of
a one-network store plus the query encryption of one `ipmatch.match` of
it; and that match's homomorphic operation plus zero test.  The scale benchmark
times building an encrypted store of N random networks and one exhaustive
search of it.

Absolute numbers depend entirely on the host.  They are comparable only
between runs on identical hardware and are not reproduction targets for
figures measured on other machines; every run therefore prints host
metadata alongside the rows.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass

from . import bfv, ipmatch, phe, pool
from .errors import InvalidOptions
from .numtheory import RandomSource
from .phe import SchemeId

ALL_BENCH_SCHEMES = ipmatch.SCHEMES

DEFAULT_SCALE_COUNTS = (50, 100, 200, 400, 800)

NON_COMPARABLE_NOTE = (
    "Timings are wall-clock means on this host only; compare them between "
    "runs on identical hardware. Published figures from other machines are "
    "not comparable baselines, and search_total_s is an exhaustive scan of "
    "the whole store (no early exit)."
)


@dataclass(frozen=True)
class BenchRow:
    scheme: str
    keypair_ms: float
    encrypt_ms: float
    op_decrypt_ms: float
    iterations: int
    keypair_std: float
    encrypt_std: float
    op_decrypt_std: float


@dataclass(frozen=True)
class ScaleRow:
    n_addresses: int
    encrypt_total_s: float
    search_total_s: float


def hardware_metadata() -> dict[str, str]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": str(os.cpu_count() or "unknown"),
        # the CPUs this process may run on bound the worker processes
        "usable_cpus": str(pool._usable_cpus()),
    }


def _bench_iteration(scheme: str, bits: int, rng: RandomSource,
                     test_mode: bool, params: bfv.BfvParams):
    """One timed (keygen_s, encrypt_s, op_decrypt_s) sample: a store of one
    random /24 network, and a lookup of a random address in it."""
    network = rng.getrandbits(32) & ipmatch.prefix_to_mask(24)
    target = rng.getrandbits(32)
    t0 = time.perf_counter()
    if scheme == ipmatch.BFV_SCHEME:
        keys = bfv.keygen(params, rng)
    else:
        keys = phe.keygen(SchemeId(scheme), bits, rng, test_mode=test_mode)
    t1 = time.perf_counter()
    store = ipmatch.build_store([ipmatch.CidrEntry(network, 24)], keys, rng)
    t2 = time.perf_counter()
    seconds = ipmatch.match(target, store, keys, rng).seconds
    return (t1 - t0, t2 - t1 + seconds["encrypt"],
            seconds["combine"] + seconds["zero_test"])


def bench_schemes(schemes=None, *, iterations: int = 3, bits: int = 512,
                  seed: int | None = None,
                  bfv_profile: bfv.BfvParams | None = None) -> list[BenchRow]:
    """Timing rows for the requested schemes (default: all seven backends).

    One warm-up iteration runs first and is excluded from the statistics.
    """
    if iterations < 1:
        raise InvalidOptions("iterations must be >= 1")
    names = list(schemes) if schemes else list(ALL_BENCH_SCHEMES)
    for name in names:
        if name not in ALL_BENCH_SCHEMES:
            raise InvalidOptions(f"unknown scheme {name!r}")
    rng = RandomSource.seeded(seed) if seed is not None else RandomSource.crypto()
    test_mode = seed is not None
    params = bfv_profile or bfv.desk_params()
    rows = []
    for name in names:
        samples = [_bench_iteration(name, bits, rng, test_mode, params)
                   for _ in range(iterations + 1)][1:]  # drop the warm-up
        cols = list(zip(*samples))
        means = [statistics.fmean(c) * 1000 for c in cols]
        stds = [statistics.stdev(c) * 1000 if len(c) > 1 else 0.0 for c in cols]
        rows.append(BenchRow(name, means[0], means[1], means[2],
                             iterations, stds[0], stds[1], stds[2]))
    return rows


def random_cidrs(count: int, rng: RandomSource, *,
                 prefix_len: int | None = 24) -> list[ipmatch.CidrEntry]:
    """`count` distinct random networks; fixed /24 by default, or random
    prefix lengths when prefix_len is None.  Raises InvalidOptions, before
    any draw, when fewer than `count` such networks exist."""
    networks = 2**33 - 1 if prefix_len is None else 2**prefix_len
    if count > networks:
        raise InvalidOptions(f"only {networks} distinct networks exist, "
                             f"{count} were asked for")
    seen = set()
    out = []
    while len(out) < count:
        plen = rng.randrange(0, 33) if prefix_len is None else prefix_len
        network = rng.getrandbits(32) & ipmatch.prefix_to_mask(plen)
        key = (network, plen)
        if key in seen:
            continue
        seen.add(key)
        out.append(ipmatch.CidrEntry(network, plen))
    return out


def bench_scale(counts=None, *, params: bfv.BfvParams | None = None,
                packed: bool = False, seed: int | None = None,
                prefix_len: int | None = 24) -> list[ScaleRow]:
    """Store build time and exhaustive search time for each count.

    The search target is an address inside the last network added, so an
    early-exit scan would have to walk the whole store anyway; the scan is
    run exhaustively regardless.
    """
    counts = DEFAULT_SCALE_COUNTS if counts is None else tuple(counts)
    if not counts:
        raise InvalidOptions("counts must be non-empty")
    params = params or bfv.desk_params()
    rng = RandomSource.seeded(seed) if seed is not None else RandomSource.crypto()
    keys = bfv.keygen(params, rng)
    rows = []
    for count in counts:
        entries = random_cidrs(count, rng, prefix_len=prefix_len)
        t0 = time.perf_counter()
        store = ipmatch.build_store(entries, keys, rng, packed=packed)
        t1 = time.perf_counter()
        target = entries[-1].network
        result = ipmatch.match(target, store, keys, rng, exhaustive=True)
        t2 = time.perf_counter()
        if not result.matched:
            raise AssertionError("scale bench target must match its own entry")
        rows.append(ScaleRow(count, t1 - t0, t2 - t1))
    return rows


# ---------------------------------------------------------------------------
# rendering


_BENCH_FIELDS = ("scheme", "keypair_ms", "encrypt_ms", "op_decrypt_ms",
                 "keypair_std", "encrypt_std", "op_decrypt_std", "iterations")
_SCALE_FIELDS = ("n_addresses", "encrypt_total_s", "search_total_s")


def format_bench_table(rows: list[BenchRow]) -> str:
    header = f"{'scheme':<20} {'keypair_ms':>12} {'encrypt_ms':>12} {'op_decrypt_ms':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row.scheme:<20} {row.keypair_ms:>12.3f} "
                     f"{row.encrypt_ms:>12.3f} {row.op_decrypt_ms:>14.3f}")
    return "\n".join(lines)


def _format_csv(fields: tuple[str, ...], rows) -> str:
    """`rows` as CSV under a header of `fields`: floats with six decimals,
    other values as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    for row in rows:
        values = (getattr(row, field) for field in fields)
        writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in values])
    return buf.getvalue()


format_bench_csv = functools.partial(_format_csv, _BENCH_FIELDS)
format_scale_csv = functools.partial(_format_csv, _SCALE_FIELDS)


def format_bench_json(rows: list[BenchRow], meta: dict[str, str]) -> str:
    """The csv rows and the host metadata, with the note, as one object."""
    return json.dumps({
        "metadata": meta,
        "note": NON_COMPARABLE_NOTE,
        "rows": [{field: getattr(row, field) for field in _BENCH_FIELDS}
                 for row in rows],
    }, indent=2)


def format_scale_table(rows: list[ScaleRow]) -> str:
    header = f"{'n_addresses':>12} {'encrypt_total_s':>16} {'search_total_s':>15}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row.n_addresses:>12} {row.encrypt_total_s:>16.4f} "
                     f"{row.search_total_s:>15.4f}")
    return "\n".join(lines)


def format_metadata(meta: dict[str, str]) -> str:
    return "\n".join(f"# {key}: {value}" for key, value in meta.items())

"""Benchmark harness: per-scheme timing rows and store-scale timing rows.

Each scheme row times three phases of one IP match: key generation,
encryption of the two operands (target and blacklisted network), and the
homomorphic operation plus decryption or zero test.  The scale benchmark
times building an encrypted store of N random networks and one exhaustive
search of it.

Absolute numbers depend entirely on the host.  They are comparable only
between runs on identical hardware and are not reproduction targets for
figures measured on other machines; every run therefore prints host
metadata alongside the rows.
"""

from __future__ import annotations

import csv
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

ALL_BENCH_SCHEMES = (
    "bfv",
    "paillier",
    "damgard_jurik",
    "okamoto_uchiyama",
    "naccache_stern",
    "benaloh",
    "goldwasser_micali",
)

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


def _mask24(value: int) -> int:
    return value & 0xFFFFFF00


def _whole(ct: phe.PheCiphertext) -> phe.PheCiphertext:
    return phe.PheCiphertext(ct.scheme, int(ct.payload))


def _bench_iteration(scheme: str, bits: int, rng: RandomSource,
                     test_mode: bool, params: bfv.BfvParams):
    """One timed (keygen_s, encrypt_s, op_decrypt_s) sample."""
    target = _mask24(rng.getrandbits(32))
    network = _mask24(rng.getrandbits(32))
    if scheme == ipmatch.BFV_SCHEME:
        t0 = time.perf_counter()
        keys = bfv.keygen(params, rng)
        t1 = time.perf_counter()
        ct1 = bfv.encrypt(keys, bfv.encode([target], params), params, rng)
        ct2 = bfv.encrypt(keys, bfv.encode([network], params), params, rng)
        t2 = time.perf_counter()
        diff = bfv.eval_sub(ct1, ct2)
        pt = bfv.decrypt(keys, diff, params)
        _ = not any(pt.coeffs)
        t3 = time.perf_counter()
        return t1 - t0, t2 - t1, t3 - t2
    scheme_id = SchemeId(scheme)
    t0 = time.perf_counter()
    keys = phe.keygen(scheme_id, bits, rng, test_mode=test_mode)
    t1 = time.perf_counter()
    if scheme_id is SchemeId.GOLDWASSER_MICALI:
        ct1 = phe.encrypt(keys, target, rng, width=32)
        ct2 = phe.encrypt(keys, network, rng, width=32)
        t2 = time.perf_counter()
        diff = phe.xor_encrypted(keys, ct1, ct2)
        _ = phe.is_zero(keys, diff)
    else:
        # whole ciphertexts, as a store holds: a key holder's Paillier or
        # Damgard-Jurik encryption defers its residue mod q^(s+1) otherwise
        ct1 = _whole(phe.encrypt(keys, target, rng))
        ct2 = _whole(phe.encrypt(keys, network, rng))
        t2 = time.perf_counter()
        diff = phe.sub_encrypted(keys, ct1, ct2)
        _ = phe.is_zero(keys, diff)
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


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
        if name != ipmatch.BFV_SCHEME:
            try:
                SchemeId(name)
            except ValueError:
                raise InvalidOptions(f"unknown scheme {name!r}") from None
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
    prefix lengths when prefix_len is None."""
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


def format_bench_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_BENCH_FIELDS)
    for row in rows:
        writer.writerow([row.scheme, f"{row.keypair_ms:.6f}",
                         f"{row.encrypt_ms:.6f}", f"{row.op_decrypt_ms:.6f}",
                         f"{row.keypair_std:.6f}", f"{row.encrypt_std:.6f}",
                         f"{row.op_decrypt_std:.6f}", row.iterations])
    return buf.getvalue()


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


def format_scale_csv(rows: list[ScaleRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SCALE_FIELDS)
    for row in rows:
        writer.writerow([row.n_addresses, f"{row.encrypt_total_s:.6f}",
                         f"{row.search_total_s:.6f}"])
    return buf.getvalue()


def format_metadata(meta: dict[str, str]) -> str:
    return "\n".join(f"# {key}: {value}" for key, value in meta.items())

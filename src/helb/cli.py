"""Command-line interface.

Commands: `keygen`, `blacklist encrypt`, `match`, `bench`, `bench scale`.
`match` exits 0 on a match, 1 on no match, and 2 on any error, internal
faults included; all other commands exit 0 on success and 2 on error.
Passing `--seed` anywhere switches to deterministic test mode (small keys
allowed, reproducible randomness, one process); never use seeded keys
outside testing.  Without it, `match` and `blacklist encrypt` spread a
store's records over worker processes (see `ipmatch.match`).
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import bfv, ipmatch, phe, serial
from .errors import HelbError
from .numtheory import RandomSource
from .phe import SchemeId

_SCHEME_NAMES = [s.value for s in SchemeId] + [ipmatch.BFV_SCHEME]


def _rng(seed: int | None) -> RandomSource:
    return RandomSource.seeded(seed) if seed is not None else RandomSource.crypto()


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HelbError as exc:
            _fail(str(exc))
        except OSError as exc:
            _fail(str(exc))
        except Exception as exc:  # an unforeseen fault must not read as a miss
            _fail(f"internal error: {type(exc).__name__}: {exc}")

    return wrapper


@click.group()
@click.version_option(package_name="helb")
def main():
    """Privacy-preserving IPv4 blacklist matching over encrypted stores."""


@main.command()
@click.option("--scheme", type=click.Choice(_SCHEME_NAMES), required=True)
@click.option("--bits", default=2048, show_default=True,
              help="Modulus size for the partially homomorphic schemes.")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Base path; writes <out>.pub and <out>.sec.")
@click.option("--profile", type=click.Choice(sorted(bfv.PROFILES)), default="desk",
              show_default=True, help="Lattice parameter profile (bfv only).")
@click.option("--block-size", type=int, default=None,
              help="Benaloh block size (a prime; decides the message space).")
@click.option("--dj-s", type=int, default=None,
              help="Damgard-Jurik exponent s (message space n^s).")
@click.option("--ns-bits", type=int, default=None,
              help="Naccache-Stern message width in bits.")
@click.option("--seed", type=int, default=None,
              help="Deterministic test mode (never for production keys).")
@_cli_errors
def keygen(scheme, bits, out_path, profile, block_size, dj_s, ns_bits, seed):
    """Generate a key pair and write the public/secret files."""
    rng = _rng(seed)
    given = {"--block-size": (block_size, "benaloh"),
             "--dj-s": (dj_s, "damgard_jurik"),
             "--ns-bits": (ns_bits, "naccache_stern")}
    for flag, (value, wanted) in given.items():
        if value is not None and scheme != wanted:
            _fail(f"{flag} applies only to --scheme {wanted}")
    if scheme == ipmatch.BFV_SCHEME:
        params = bfv.PROFILES[profile]()
        keys = bfv.keygen(params, rng)
    else:
        opts = {}
        if block_size is not None:
            opts["r"] = block_size
        if dj_s is not None:
            opts["s"] = dj_s
        if ns_bits is not None:
            opts["n_bits"] = ns_bits
        keys = phe.keygen(SchemeId(scheme), bits, rng,
                          test_mode=seed is not None, **opts)
    pub_path, sec_path = serial.write_key_files(keys, out_path)
    click.echo(f"wrote {pub_path}")
    click.echo(f"wrote {sec_path}")


@main.group()
def blacklist():
    """Blacklist store operations."""


@blacklist.command("encrypt")
@click.option("--key", "key_path", required=True, type=click.Path(exists=True),
              help="Public (or secret) key file.")
@click.option("--cidr-file", required=True, type=click.Path(exists=True),
              help="One CIDR per line; '#' comments and blank lines ignored.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--packed", is_flag=True,
              help="Pack entries into ring coefficients (bfv only).")
@click.option("--seed", type=int, default=None)
@_cli_errors
def blacklist_encrypt(key_path, cidr_file, out_path, packed, seed):
    """Mask, encrypt and serialize a CIDR blacklist."""
    keys = serial.read_key_file(key_path)
    entries = ipmatch.load_cidr_file(cidr_file)
    store = ipmatch.build_store(entries, keys, _rng(seed), packed=packed)
    serial.write_store(store, out_path)
    dupes = store.meta.get("duplicates_removed", 0)
    click.echo(f"wrote {out_path}: {store.entry_count} entries "
               f"({dupes} duplicates removed)")
    for prefix_len, count in sorted(store.prefix_counts().items(), reverse=True):
        click.echo(f"  /{prefix_len}: {count} entries")


@main.command()
@click.option("--keys", "keys_path", required=True, type=click.Path(exists=True),
              help="Secret key file (matching needs the zero test).")
@click.option("--store", "store_path", required=True, type=click.Path(exists=True))
@click.option("--ip", required=True, help="IPv4 address to test.")
@click.option("--exhaustive", is_flag=True,
              help="Scan every entry instead of stopping at the first match.")
@click.option("--blind", is_flag=True,
              help="Randomize differences before the zero test (additive schemes only).")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.option("--debug", "debug_differences", is_flag=True,
              help="Include per-entry decrypted differences (reveals distances).")
@click.option("--list-kind", type=click.Choice(["blacklist", "whitelist"]),
              default="blacklist", show_default=True,
              help="Label only: whitelist membership uses the same mechanics.")
@click.option("--seed", type=int, default=None)
@_cli_errors
def match(keys_path, store_path, ip, exhaustive, blind, as_json,
          debug_differences, list_kind, seed):
    """Test an address against an encrypted store (exit 0 hit, 1 miss)."""
    keys = serial.read_key_file(keys_path)
    store = serial.read_store(store_path, keys)
    result = ipmatch.match(ipmatch.parse_ipv4(ip), store, keys, _rng(seed),
                           exhaustive=exhaustive, blind=blind,
                           debug=debug_differences)

    if as_json:
        payload = {
            "ip": ip,
            "scheme": store.scheme,
            "protocol": ("xor" if store.scheme == SchemeId.GOLDWASSER_MICALI.value
                         else "sub"),
            "list_kind": list_kind,
            "matched": result.matched,
            "entry_id": result.entry_id,
            "stats": result.stats,
            "seconds": result.seconds,
        }
        if debug_differences:
            payload["differences"] = result.differences
        click.echo(json.dumps(payload, sort_keys=True))
    elif result.matched:
        click.echo(f"MATCH entry={result.entry_id} ({list_kind})")
    else:
        click.echo("NO-MATCH")
    if debug_differences and not as_json and result.differences:
        for entry_id in sorted(result.differences):
            click.echo(f"  entry {entry_id}: diff={result.differences[entry_id]}")
    sys.exit(0 if result.matched else 1)


@main.group(invoke_without_command=True)
@click.option("--schemes", default="all", show_default=True,
              help="Comma-separated scheme names, or 'all'.")
@click.option("--iterations", default=3, show_default=True)
@click.option("--bits", default=512, show_default=True,
              help="Modulus size for the partially homomorphic schemes.")
@click.option("--profile", type=click.Choice(sorted(bfv.PROFILES)), default="desk",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
              default="table", show_default=True,
              help="json: one object with the host metadata and the rows.")
@click.option("--seed", type=int, default=None)
@click.pass_context
@_cli_errors
def bench(ctx, schemes, iterations, bits, profile, fmt, seed):
    """Per-scheme keygen / encrypt / operate+decrypt timings."""
    if ctx.invoked_subcommand is not None:
        return
    from . import bench as bench_mod  # no other command needs it

    names = None if schemes == "all" else [s.strip() for s in schemes.split(",")]
    rows = bench_mod.bench_schemes(names, iterations=iterations, bits=bits,
                                   seed=seed, bfv_profile=bfv.PROFILES[profile]())
    if fmt == "json":
        click.echo(bench_mod.format_bench_json(rows, bench_mod.hardware_metadata()))
        return
    click.echo(bench_mod.format_metadata(bench_mod.hardware_metadata()))
    click.echo(f"# note: {bench_mod.NON_COMPARABLE_NOTE}")
    if fmt == "csv":
        click.echo(bench_mod.format_bench_csv(rows), nl=False)
    else:
        click.echo(bench_mod.format_bench_table(rows))


@bench.command("scale")
@click.option("--counts", default="50,100,200,400,800", show_default=True)
@click.option("--packed", is_flag=True, help="Benchmark the packed store path.")
@click.option("--profile", type=click.Choice(sorted(bfv.PROFILES)), default="desk",
              show_default=True)
@click.option("--random-prefixes", is_flag=True,
              help="Draw random prefix lengths instead of fixed /24.")
@click.option("--format", "fmt", type=click.Choice(["table", "csv"]),
              default="table", show_default=True)
@click.option("--seed", type=int, default=None)
@_cli_errors
def bench_scale(counts, packed, profile, random_prefixes, fmt, seed):
    """Store build time and exhaustive search time over a range of sizes."""
    from . import bench as bench_mod

    try:
        count_list = [int(c) for c in counts.split(",") if c.strip()]
    except ValueError:
        _fail(f"counts must be a comma-separated list of integers: {counts!r}")
    rows = bench_mod.bench_scale(
        count_list, params=bfv.PROFILES[profile](), packed=packed, seed=seed,
        prefix_len=None if random_prefixes else 24)
    click.echo(bench_mod.format_metadata(bench_mod.hardware_metadata()))
    click.echo(f"# note: {bench_mod.NON_COMPARABLE_NOTE}")
    if fmt == "csv":
        click.echo(bench_mod.format_scale_csv(rows), nl=False)
    else:
        click.echo(bench_mod.format_scale_table(rows))


if __name__ == "__main__":  # pragma: no cover
    main()

"""Command-line interface.

Commands: `keygen`, `blacklist encrypt`, `match`, `bench`, `bench scale`.
`match` exits 0 on a match, 1 on no match, and 2 on any error, internal
faults and usage errors included; all other commands exit 0 on success and
2 on error.  `helb --version` prints the version.
Passing `--seed` anywhere switches to deterministic test mode (small keys
allowed, reproducible randomness); never use seeded keys outside testing.
A seeded `match` or `blacklist encrypt` runs in one process; without
`--seed`, they spread a store's records over worker processes (see
`ipmatch.match`).  `keygen` runs the Miller-Rabin rounds of a large prime
search in worker processes either way, but only this process draws from
the stream, so seeded keys do not depend on the number of workers (see
`numtheory._search`).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, bfv, ipmatch, phe, serial
from .errors import HelbError, InvalidOptions
from .numtheory import RandomSource
from .phe import SchemeId

_PROFILES = sorted(bfv.PROFILES)


def _seed(text: str) -> int:
    """A `--seed` value, refused as a usage error (exit 2) unless it is an
    integer in [0, 2^64), the seeds that `RandomSource.seeded` takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer from 0 to 2^64 - 1")
    return seed


def _rng(seed: int | None) -> RandomSource:
    return RandomSource.seeded(seed) if seed is not None else RandomSource.crypto()


def keygen(args) -> int:
    """Generate a key pair and write the public/secret files."""
    rng = _rng(args.seed)
    given = {"--block-size": (args.block_size, "benaloh"),
             "--dj-s": (args.dj_s, "damgard_jurik"),
             "--ns-bits": (args.ns_bits, "naccache_stern")}
    for flag, (value, wanted) in given.items():
        if value is not None and args.scheme != wanted:
            raise InvalidOptions(f"{flag} applies only to --scheme {wanted}")
    if args.scheme == ipmatch.BFV_SCHEME:
        keys = bfv.keygen(bfv.PROFILES[args.profile](), rng)
    else:
        opts = {name: value for name, value in
                (("r", args.block_size), ("s", args.dj_s), ("n_bits", args.ns_bits))
                if value is not None}
        keys = phe.keygen(SchemeId(args.scheme), args.bits, rng,
                          test_mode=args.seed is not None, **opts)
    for path in serial.write_key_files(keys, args.out):
        print(f"wrote {path}")
    return 0


def blacklist_encrypt(args) -> int:
    """Mask, encrypt and serialize a CIDR blacklist."""
    keys = serial.read_key_file(args.key)
    entries = ipmatch.load_cidr_file(args.cidr_file)
    store = ipmatch.build_store(entries, keys, _rng(args.seed), packed=args.packed)
    serial.write_store(store, args.out)
    print(f"wrote {args.out}: {store.entry_count} entries "
          f"({len(entries) - store.entry_count} duplicates removed)")
    for prefix_len, count in sorted(store.counts, reverse=True):
        print(f"  /{prefix_len}: {count} entries")
    return 0


def match(args) -> int:
    """Test an address against an encrypted store (exit 0 hit, 1 miss)."""
    keys = serial.read_key_file(args.keys)
    store = serial.read_store(args.store, keys)
    result = ipmatch.match(ipmatch.parse_ipv4(args.ip), store, keys, _rng(args.seed),
                           exhaustive=args.exhaustive, blind=args.blind,
                           debug=args.debug)
    if args.json:
        payload = {
            "ip": args.ip,
            "scheme": store.pub.SCHEME,
            "protocol": ipmatch.record_handler(keys, store.packed).op,
            "list_kind": args.list_kind,
            "matched": result.matched,
            "entry_id": result.entry_id,
            "stats": result.stats,
            "seconds": result.seconds,
        }
        if args.debug:
            payload["differences"] = result.differences
        print(json.dumps(payload, sort_keys=True))
    elif result.matched:
        print(f"MATCH entry={result.entry_id} ({args.list_kind})")
    else:
        print("NO-MATCH")
    if args.debug and not args.json and result.differences:
        for entry_id in sorted(result.differences):
            print(f"  entry {entry_id}: diff={result.differences[entry_id]}")
    return 0 if result.matched else 1


def bench(args) -> int:
    """Per-scheme keygen / encrypt / operate+decrypt timings."""
    from . import bench as bench_mod  # no other command needs it

    names = (None if args.schemes == "all"
             else [s.strip() for s in args.schemes.split(",")])
    rows = bench_mod.bench_schemes(names, iterations=args.iterations, bits=args.bits,
                                   seed=args.seed,
                                   bfv_profile=bfv.PROFILES[args.profile]())
    if args.format == "json":
        print(bench_mod.format_bench_json(rows, bench_mod.hardware_metadata()))
        return 0
    print(bench_mod.format_metadata(bench_mod.hardware_metadata()))
    print(f"# note: {bench_mod.NON_COMPARABLE_NOTE}")
    if args.format == "csv":
        print(bench_mod.format_bench_csv(rows), end="")
    else:
        print(bench_mod.format_bench_table(rows))
    return 0


def bench_scale(args) -> int:
    """Store build time and exhaustive search time over a range of sizes."""
    from . import bench as bench_mod

    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError:
        raise InvalidOptions("counts must be a comma-separated list of "
                             f"integers: {args.counts!r}") from None
    rows = bench_mod.bench_scale(
        counts, params=bfv.PROFILES[args.profile](), packed=args.packed,
        seed=args.seed, prefix_len=None if args.random_prefixes else 24)
    print(bench_mod.format_metadata(bench_mod.hardware_metadata()))
    print(f"# note: {bench_mod.NON_COMPARABLE_NOTE}")
    if args.format == "csv":
        print(bench_mod.format_scale_csv(rows), end="")
    else:
        print(bench_mod.format_scale_table(rows))
    return 0


def _command(commands, name: str, run) -> argparse.ArgumentParser:
    """A subcommand parser; `run(args)` gives the exit status of `name`."""
    parser = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                 allow_abbrev=False,
                                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.set_defaults(run=run)
    return parser


def _parser(prog_name: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog_name or "helb", allow_abbrev=False,
        description="Privacy-preserving IPv4 blacklist matching over encrypted stores.")
    parser.add_argument("--version", action="version", version=f"helb {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    p = _command(commands, "keygen", keygen)
    p.add_argument("--scheme", choices=ipmatch.SCHEMES, required=True)
    p.add_argument("--bits", type=int, default=2048,
                   help="Modulus size for the partially homomorphic schemes.")
    p.add_argument("--out", required=True,
                   help="Base path; writes <out>.pub and <out>.sec.")
    p.add_argument("--profile", choices=_PROFILES, default="desk",
                   help="Lattice parameter profile (bfv only).")
    p.add_argument("--block-size", type=int,
                   help="Benaloh block size (a prime; decides the message space).")
    p.add_argument("--dj-s", type=int,
                   help="Damgard-Jurik exponent s (message space n^s).")
    p.add_argument("--ns-bits", type=int,
                   help="Naccache-Stern message width in bits.")
    p.add_argument("--seed", type=_seed,
                   help="Deterministic test mode (never for production keys).")

    lists = commands.add_parser("blacklist", help="Blacklist store operations.")
    lists = lists.add_subparsers(metavar="ACTION", required=True)
    p = _command(lists, "encrypt", blacklist_encrypt)
    p.add_argument("--key", required=True, help="Public (or secret) key file.")
    p.add_argument("--cidr-file", required=True,
                   help="One CIDR per line; '#' comments and blank lines ignored.")
    p.add_argument("--out", required=True)
    p.add_argument("--packed", action="store_true",
                   help="Pack entries into ring coefficients (bfv only).")
    p.add_argument("--seed", type=_seed)

    p = _command(commands, "match", match)
    p.add_argument("--keys", required=True,
                   help="Secret key file (matching needs the zero test).")
    p.add_argument("--store", required=True)
    p.add_argument("--ip", required=True, help="IPv4 address to test.")
    p.add_argument("--exhaustive", action="store_true",
                   help="Scan every entry instead of stopping at the first match.")
    p.add_argument("--blind", action="store_true",
                   help="Randomize differences before the zero test "
                        "(additive schemes only).")
    p.add_argument("--json", action="store_true", help="Machine-readable output.")
    p.add_argument("--debug", action="store_true",
                   help="Include per-entry decrypted differences (reveals distances).")
    p.add_argument("--list-kind", choices=["blacklist", "whitelist"],
                   default="blacklist",
                   help="Label only: whitelist membership uses the same mechanics.")
    p.add_argument("--seed", type=_seed)

    p = _command(commands, "bench", bench)
    p.add_argument("--schemes", default="all",
                   help="Comma-separated scheme names, or 'all'.")
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--bits", type=int, default=512,
                   help="Modulus size for the partially homomorphic schemes.")
    p.add_argument("--profile", choices=_PROFILES, default="desk")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="json: one object with the host metadata and the rows.")
    p.add_argument("--seed", type=_seed)
    p = _command(p.add_subparsers(metavar="scale"), "scale", bench_scale)
    p.add_argument("--counts", default="50,100,200,400,800")
    p.add_argument("--packed", action="store_true",
                   help="Benchmark the packed store path.")
    p.add_argument("--profile", choices=_PROFILES, default="desk")
    p.add_argument("--random-prefixes", action="store_true",
                   help="Draw random prefix lengths instead of fixed /24.")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--seed", type=_seed)
    return parser


def main(args=None, prog_name=None):
    """Run one command and end in `SystemExit` with its exit status."""
    parsed = _parser(prog_name).parse_args(args)
    try:
        status = parsed.run(parsed)
    except Exception as exc:  # an unforeseen fault must not read as a miss
        message = (str(exc) if isinstance(exc, (HelbError, OSError))
                   else f"internal error: {type(exc).__name__}: {exc}")
        print(f"error: {message}", file=sys.stderr)
        status = 2
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    main()

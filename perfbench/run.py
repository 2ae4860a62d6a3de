#!/usr/bin/env python3
"""HELB benchmark: key set-up, store build and `helb match` lookups.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives the program only through its command line, from this process,
one command at a time (one client, closed loop).  It runs rounds of
`helb keygen --seed`, `helb blacklist encrypt` of the seeded CIDR list, and
`helb match --json` of one unlisted and one listed address, one process per
command, for about `--seconds` (see `rounds_within`).  `setup_s`, `build_s`
and the lookup latencies are medians of wall times.  Every exit status,
verdict and entry id is checked against the plaintext oracle in
`workloads.py`, and every build's per-prefix entry counts against the list.

With `--trace 1` the same processes run again under `traced_helb.py`, and
single kernels are timed by `kernels.py`; the last line then carries the
per-layer metrics instead of the end-to-end ones.  Each run writes its
samples, metrics and host metadata to `perfbench/out/`, and the spans of a
traced run next to them.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Every run must end well inside 180 s, whatever the program's speed.
RUN_DEADLINE_S = 170
MIN_ROUNDS = 2
STARTUP_SAMPLES = 5
COLD_KERNEL_SAMPLES = 3


class BenchError(Exception):
    """The run cannot produce a result (program missing, set-up failed)."""


@dataclass
class Done:
    status: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


class Runner:
    """Starts one program process at a time and waits for it to end,
    recording its wall time and peak resident memory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        pythonpath = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self._serial = 0

    def run(self, cmd: list[str]) -> Done:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline reached")
        self._serial += 1
        out_path = self.workdir / f"proc{self._serial}.out"
        err_path = self.workdir / f"proc{self._serial}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            reaped = False
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"run deadline reached during {cmd[2:4]}")
        done = Done(proc.returncode, wall, usage.ru_maxrss / 1024,
                    out_path.read_text(errors="replace"),
                    err_path.read_text(errors="replace"))
        out_path.unlink()
        err_path.unlink()
        return done


def rounds_within(seconds: float, min_rounds: int):
    """Round numbers 0, 1, ... of a closed loop that lasts about `seconds`.

    After `min_rounds`, a round starts only if at least half of one as long
    as the median round so far fits in the time left, so a run ends within
    half a round of `seconds`, on either side.  Every round yielded runs to
    its end."""
    start = last = time.monotonic()
    took: list[float] = []
    while (len(took) < min_rounds
           or time.monotonic() + statistics.median(took) / 2 <= start + seconds):
        yield len(took)
        now = time.monotonic()
        took.append(now - last)
        last = now


def helb(*args: str) -> list[str]:
    return [sys.executable, "-m", "helb.cli", *args]


def traced_helb(spans_path: Path, lookup_id: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "traced_helb.py"), str(spans_path),
            lookup_id, *args]


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


_BUILD_TOTAL = re.compile(r": (\d+) entries \((\d+) duplicates removed\)")
_BUILD_GROUP = re.compile(r"^\s*/(\d+): (\d+) entries$", re.MULTILINE)


def build_ok(done: Done, networks) -> bool:
    """Exit 0, every network stored, and the per-prefix counts of the list."""
    total = _BUILD_TOTAL.search(done.out)
    groups = {int(p): int(c) for p, c in _BUILD_GROUP.findall(done.out)}
    want = {}
    for _, prefix_len in networks:
        want[prefix_len] = want.get(prefix_len, 0) + 1
    return (done.status == 0 and total is not None
            and int(total.group(1)) == len(networks) and total.group(2) == "0"
            and groups == want)


def lookup_ok(done: Done, lookup: wl.Lookup) -> bool:
    """Exit status, verdict and entry id all agree with the oracle."""
    lines = done.out.strip().splitlines()
    try:
        verdict = json.loads(lines[-1]) if lines else None
    except ValueError:
        return False
    if not isinstance(verdict, dict):
        return False
    return (done.status == (0 if lookup.is_hit else 1)
            and verdict.get("matched") is lookup.is_hit
            and verdict.get("entry_id") == lookup.expected)


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, seconds: int,
                 workdir: Path, deadline: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.runner = Runner(workdir, deadline)
        self.tally = Tally()
        self.networks = wl.make_list(workload.networks, seed)
        (workdir / "list.txt").write_text(wl.cidr_text(self.networks))
        self.samples: dict = {}

    # -- program steps ----------------------------------------------------

    def warm_up(self) -> None:
        """Start the CLI once, so bytecode compilation is not timed."""
        done = self.runner.run(helb("--help"))
        if done.status != 0:
            raise BenchError(f"helb does not start: {done.err.strip()[-400:]}")

    def keygen(self) -> Done:
        """Write key.pub and key.sec; every call makes the same key pair."""
        done = self.runner.run(helb(
            "keygen", *self.w.keygen_args, "--out", "key",
            "--seed", str(wl.KEYGEN_SEED)))
        written = all((self.workdir / name).is_file()
                      and (self.workdir / name).stat().st_size > 0
                      for name in ("key.pub", "key.sec"))
        self.tally.check(done.status == 0 and written,
                         f"keygen: exit {done.status} {done.err[-200:]}")
        if not written:
            raise BenchError(f"keygen wrote no key files: {done.err.strip()[-400:]}")
        return done

    def build_args(self) -> list[str]:
        args = ["blacklist", "encrypt", "--key", "key.pub",
                "--cidr-file", "list.txt", "--out", "store.bin"]
        return args + (["--packed"] if self.w.packed else [])

    def build(self, cmd: list[str]) -> Done:
        done = self.runner.run(cmd)
        self.tally.check(build_ok(done, self.networks),
                         f"build: exit {done.status} {done.out[-200:]} {done.err[-200:]}")
        if not (self.workdir / "store.bin").is_file():
            raise BenchError(f"the build wrote no store: {done.err.strip()[-400:]}")
        return done

    def match_args(self, lookup: wl.Lookup) -> list[str]:
        return ["match", "--keys", "key.sec", "--store", "store.bin",
                "--ip", wl.format_ipv4(lookup.ip), "--json"]

    def lookup(self, lookup: wl.Lookup, cmd: list[str]) -> Done:
        done = self.runner.run(cmd)
        self.tally.check(lookup_ok(done, lookup),
                         f"lookup {wl.format_ipv4(lookup.ip)} expected "
                         f"{lookup.expected}: exit {done.status} "
                         f"{done.out.strip()[-200:]} {done.err.strip()[-200:]}")
        return done

    # -- end-to-end run ---------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Rounds of keygen, build, miss and hit for about `seconds`, at
        least `MIN_ROUNDS` of them.  Interleaving spreads every kind
        of sample over the whole run, so a slow spell of the host lands on
        few samples of each kind, not on all of one."""
        self.warm_up()
        keygen_s, build_s, hit_s, miss_s, rss_mb = [], [], [], [], []
        stream = wl.LookupStream(self.networks, self.seed)
        for _ in rounds_within(self.seconds, MIN_ROUNDS):
            keygen_s.append(self.keygen().wall_s)
            build_s.append(self.build(helb(*self.build_args())).wall_s)
            for item in stream.next_round():
                done = self.lookup(item, helb(*self.match_args(item)))
                (hit_s if item.is_hit else miss_s).append(done.wall_s)
                rss_mb.append(done.rss_mb)
        store_bytes = (self.workdir / "store.bin").stat().st_size
        self.samples.update(rounds=len(build_s), keygen_s=keygen_s, build_s=build_s,
                            hit_s=hit_s, miss_s=miss_s, rss_mb=rss_mb)
        return {
            "setup_s": (statistics.median(keygen_s), "s"),
            "build_s": (statistics.median(build_s), "s"),
            "store_bytes_per_entry": (store_bytes / len(self.networks), "B"),
            "lookup_hit_ms": (statistics.median(hit_s) * 1000, "ms"),
            "lookup_miss_ms": (statistics.median(miss_s) * 1000, "ms"),
            "lookup_rss_mb": (statistics.median(rss_mb), "MB"),
        }

    # -- traced run -------------------------------------------------------

    def per_layer(self) -> tuple[dict[str, tuple[float, str]], dict]:
        self.warm_up()
        startup = [self.runner.run(helb("--help")).wall_s
                   for _ in range(STARTUP_SAMPLES)]
        self.samples["startup_s"] = startup
        self.keygen()

        spans_dir = self.workdir / "spans"
        spans_dir.mkdir()
        build_spans = spans_dir / "build.json"
        self.build(traced_helb(build_spans, "build", *self.build_args()))
        build_trace = json.loads(build_spans.read_text())["spans"]

        # Half the run for lookups leaves the other half for the kernels, so
        # a traced run lasts about as long as an untraced one.
        untraced, traced = [], []
        stream = wl.LookupStream(self.networks, self.seed)
        rounds = 0
        for rounds in rounds_within(self.seconds / 2, 1):
            batch = stream.next_round()
            for item in batch:
                untraced.append(self.lookup(item, helb(*self.match_args(item))).wall_s)
            for i, item in enumerate(batch):
                lookup_id = f"r{rounds}-{i}"
                path = spans_dir / f"{lookup_id}.json"
                done = self.lookup(item, traced_helb(path, lookup_id,
                                                     *self.match_args(item)))
                traced.append((item, done.wall_s, json.loads(path.read_text())))
        traced_s = [wall for _, wall, _ in traced]
        self.samples.update(rounds=rounds + 1, untraced_s=untraced, traced_s=traced_s)

        kernels = self.kernels()
        metrics = layer_metrics(build_trace, traced, kernels)
        metrics["cli.startup_ms"] = (statistics.median(startup) * 1000, "ms")
        metrics["trace.overhead_ms_per_lookup"] = (
            tracing_overhead_ms(untraced, traced_s), "ms")
        spans = {"build": build_trace,
                 "lookups": [dict(trace, ip=wl.format_ipv4(item.ip),
                                  expected=item.expected)
                             for item, _, trace in traced]}
        return metrics, spans

    def kernel_timings(self, *args: str) -> dict[str, float]:
        done = self.runner.run([sys.executable, str(HERE / "kernels.py"),
                                "--seed", str(self.seed), *args])
        if done.status != 0:
            raise BenchError(f"kernel timing failed: {done.err.strip()[-400:]}")
        return json.loads(done.out.strip().splitlines()[-1])

    def kernels(self) -> dict[str, float]:
        """Warm kernels in one process, the cold ring product in fresh ones."""
        out = self.kernel_timings()
        cold = [self.kernel_timings("--cold")["bfv.ring_mul_cold_ms"]
                for _ in range(COLD_KERNEL_SAMPLES)]
        out["bfv.ring_mul_cold_ms"] = statistics.median(cold)
        self.samples["ring_mul_cold_ms"] = cold
        return out


def tracing_overhead_ms(untraced_s: list[float], traced_s: list[float]) -> float:
    """Median of the per-lookup differences, traced minus untraced.

    Both lists hold the same addresses in the same order, so each pair does
    the same work; pairing keeps hits and misses apart, where a difference
    of two pooled medians would mostly show which samples fell mid-pool."""
    return statistics.median(
        t - u for u, t in zip(untraced_s, traced_s, strict=True)) * 1000


# -- span aggregation -----------------------------------------------------


def layer_of(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Per layer, the time its spans cover minus that of their child spans."""
    children: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (children.get(span["parent"], 0.0)
                                        + span["end"] - span["start"])
    out: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - children.get(span["id"], 0.0)
        out[layer_of(span)] = out.get(layer_of(span), 0.0) + own
    return out


def total_seconds(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def match_stats(spans: list[dict]) -> dict:
    """The counts returned by the outermost ipmatch call of a lookup."""
    for span in spans:
        if layer_of(span) == "ipmatch" and "stats" in span:
            return span["stats"]
    raise BenchError("a traced lookup made no ipmatch call that returned stats")


def layer_metrics(build_trace, traced, kernels) -> dict[str, tuple[float, str]]:
    lookups = [(item, trace["spans"]) for item, _, trace in traced]
    misses = [spans for item, spans in lookups if not item.is_hit]
    hits = [spans for item, spans in lookups if item.is_hit]
    every = [spans for _, spans in lookups]

    def median_ms(values):
        return statistics.median(values) * 1000

    def self_ms_per_miss(layer):
        return median_ms([self_seconds(spans).get(layer, 0.0) for spans in misses])

    def count_per(group, *keys):
        return statistics.median(
            sum(match_stats(spans).get(k, 0) for k in keys) for spans in group)

    build_spans = [s for s in build_trace if s["name"] == "ipmatch.build_store"]
    if not build_spans or "ciphertexts" not in build_spans[0]:
        raise BenchError("the traced build made no ipmatch.build_store call")
    metrics = {
        "serial.read_key_file_ms": (median_ms(
            [total_seconds(s, "serial.read_key_file") for s in every]), "ms"),
        "serial.read_store_ms": (median_ms(
            [total_seconds(s, "serial.read_store") for s in every]), "ms"),
        "serial.write_store_ms": (
            total_seconds(build_trace, "serial.write_store") * 1000, "ms"),
        "ipmatch.build_store_s": (
            total_seconds(build_trace, "ipmatch.build_store"), "s"),
        "ipmatch.self_ms_per_miss": (self_ms_per_miss("ipmatch"), "ms"),
        "ipmatch.encryptions_per_miss": (count_per(misses, "encryptions"), "count"),
        "ipmatch.hom_ops_per_miss": (
            count_per(misses, "sub_calls", "xor_calls"), "count"),
        "ipmatch.zero_tests_per_miss": (count_per(misses, "zero_tests"), "count"),
        "ipmatch.zero_tests_per_hit": (count_per(hits, "zero_tests"), "count"),
        "ipmatch.store_ciphertexts": (build_spans[0]["ciphertexts"], "count"),
        "bfv.self_ms_per_miss": (self_ms_per_miss("bfv"), "ms"),
        "phe.self_ms_per_miss": (self_ms_per_miss("phe"), "ms"),
    }
    for name, value in kernels.items():
        unit = "ms" if name.endswith("_ms") else "s"
        metrics[name] = (value, unit)
    return metrics


# -- entry point ----------------------------------------------------------


def host_metadata(args) -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    if not (SRC / "helb" / "cli.py").is_file():
        print(f"error: no helb sources under {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = Bench(workload, args.seed, args.seconds, workdir,
                      start + RUN_DEADLINE_S)
        if args.trace:
            metrics, spans = bench.per_layer()
            (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))
        else:
            metrics = bench.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = bench.tally
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"host": host_metadata(args),
              "workload": {"networks": workload.networks, "packed": workload.packed,
                           "prefix_quotas": wl.quotas(workload.networks),
                           "hit_position": wl.hit_position(workload.networks)},
              "samples": bench.samples, "failures": tally.failures,
              "elapsed_s": time.monotonic() - start, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32s} {value:14.4f} {unit}")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

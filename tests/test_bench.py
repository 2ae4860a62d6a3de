import csv
import io
import json
import os
import subprocess
import sys

import pytest
import support

from helb import bench
from helb.errors import InvalidOptions
from helb.numtheory import RandomSource


def test_all_scheme_rows_have_three_positive_timings():
    rows = bench.bench_schemes(iterations=1, bits=128, seed=1,
                               bfv_profile=support.SMALL_PARAMS)
    assert [r.scheme for r in rows] == list(bench.ALL_BENCH_SCHEMES)
    assert len(rows) == 7
    for row in rows:
        assert row.keypair_ms > 0
        assert row.encrypt_ms > 0
        assert row.op_decrypt_ms > 0
        assert row.iterations == 1


def test_structure_is_independent_of_timings():
    rows = bench.bench_schemes(["paillier"], iterations=3, bits=128, seed=2)
    assert len(rows) == 1
    table = bench.format_bench_table(rows)
    assert len(table.splitlines()) == 3  # header, rule, one row
    parsed = list(csv.reader(io.StringIO(bench.format_bench_csv(rows))))
    assert parsed[0] == list(bench._BENCH_FIELDS)
    assert len(parsed) == 2


def test_csv_means_equal_table_means():
    rows = bench.bench_schemes(["paillier", "benaloh"], iterations=2,
                               bits=128, seed=3)
    parsed = list(csv.DictReader(io.StringIO(bench.format_bench_csv(rows))))
    table = bench.format_bench_table(rows)
    for row, record in zip(rows, parsed):
        assert float(record["keypair_ms"]) == pytest.approx(row.keypair_ms,
                                                            abs=1e-6)
        assert f"{row.keypair_ms:>12.3f}" in table


def test_json_holds_the_csv_rows_and_the_metadata():
    rows = bench.bench_schemes(["paillier", "benaloh"], iterations=2,
                               bits=128, seed=11)
    meta = bench.hardware_metadata()
    record = json.loads(bench.format_bench_json(rows, meta))
    assert record["metadata"] == meta
    assert record["note"] == bench.NON_COMPARABLE_NOTE
    parsed = list(csv.DictReader(io.StringIO(bench.format_bench_csv(rows))))
    assert [list(row) for row in record["rows"]] == [list(bench._BENCH_FIELDS)] * 2
    for row, csv_row in zip(record["rows"], parsed):
        assert row["scheme"] == csv_row["scheme"]
        assert row["iterations"] == int(csv_row["iterations"]) == 2
        for field in bench._BENCH_FIELDS[1:-1]:
            assert row[field] == pytest.approx(float(csv_row[field]), abs=1e-6)


def test_iterations_must_be_positive():
    with pytest.raises(InvalidOptions):
        bench.bench_schemes(iterations=0, seed=4)


def test_unknown_scheme_rejected():
    with pytest.raises(InvalidOptions):
        bench.bench_schemes(["rot13"], seed=5)


def test_random_cidrs_fixed_prefix_and_distinct():
    rng = RandomSource.seeded(6)
    entries = bench.random_cidrs(50, rng)
    assert len(entries) == 50
    assert all(plen == 24 for _, plen in entries)
    assert all(network & 0xFF == 0 for network, _ in entries)
    assert len(set(entries)) == 50


def test_random_cidrs_random_prefixes():
    rng = RandomSource.seeded(7)
    entries = bench.random_cidrs(80, rng, prefix_len=None)
    assert len({plen for _, plen in entries}) > 5


def test_random_cidrs_refuses_more_networks_than_exist():
    rng = RandomSource.seeded(8)
    with pytest.raises(InvalidOptions, match="only 256 distinct networks"):
        bench.random_cidrs(257, rng, prefix_len=8)
    with pytest.raises(InvalidOptions):
        bench.random_cidrs(2**33, rng, prefix_len=None)
    entries = bench.random_cidrs(256, rng, prefix_len=8)
    assert sorted(network for network, _ in entries) == [i << 24 for i in range(256)]


@pytest.mark.parametrize("packed", [False, True])
def test_scale_rows(packed):
    rows = bench.bench_scale([3, 6], params=support.SMALL_PARAMS,
                             packed=packed, seed=8)
    assert [r.n_addresses for r in rows] == [3, 6]
    for row in rows:
        assert row.encrypt_total_s > 0
        assert row.search_total_s > 0


def test_scale_counts_must_be_nonempty():
    with pytest.raises(InvalidOptions):
        bench.bench_scale([], seed=9)


def test_scale_csv_format():
    rows = bench.bench_scale([2], params=support.SMALL_PARAMS, seed=10)
    parsed = list(csv.reader(io.StringIO(bench.format_scale_csv(rows))))
    assert parsed[0] == list(bench._SCALE_FIELDS)
    assert int(parsed[1][0]) == 2


def test_hardware_metadata_fields():
    meta = bench.hardware_metadata()
    assert {"platform", "machine", "python", "cpu_count"} <= set(meta)
    rendered = bench.format_metadata(meta)
    assert all(line.startswith("# ") for line in rendered.splitlines())


def test_non_comparable_note_mentions_hardware():
    assert "identical hardware" in bench.NON_COMPARABLE_NOTE
    assert "not comparable" in bench.NON_COMPARABLE_NOTE


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_metadata_records_the_usable_cpus():
    meta = bench.hardware_metadata()
    assert meta["usable_cpus"] == str(len(os.sched_getaffinity(0)))
    assert f"# usable_cpus: {meta['usable_cpus']}" in bench.format_metadata(meta)


# ---------------------------------------------------------------------------
# the benchmark harness under perfbench/, which calls helb's layers directly

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL_KEYS = {"bfv.ring_mul_ms", "bfv.keygen_ms", "bfv.encrypt_ms",
               "bfv.eval_sub_ms", "bfv.decrypt_ms", "phe.keygen_ms",
               "phe.encrypt_ms", "phe.sub_encrypted_ms", "phe.is_zero_ms",
               "numtheory.gen_prime_ms"}


def _perfbench(script, *args):
    """Run a perfbench script as its own process, on this checkout's helb."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", script), *map(str, args)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300)


def test_perfbench_kernels_run_on_this_api():
    done = _perfbench("kernels.py", "--seed", 1)
    assert done.returncode == 0, done.stderr
    timings = json.loads(done.stdout.splitlines()[-1])
    assert set(timings) == KERNEL_KEYS
    assert all(value > 0 for value in timings.values())


def test_perfbench_trace_sees_store_and_match_counts(tmp_path):
    base = tmp_path / "lat"
    assert support.run_cli("keygen", "--scheme", "bfv", "--out", base,
                           "--seed", 1).exit_code == 0
    cidrs = tmp_path / "list.txt"
    cidrs.write_text("10.0.0.0/8\n192.168.1.0/24\n")
    store, build, lookup = (tmp_path / name
                            for name in ("p.bin", "build.json", "lookup.json"))
    done = _perfbench("traced_helb.py", build, "build", "blacklist", "encrypt",
                      "--key", f"{base}.pub", "--cidr-file", cidrs,
                      "--out", store, "--packed", "--seed", 2)
    assert done.returncode == 0, done.stderr
    done = _perfbench("traced_helb.py", lookup, "0", "match", "--keys",
                      f"{base}.sec", "--store", store, "--ip", "10.1.2.3",
                      "--json", "--seed", 3)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["matched"]
    spans = {name: [span for span in json.loads(path.read_text())["spans"]
                    if span["name"] == name]
             for name, path in (("ipmatch.build_store", build),
                                ("ipmatch.match", lookup))}
    assert [span["ciphertexts"] for span in spans["ipmatch.build_store"]] == [1]
    assert [span["stats"]["encryptions"] for span in spans["ipmatch.match"]] == [1]

import csv
import io
import os

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
    assert all(e.prefix_len == 24 for e in entries)
    assert all(e.network & 0xFF == 0 for e in entries)
    assert len({(e.network, e.prefix_len) for e in entries}) == 50


def test_random_cidrs_random_prefixes():
    rng = RandomSource.seeded(7)
    entries = bench.random_cidrs(80, rng, prefix_len=None)
    assert len({e.prefix_len for e in entries}) > 5


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

import csv
import io
import json
import random

import pytest
import support
from click.testing import CliRunner

from helb import serial
from helb.cli import main

runner = CliRunner()


def run(*args):
    return runner.invoke(main, [str(a) for a in args])


@pytest.fixture(scope="module")
def paillier_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("keys") / "pai"
    result = run("keygen", "--scheme", "paillier", "--bits", 256,
                 "--out", base, "--seed", 1)
    assert result.exit_code == 0, result.output
    return str(base) + ".pub", str(base) + ".sec"


@pytest.fixture(scope="module")
def gm_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("keys") / "gm"
    result = run("keygen", "--scheme", "goldwasser_micali", "--bits", 256,
                 "--out", base, "--seed", 2)
    assert result.exit_code == 0, result.output
    return str(base) + ".pub", str(base) + ".sec"


@pytest.fixture(scope="module")
def cidr_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lists") / "blacklist.txt"
    path.write_text("# test list\n2.3.4.0/24\n10.0.0.0/8\n192.168.0.10/24\n")
    return str(path)


@pytest.fixture(scope="module")
def paillier_store(paillier_files, cidr_file, tmp_path_factory):
    pub, _ = paillier_files
    out = str(tmp_path_factory.mktemp("stores") / "store.bin")
    result = run("blacklist", "encrypt", "--key", pub, "--cidr-file", cidr_file,
                 "--out", out, "--seed", 3)
    assert result.exit_code == 0, result.output
    return out


class TestKeygen:
    def test_writes_loadable_pair(self, paillier_files):
        pub, sec = paillier_files
        loaded_pub = serial.read_key_file(pub)
        loaded_sec = serial.read_key_file(sec)
        assert loaded_sec.public == loaded_pub

    def test_round_trips_a_message(self, paillier_files):
        from helb import phe
        from helb.numtheory import RandomSource

        keys = serial.read_key_file(paillier_files[1])
        ct = phe.encrypt(keys, 424242, RandomSource.seeded(4))
        assert phe.decrypt(keys, ct) == 424242

    def test_bfv_keygen_and_params_reload(self, tmp_path):
        from helb import bfv

        base = tmp_path / "lat"
        result = run("keygen", "--scheme", "bfv", "--out", base, "--seed", 5)
        assert result.exit_code == 0, result.output
        keys = serial.read_key_file(str(base) + ".sec")
        assert bfv.validate_params(keys.params)

    def test_unknown_scheme_is_usage_error(self, tmp_path):
        result = run("keygen", "--scheme", "rsa", "--out", tmp_path / "x")
        assert result.exit_code == 2

    def test_small_bits_without_seed_fails(self, tmp_path):
        result = run("keygen", "--scheme", "paillier", "--bits", 64,
                     "--out", tmp_path / "x")
        assert result.exit_code == 2

    def test_scheme_specific_flag_on_wrong_scheme(self, tmp_path):
        result = run("keygen", "--scheme", "paillier", "--bits", 256,
                     "--block-size", 17, "--out", tmp_path / "x", "--seed", 1)
        assert result.exit_code == 2
        assert "--block-size" in result.output

    def test_benaloh_block_size_flag(self, tmp_path):
        base = tmp_path / "ben"
        result = run("keygen", "--scheme", "benaloh", "--bits", 256,
                     "--block-size", 257, "--out", base, "--seed", 1)
        assert result.exit_code == 0, result.output
        keys = serial.read_key_file(str(base) + ".sec")
        assert keys.public.r == 257


class TestBlacklistEncrypt:
    def test_reports_counts(self, paillier_files, cidr_file, tmp_path):
        pub, _ = paillier_files
        out = tmp_path / "s.bin"
        result = run("blacklist", "encrypt", "--key", pub,
                     "--cidr-file", cidr_file, "--out", out, "--seed", 6)
        assert result.exit_code == 0
        assert "3 entries" in result.output
        assert "/24: 2 entries" in result.output
        assert "/8: 1 entries" in result.output

    def test_duplicates_reported(self, paillier_files, tmp_path):
        pub, _ = paillier_files
        lst = tmp_path / "dup.txt"
        lst.write_text("2.3.4.0/24\n2.3.4.99/24\n")
        out = tmp_path / "s.bin"
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file", lst,
                     "--out", out, "--seed", 7)
        assert result.exit_code == 0
        assert "1 entries (1 duplicates removed)" in result.output

    def test_bad_line_names_line_number(self, paillier_files, tmp_path):
        pub, _ = paillier_files
        lst = tmp_path / "bad.txt"
        lst.write_text("2.3.4.0/24\nnot-an-address/8\n")
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file", lst,
                     "--out", tmp_path / "s.bin")
        assert result.exit_code == 2
        assert "line 2" in result.output


class TestMatch:
    def test_hit_exits_zero(self, paillier_files, paillier_store):
        result = run("match", "--keys", paillier_files[1],
                     "--store", paillier_store, "--ip", "2.3.4.77", "--seed", 8)
        assert result.exit_code == 0, result.output
        assert "MATCH" in result.output

    def test_miss_exits_one(self, paillier_files, paillier_store):
        result = run("match", "--keys", paillier_files[1],
                     "--store", paillier_store, "--ip", "4.4.4.4", "--seed", 9)
        assert result.exit_code == 1
        assert "NO-MATCH" in result.output

    def test_scheme_mismatch_exits_two(self, gm_files, paillier_store):
        result = run("match", "--keys", gm_files[1], "--store", paillier_store,
                     "--ip", "2.3.4.77", "--seed", 10)
        assert result.exit_code == 2

    def test_gm_store_matches_by_xor(self, gm_files, cidr_file, tmp_path):
        pub, sec = gm_files
        store = tmp_path / "gm.bin"
        result = run("blacklist", "encrypt", "--key", pub,
                     "--cidr-file", cidr_file, "--out", store, "--seed", 11)
        assert result.exit_code == 0
        result = run("match", "--keys", sec, "--store", store,
                     "--ip", "2.3.4.77", "--json", "--seed", 13)
        assert result.exit_code == 0
        assert json.loads(result.output)["protocol"] == "xor"
        # blinding needs an additive scheme
        result = run("match", "--keys", sec, "--store", store,
                     "--ip", "2.3.4.77", "--blind", "--seed", 12)
        assert result.exit_code == 2
        assert "additive" in result.output

    def test_json_output(self, paillier_files, paillier_store):
        result = run("match", "--keys", paillier_files[1],
                     "--store", paillier_store, "--ip", "2.3.4.77",
                     "--json", "--seed", 14)
        payload = json.loads(result.output)
        assert payload["matched"] is True
        assert payload["protocol"] == "sub"
        assert isinstance(payload["entry_id"], int)

    def test_internal_error_exits_two(self, paillier_files, paillier_store,
                                      monkeypatch):
        from helb import ipmatch

        def broken(*args, **kwargs):
            raise IndexError("list index out of range")

        monkeypatch.setattr(ipmatch, "match", broken)
        result = run("match", "--keys", paillier_files[1],
                     "--store", paillier_store, "--ip", "2.3.4.77", "--seed", 14)
        assert result.exit_code == 2
        assert ("error: internal error: IndexError: list index out of range"
                in result.output)

    def test_bad_ip_exits_two(self, paillier_files, paillier_store):
        result = run("match", "--keys", paillier_files[1],
                     "--store", paillier_store, "--ip", "2.3.4.999")
        assert result.exit_code == 2

    def test_exit_codes_across_random_addresses(self, paillier_files,
                                                paillier_store, cidr_file):
        from helb.ipmatch import load_cidr_file

        entries = load_cidr_file(cidr_file)
        rnd = random.Random("exit")
        hits = misses = 0
        for _ in range(100):
            ip = support.biased_address(rnd, entries)
            text = ".".join(str((ip >> s) & 0xFF) for s in (24, 16, 8, 0))
            result = run("match", "--keys", paillier_files[1],
                         "--store", paillier_store, "--ip", text, "--seed", 15)
            expected = 0 if support.plain_member(ip, entries) else 1
            assert result.exit_code == expected, text
            hits += expected == 0
            misses += expected == 1
        assert hits and misses  # both codes exercised

    def test_whitelist_kind_is_a_label_only(self, paillier_files, paillier_store):
        result = run("match", "--keys", paillier_files[1],
                     "--store", paillier_store, "--ip", "2.3.4.77",
                     "--list-kind", "whitelist", "--json", "--seed", 15)
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["list_kind"] == "whitelist"
        assert payload["matched"] is True


@pytest.fixture(scope="module")
def bfv_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("keys") / "lat"
    result = run("keygen", "--scheme", "bfv", "--out", base, "--seed", 30)
    assert result.exit_code == 0, result.output
    return str(base) + ".pub", str(base) + ".sec"


class TestLatticeFlow:
    @pytest.mark.parametrize("packed", [False, True])
    def test_end_to_end(self, bfv_files, cidr_file, tmp_path, packed):
        pub, sec = bfv_files
        store = tmp_path / ("p.bin" if packed else "u.bin")
        args = ["blacklist", "encrypt", "--key", pub, "--cidr-file", cidr_file,
                "--out", store, "--seed", 31]
        if packed:
            args.append("--packed")
        result = run(*args)
        assert result.exit_code == 0, result.output
        hit = run("match", "--keys", sec, "--store", store,
                  "--ip", "192.168.0.200", "--seed", 32)
        assert hit.exit_code == 0, hit.output
        miss = run("match", "--keys", sec, "--store", store,
                   "--ip", "4.4.4.4", "--seed", 33)
        assert miss.exit_code == 1

    def test_blind_flag_rejected_on_lattice_store(self, bfv_files, cidr_file,
                                                  tmp_path):
        pub, sec = bfv_files
        store = tmp_path / "s.bin"
        result = run("blacklist", "encrypt", "--key", pub,
                     "--cidr-file", cidr_file, "--out", store, "--seed", 34)
        assert result.exit_code == 0
        result = run("match", "--keys", sec, "--store", store,
                     "--ip", "2.3.4.5", "--blind", "--seed", 35)
        assert result.exit_code == 2

    def test_blind_flag_rejected_on_packed_store(self, bfv_files, cidr_file,
                                                 tmp_path):
        pub, sec = bfv_files
        store = tmp_path / "p.bin"
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file",
                     cidr_file, "--out", store, "--packed", "--seed", 37)
        assert result.exit_code == 0
        result = run("match", "--keys", sec, "--store", store,
                     "--ip", "2.3.4.5", "--blind", "--seed", 38)
        assert result.exit_code == 2
        assert "additive" in result.output

    def test_corrupt_packed_fill_exits_two(self, bfv_files, tmp_path):
        pub, sec = bfv_files
        lst = tmp_path / "one.txt"
        lst.write_text("2.3.4.0/24\n")
        store = tmp_path / "p.bin"
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file", lst,
                     "--out", store, "--packed", "--seed", 39)
        assert result.exit_code == 0
        support.set_packed_fill(store, 5000)
        result = run("match", "--keys", sec, "--store", store,
                     "--ip", "9.9.9.9", "--seed", 40)
        assert result.exit_code == 2
        assert "fill 5000" in result.output

    def test_scale_packed_flag(self):
        result = run("bench", "scale", "--counts", "2", "--packed", "--seed", 36)
        assert result.exit_code == 0, result.output


class TestBench:
    def test_table_has_all_seven_schemes(self):
        result = run("bench", "--iterations", 1, "--bits", 128, "--seed", 16)
        assert result.exit_code == 0, result.output
        for name in ("bfv", "paillier", "damgard_jurik", "okamoto_uchiyama",
                     "naccache_stern", "benaloh", "goldwasser_micali"):
            assert name in result.output
        assert "# platform:" in result.output

    def test_csv_parses_with_expected_columns(self):
        result = run("bench", "--iterations", 2, "--bits", 128, "--seed", 17,
                     "--format", "csv", "--schemes", "paillier,benaloh")
        assert result.exit_code == 0, result.output
        data_lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
        assert [r["scheme"] for r in rows] == ["paillier", "benaloh"]
        for row in rows:
            assert float(row["keypair_ms"]) > 0
            assert float(row["encrypt_ms"]) > 0
            assert float(row["op_decrypt_ms"]) > 0
            assert int(row["iterations"]) == 2

    def test_unknown_scheme_rejected(self):
        result = run("bench", "--schemes", "rot13", "--seed", 18)
        assert result.exit_code == 2


class TestBenchScale:
    def test_small_scale_run(self):
        result = run("bench", "scale", "--counts", "2,4", "--seed", 19)
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines()
                 if l and not l.startswith("#")]
        # header, separator, one row per count
        assert len(lines) == 4
        assert "# platform:" in result.output

    def test_csv_output(self):
        result = run("bench", "scale", "--counts", "2,3", "--seed", 20,
                     "--format", "csv")
        data_lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
        assert [int(r["n_addresses"]) for r in rows] == [2, 3]
        for row in rows:
            assert float(row["encrypt_total_s"]) > 0
            assert float(row["search_total_s"]) > 0

import csv
import io
import json
import os
import random
import subprocess
import sys

import pytest
import support

import helb
from helb import bfv, cli, ipmatch, serial
from helb.numtheory import RandomSource

run = support.run_cli


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
        assert not bfv.param_violations(keys.params)

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


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", [
    ["keygen", "--scheme", "paillier", "--bits", 256, "--out", "k"],
    ["blacklist", "encrypt", "--key", "k.pub", "--cidr-file", "list.txt",
     "--out", "store.bin"],
    ["match", "--keys", "k.sec", "--store", "store.bin", "--ip", "1.2.3.4"],
    ["bench"],
    ["bench", "scale"],
], ids=["keygen", "blacklist encrypt", "match", "bench", "bench scale"])
def test_seed_outside_64_bits_is_a_usage_error(command, seed, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run(*command, "--seed", seed)
    assert result.exit_code == 2, result.output
    assert "argument --seed" in result.output
    assert "internal error" not in result.output


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

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "scheme = paillier\n", "duplicate key field 'scheme'"),
        (lambda text: text + "no equals sign\n", "malformed key file line"),
        (lambda text: text.replace("HELB-KEY v1", "HELB-KEY v9"),
         "missing key file header"),
        (lambda text: text.replace("scheme = paillier\n", ""),
         "key file does not declare a scheme"),
    ], ids=["repeated", "malformed", "header", "no_scheme"])
    def test_key_file_parse_error_names_the_file(self, edit, message,
                                                 paillier_files, cidr_file,
                                                 tmp_path):
        pub = tmp_path / "edited.pub"
        pub.write_text(edit(open(paillier_files[0]).read()))
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file",
                     cidr_file, "--out", tmp_path / "s.bin")
        assert result.exit_code == 2, result.output
        assert f"error: {pub}: {message}" in result.output

    def test_cidr_file_not_utf8_exits_two(self, paillier_files, tmp_path):
        pub, _ = paillier_files
        lst = tmp_path / "bad.txt"
        lst.write_bytes(b"2.3.4.0/24\n\xff\xfe\n")
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file", lst,
                     "--out", tmp_path / "s.bin")
        assert result.exit_code == 2, result.output
        assert f"{lst}: CIDR file is not UTF-8 text" in result.output
        assert "internal error" not in result.output
        assert not (tmp_path / "s.bin").exists()

    @pytest.mark.parametrize("scheme", [
        "paillier", "damgard_jurik", "okamoto_uchiyama", "benaloh",
        "naccache_stern", "goldwasser_micali"])
    def test_store_is_the_same_from_either_key_file(self, scheme, cidr_file,
                                                     tmp_path):
        # a key pair encrypts a record to the integer that its public key
        # gives, even where it computes by CRT
        base = tmp_path / scheme
        result = run("keygen", "--scheme", scheme, "--bits", 256,
                     "--out", base, "--seed", 22)
        assert result.exit_code == 0, result.output
        blobs = []
        for suffix in (".pub", ".sec"):
            out = tmp_path / (scheme + suffix + ".bin")
            result = run("blacklist", "encrypt", "--key", str(base) + suffix,
                         "--cidr-file", cidr_file, "--out", out, "--seed", 23)
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


# what `helb match` prints for a record that is not a unit
NO_INVERSE = "has no inverse modulo"
SHARED_FACTOR = "ciphertext shares a factor with the modulus"


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

    def test_other_key_of_same_scheme_exits_two(self, paillier_store, tmp_path):
        base = tmp_path / "other"
        result = run("keygen", "--scheme", "paillier", "--bits", 256,
                     "--out", base, "--seed", 2)
        assert result.exit_code == 0, result.output
        result = run("match", "--keys", str(base) + ".sec",
                     "--store", paillier_store, "--ip", "2.3.4.77", "--seed", 10)
        assert result.exit_code == 2
        assert "different public key" in result.output

    def test_tampered_lambda_exits_two(self, paillier_files, paillier_store,
                                       tmp_path):
        lines = open(paillier_files[1]).read().splitlines()
        bad = tmp_path / "bad.sec"
        bad.write_text("\n".join(
            f"lambda = {int(line.split('=')[1], 16) + 2:x}"
            if line.startswith("lambda =") else line for line in lines) + "\n")
        result = run("match", "--keys", bad, "--store", paillier_store,
                     "--ip", "2.3.4.77", "--seed", 10)
        assert result.exit_code == 2
        assert "lambda does not yield two factors of n" in result.output

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

    @pytest.mark.parametrize("runs, message", [
        ([], "no networks"),
        ([(24, 0)], "0 networks of prefix length 24"),
    ], ids=["no-groups", "empty-group"])
    def test_empty_store_exits_two(self, paillier_files, tmp_path, runs,
                                   message):
        # a valid one-network store whose header, resealed, gives no prefix
        # runs or a run of no networks
        cidrs, store = tmp_path / "one.txt", tmp_path / "one.bin"
        cidrs.write_text("2.3.4.0/24\n")
        result = run("blacklist", "encrypt", "--key", paillier_files[0],
                     "--cidr-file", cidrs, "--out", store, "--seed", 15)
        assert result.exit_code == 0, result.output
        support.set_header_runs(store, runs)
        result = run("match", "--keys", paillier_files[1], "--store", store,
                     "--ip", "2.3.4.77", "--seed", 16)
        assert result.exit_code == 2
        assert message in result.output

    def test_flipped_record_bit_exits_two(self, tmp_path):
        # one flipped bit inside the last record's Paillier element stays in
        # range, so only the file's SHA-256 tells it from a non-match
        base, cidrs, store = tmp_path / "pai", tmp_path / "one.txt", tmp_path / "s.bin"
        cidrs.write_text("2.3.4.0/24\n")
        result = run("keygen", "--scheme", "paillier", "--bits", 512,
                     "--out", base, "--seed", 1)
        assert result.exit_code == 0, result.output
        result = run("blacklist", "encrypt", "--key", f"{base}.pub",
                     "--cidr-file", cidrs, "--out", store, "--seed", 2)
        assert result.exit_code == 0, result.output
        args = ["match", "--keys", f"{base}.sec", "--store", store,
                "--ip", "2.3.4.9", "--seed", 3]
        assert run(*args).exit_code == 0
        data = bytearray(store.read_bytes())
        data[-33] ^= 1  # the last byte before the digest
        store.write_bytes(bytes(data))
        result = run(*args)
        assert result.exit_code == 2, result.output
        assert "damaged" in result.output

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

    @pytest.mark.parametrize("ip, status", [("2.3.4.77", 0), ("4.4.4.4", 1)],
                             ids=["hit", "miss"])
    def test_json_seconds_per_phase(self, paillier_files, paillier_store, ip,
                                    status):
        result = run("match", "--keys", paillier_files[1],
                     "--store", paillier_store, "--ip", ip, "--json",
                     "--seed", 18)
        assert result.exit_code == status, result.output
        seconds = json.loads(result.output)["seconds"]
        assert set(seconds) == {"encrypt", "combine", "zero_test"}
        assert all(isinstance(v, float) and v >= 0 for v in seconds.values())

    @pytest.mark.parametrize("scheme, factor, error", [
        pytest.param(scheme, factor, error, id=f"{short}-{factor}")
        for scheme, short, error in (
            ("paillier", "paillier", NO_INVERSE), ("damgard_jurik", "dj", NO_INVERSE),
            ("okamoto_uchiyama", "ou", NO_INVERSE), ("benaloh", "benaloh", NO_INVERSE),
            ("goldwasser_micali", "gm", SHARED_FACTOR))
        for factor in ("p", "q")])
    def test_non_unit_record_exits_two(self, scheme, factor, error, cidr_file,
                                       tmp_path):
        # a record that shares a factor with the modulus is no ciphertext:
        # subtraction cannot invert it, and Goldwasser-Micali's zero test
        # must refuse it modulo q as well as p
        base = tmp_path / scheme
        extra = ["--dj-s", 2] if scheme == "damgard_jurik" else []
        result = run("keygen", "--scheme", scheme, "--bits", 512,
                     "--out", base, "--seed", 19, *extra)
        assert result.exit_code == 0, result.output
        sec, path = str(base) + ".sec", str(tmp_path / "store.bin")
        result = run("blacklist", "encrypt", "--key", str(base) + ".pub",
                     "--cidr-file", cidr_file, "--out", path, "--seed", 20)
        assert result.exit_code == 0, result.output
        keys = serial.read_key_file(sec)
        store = serial.read_store(path, keys)
        ct = store.records[0]  # 2.3.4.0/24 is scanned first
        bad = 3 * getattr(getattr(keys, "crt", keys), factor)
        store.records[0] = (bad,) * len(ct) if isinstance(ct, tuple) else bad
        serial.write_store(store, path)
        for ip in ("2.3.4.77", "4.4.4.4"):
            result = run("match", "--keys", sec, "--store", path, "--ip", ip,
                         "--seed", 21)
            assert result.exit_code == 2, (ip, result.output)
            assert error in result.output


@pytest.fixture(scope="module")
def bfv_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("keys") / "lat"
    result = run("keygen", "--scheme", "bfv", "--out", base, "--seed", 30)
    assert result.exit_code == 0, result.output
    return str(base) + ".pub", str(base) + ".sec"


@pytest.fixture(scope="module")
def mixed_stores(bfv_files, tmp_path_factory):
    """Packed and unpacked stores of one unsorted mixed-prefix list:
    kind -> (store path, build report)."""
    base = tmp_path_factory.mktemp("mixed")
    lst = base / "mixed.txt"
    lst.write_text("10.0.0.0/8\n2.3.4.0/24\n10.1.0.0/16\n2.3.4.5/32\n"
                   "172.16.0.0/12\n10.1.2.0/24\n10.9.9.9/8\n")
    stores = {}
    for kind, flag in (("packed", ["--packed"]), ("unpacked", [])):
        path = base / ("p.bin" if flag else "u.bin")
        result = run("blacklist", "encrypt", "--key", bfv_files[0], "--cidr-file",
                     lst, "--out", path, "--seed", 48, *flag)
        assert result.exit_code == 0, result.output
        stores[kind] = str(path), result.output
    return stores


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
        support.set_header_runs(store, [(24, 5000)])
        result = run("match", "--keys", sec, "--store", store,
                     "--ip", "9.9.9.9", "--seed", 40)
        assert result.exit_code == 2
        assert "header implies" in result.output

    def test_other_key_on_packed_store_exits_two(self, bfv_files, cidr_file,
                                                 tmp_path):
        store = tmp_path / "p.bin"
        result = run("blacklist", "encrypt", "--key", bfv_files[0], "--cidr-file",
                     cidr_file, "--out", store, "--packed", "--seed", 41)
        assert result.exit_code == 0
        base = tmp_path / "other"
        result = run("keygen", "--scheme", "bfv", "--out", base, "--seed", 42)
        assert result.exit_code == 0, result.output
        result = run("match", "--keys", str(base) + ".sec", "--store", store,
                     "--ip", "192.168.0.200", "--seed", 43)
        assert result.exit_code == 2
        assert "different public key" in result.output

    def test_truncated_secret_polynomial_exits_two(self, bfv_files, cidr_file,
                                                   tmp_path):
        pub, sec = bfv_files
        store = tmp_path / "p.bin"
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file",
                     cidr_file, "--out", store, "--packed", "--seed", 44)
        assert result.exit_code == 0
        lines = open(sec).read().splitlines()
        bad = tmp_path / "bad.sec"
        bad.write_text("\n".join("s = 1" if line.startswith("s =") else line
                                 for line in lines) + "\n")
        result = run("match", "--keys", bad, "--store", store,
                     "--ip", "4.4.4.4", "--seed", 45)
        assert result.exit_code == 2
        assert "coefficients" in result.output

    def test_secret_that_does_not_fit_public_key_exits_two(self, tmp_path):
        # s[0] + 1 keeps every coefficient in range, but pk0 + pk1*s is no
        # longer small noise; the tampered key would read a listed
        # address as "not listed"
        keys = bfv.keygen(support.SMALL_PARAMS, RandomSource.seeded(3))
        base, cidrs = str(tmp_path / "lat"), tmp_path / "one.txt"
        serial.write_key_files(keys, base)
        cidrs.write_text("2.3.4.0/24\n")
        store = tmp_path / "p.bin"
        result = run("blacklist", "encrypt", "--key", base + ".pub", "--cidr-file",
                     cidrs, "--out", store, "--packed", "--seed", 4)
        assert result.exit_code == 0, result.output
        q = keys.params.ciphertext_mod
        secret = ((keys.secret[0] + 1) % q,) + keys.secret[1:]
        serial.write_key_files(support.replace(keys, secret=secret), base)
        result = run("match", "--keys", base + ".sec", "--store", store,
                     "--ip", "2.3.4.9", "--seed", 5)
        assert result.exit_code == 2, result.output
        assert "does not fit the public key" in result.output

    def test_non_ternary_secret_exits_two(self, tmp_path):
        # a uniform s with the public key that fits it: the store built
        # from its .pub holds 10.0.0.0/8, and a match that loaded the .sec
        # would read 10.1.2.3 as not listed and exit 1
        keys = bfv.keygen(support.SMALL_PARAMS, RandomSource.seeded(3))
        pub, sec = serial.write_key_files(support.forge_uniform_secret(keys),
                                          str(tmp_path / "forged"))
        cidrs, store = tmp_path / "one.txt", tmp_path / "s.bin"
        cidrs.write_text("10.0.0.0/8\n")
        result = run("blacklist", "encrypt", "--key", pub, "--cidr-file", cidrs,
                     "--out", store, "--seed", 4)
        assert result.exit_code == 0, result.output
        result = run("match", "--keys", sec, "--store", store,
                     "--ip", "10.1.2.3", "--seed", 5)
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {sec}: "), result.output
        assert "s is not ternary" in result.output

    def test_key_without_noise_headroom_exits_two(self, cidr_file, tmp_path):
        # with sigma = 10^9 one subtraction can pass the decryption
        # threshold: a listed address would read NO-MATCH and exit 1
        keys = bfv.keygen(support.SMALL_PARAMS, RandomSource.seeded(46))
        wide = support.replace(keys, public=support.replace(
            keys.public, params=support.replace(keys.params, err_stddev=1e9)))
        base = str(tmp_path / "wide")
        serial.write_key_files(wide, base)
        store = str(tmp_path / "p.bin")
        serial.write_store(ipmatch.build_store(ipmatch.load_cidr_file(cidr_file),
                                               wide, RandomSource.seeded(47),
                                               packed=True), store)
        result = run("blacklist", "encrypt", "--key", base + ".pub", "--cidr-file",
                     cidr_file, "--out", tmp_path / "q.bin", "--packed")
        assert result.exit_code == 2, result.output
        assert "noise headroom" in result.output
        result = run("match", "--keys", base + ".sec", "--store", store,
                     "--ip", "2.3.4.77")
        assert result.exit_code == 2, result.output
        assert "noise headroom" in result.output

    def test_packed_build_report(self, mixed_stores):
        # `helb blacklist encrypt` prints these lines, which callers parse
        out = mixed_stores["packed"][1]
        assert out.splitlines()[1:] == ["  /32: 1 entries", "  /24: 2 entries",
                                        "  /16: 1 entries", "  /12: 1 entries",
                                        "  /8: 1 entries"]
        assert out.splitlines()[0].endswith(": 6 entries (1 duplicates removed)")
        assert out == mixed_stores["unpacked"][1].replace("u.bin", "p.bin")

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_mixed_prefix_ids_agree_packed_and_unpacked(self, bfv_files,
                                                        mixed_stores, exhaustive):
        # the list is unsorted, so ids follow first appearance: /8 is 0,
        # /24 1 and 2, /16 3, /32 4, /12 5; the longest network wins
        want = {"2.3.4.5": 4, "2.3.4.9": 1, "10.1.2.3": 2, "10.1.9.9": 3,
                "172.16.5.5": 5, "10.200.0.1": 0}
        flag = ["--exhaustive"] if exhaustive else []
        for kind in ("packed", "unpacked"):
            for ip, entry_id in want.items():
                result = run("match", "--keys", bfv_files[1], "--store",
                             mixed_stores[kind][0], "--ip", ip, "--json",
                             "--seed", 46, *flag)
                assert result.exit_code == 0, result.output
                assert json.loads(result.output)["entry_id"] == entry_id, (kind, ip)

    def test_json_stats_of_packed_miss(self, bfv_files, mixed_stores):
        # six networks of five prefix lengths share one ciphertext
        result = run("match", "--keys", bfv_files[1], "--store",
                     mixed_stores["packed"][0], "--ip", "4.4.4.4", "--json",
                     "--seed", 47)
        assert result.exit_code == 1
        assert json.loads(result.output)["stats"] == {
            "encryptions": 1, "sub_calls": 1, "zero_tests": 1}

    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    def test_store_is_the_same_from_either_key_file(self, bfv_files, cidr_file,
                                                     tmp_path, packed):
        # a store is a public-key encryption even when built from the .sec
        flag = ["--packed"] if packed else []
        blobs = []
        for key in bfv_files:
            out = tmp_path / (os.path.basename(key) + ".bin")
            result = run("blacklist", "encrypt", "--key", key, "--cidr-file",
                         cidr_file, "--out", out, "--seed", 5, *flag)
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_scale_packed_flag(self):
        result = run("bench", "scale", "--counts", "2", "--packed", "--seed", 36)
        assert result.exit_code == 0, result.output


def _python(*args, path=()):
    """This interpreter run in a fresh process, with helb's sources and
    `path` on its module search path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, *path, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def _modules_after_match(keys, store, ip):
    """Exit status of `helb match` in a fresh interpreter, and the helb
    modules it loaded."""
    script = ("import json, sys, support\n"
              "status, _ = support.run_cli(*sys.argv[1:])\n"
              "print(json.dumps([status, sorted(m for m in sys.modules\n"
              "                                 if m.startswith('helb'))]))\n")
    done = _python("-c", script, "match", "--keys", keys, "--store", store,
                   "--ip", ip, "--seed", "1", path=[os.path.dirname(support.__file__)])
    done.check_returncode()
    status, modules = json.loads(done.stdout.splitlines()[-1])
    return status, set(modules)


class TestImportFloor:
    """A lookup imports the modules of its own scheme only."""

    def test_bfv_match_loads_no_phe_scheme_and_no_bench(self, bfv_files,
                                                         mixed_stores):
        status, modules = _modules_after_match(
            bfv_files[1], mixed_stores["packed"][0], "2.3.4.5")
        assert status == 0
        assert "helb.bfv" in modules
        assert not [m for m in modules if m.startswith("helb.phe.")]
        assert "helb.bench" not in modules

    def test_paillier_match_loads_paillier_only(self, paillier_files,
                                                paillier_store):
        status, modules = _modules_after_match(
            paillier_files[1], paillier_store, "4.4.4.4")
        assert status == 1
        assert [m for m in modules if m.startswith("helb.phe.")] == \
               ["helb.phe.paillier"]
        assert "helb.bench" not in modules

    def test_commands_load_no_dataclasses_inspect_or_ipaddress(self, tmp_path):
        # -S: no `site`, which on some hosts loads `ipaddress` and others
        # itself; -I: no PYTHONPATH, so `src` goes on the path by hand
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = ("import json, sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from helb import cli\n"
                  "def run(*args):\n"
                  "    try:\n"
                  "        cli.main(list(args))\n"
                  "    except SystemExit as exc:\n"
                  "        return exc.code\n"
                  "base = sys.argv[2] + '/lat'\n"
                  "statuses = [\n"
                  "    run('keygen', '--scheme', 'bfv', '--out', base, '--seed', '1'),\n"
                  "    run('blacklist', 'encrypt', '--key', base + '.pub', '--cidr-file',\n"
                  "        sys.argv[3], '--out', base + '.bin', '--packed', '--seed', '2'),\n"
                  "    run('match', '--keys', base + '.sec', '--store', base + '.bin',\n"
                  "        '--ip', '2.3.4.5', '--json', '--seed', '3')]\n"
                  "print(json.dumps([statuses, sorted(sys.modules)]))\n")
        cidrs = tmp_path / "list.txt"
        cidrs.write_text("2.3.4.0/24\n10.0.0.0/8\n")
        done = subprocess.run([sys.executable, "-I", "-S", "-c", script, src,
                               str(tmp_path), str(cidrs)],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        statuses, modules = json.loads(done.stdout.splitlines()[-1])
        assert statuses == [0, 0, 0]
        assert not {"dataclasses", "inspect", "ipaddress"} & set(modules)

    def test_bench_still_runs(self):
        result = run("bench", "--schemes", "bfv", "--iterations", 1, "--seed", 6)
        assert result.exit_code == 0, result.output
        assert "bfv" in result.output


class TestEntryPoints:
    def test_version_from_a_source_checkout(self):
        done = _python("-m", "helb.cli", "--version")
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"helb {helb.__version__}\n"

    def test_main_ends_a_miss_in_system_exit_one(self, paillier_files,
                                                 paillier_store):
        # the calling convention of perfbench/traced_helb.py
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args=["match", "--keys", paillier_files[1], "--store",
                           paillier_store, "--ip", "4.4.4.4", "--seed", "1"],
                     prog_name="helb")
        assert exit_info.value.code == 1

    def test_runtime_needs_only_the_standard_library(self):
        # compared with the modules loaded before the import: the host's
        # `site` may load third-party modules of its own
        script = ("import importlib, json, pkgutil, sys\n"
                  "before = set(sys.modules)\n"
                  "import helb.bench, helb.cli, helb.phe\n"
                  "for info in pkgutil.iter_modules(helb.phe.__path__):\n"
                  "    importlib.import_module(f'helb.phe.{info.name}')\n"
                  "print(json.dumps(sorted({m.split('.')[0]\n"
                  "                         for m in set(sys.modules) - before})))\n")
        done = _python("-c", script)
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout))
        assert "helb" in loaded
        assert loaded - {"helb"} <= sys.stdlib_module_names


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

    def test_json_is_one_object_with_metadata_and_rows(self):
        result = run("bench", "--iterations", 1, "--bits", 128, "--seed", 17,
                     "--format", "json", "--schemes", "paillier,benaloh")
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert {"platform", "python", "cpu_count"} <= set(record["metadata"])
        assert [r["scheme"] for r in record["rows"]] == ["paillier", "benaloh"]
        assert all(r["keypair_ms"] > 0 and r["iterations"] == 1
                   for r in record["rows"])

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

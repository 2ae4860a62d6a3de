"""Lookups and store builds spread over worker processes.

Workers are forced by patching `ipmatch._usable_cpus`, and every store and
lookup here draws crypto randomness, since a seeded source keeps the work
in one process.  Each parallel result is held against the same call run
in one process, and entry ids against a plaintext oracle.
"""

import os
import time

import pytest
import support
from click.testing import CliRunner

from helb import ipmatch, phe, serial
from helb.cli import main
from helb.errors import HelbError, NotInvertible
from helb.ipmatch import build_store, match, parse_cidr, parse_ipv4, prefix_to_mask
from helb.numtheory import RandomSource

CRYPTO = RandomSource.crypto

# five prefix groups, scanned /32 first, of networks that do not overlap:
# ids 0-1 (/32), 2-3 (/24), 4 (/20), 5-7 (/16) and 8-9 (/8)
LIST = ["7.7.7.7/32", "8.8.8.8/32", "2.3.4.0/24", "2.3.5.0/24",
        "172.16.0.0/20", "10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16",
        "11.0.0.0/8", "12.0.0.0/8"]
ENTRIES = [parse_cidr(text) for text in LIST]
LOOKUPS = {"miss": "9.9.9.9", "first": "8.8.8.8", "middle": "10.1.2.3",
           "last": "12.5.6.7"}
SCHEMES = ["paillier_keys", "dj_keys", "ou_keys", "benaloh_wide_keys",
           "gm_keys", "bfv_small_keys"]
NO_INVERSE = "has no inverse modulo"


def oracle(ip: int, entries) -> int | None:
    """Entry id of the longest listed network holding `ip`, by plain
    masking: ids count networks prefix by prefix, in first-appearance
    order."""
    prefixes = list(dict.fromkeys(e.prefix_len for e in entries))
    ordered = [e for p in prefixes for e in entries if e.prefix_len == p]
    for prefix_len in sorted(prefixes, reverse=True):
        for entry_id, entry in enumerate(ordered):
            if (entry.prefix_len == prefix_len
                    and ip & prefix_to_mask(prefix_len) == entry.network):
                return entry_id
    return None


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes `ipmatch` see n usable CPUs and returns a list that
    records each fork of this process from then on."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    def force(count):
        forks.clear()
        monkeypatch.setattr(ipmatch, "_usable_cpus", lambda: count)
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return force


@pytest.fixture
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(ipmatch, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse)


def outcome(result):
    return (result.matched, result.entry_id, result.stats, result.differences)


@pytest.mark.parametrize("fixture", SCHEMES)
def test_parallel_lookups_equal_the_sequential_scan(fixture, request, cpus):
    keys = request.getfixturevalue(fixture)
    cpus(1)
    store = build_store(ENTRIES, keys, CRYPTO())
    additive = store.scheme not in (ipmatch.BFV_SCHEME, "goldwasser_micali")
    modes = [{}, {"exhaustive": True}, {"debug": True},
             {"debug": True, "exhaustive": True}]
    modes += [{"blind": True}, {"blind": True, "exhaustive": True}] if additive else []
    for name, text in LOOKUPS.items():
        ip = parse_ipv4(text)
        for mode in modes:
            cpus(1)
            want = match(ip, store, keys, CRYPTO(), **mode)
            assert want.entry_id == oracle(ip, ENTRIES), (name, mode)
            for workers in (2, 3):
                forks = cpus(workers)
                got = match(ip, store, keys, CRYPTO(), **mode)
                assert len(forks) == workers
                assert outcome(got) == outcome(want), (name, mode, workers)
                assert set(got.seconds) == set(want.seconds)


def test_seconds_sum_the_phases_of_every_batch(paillier_keys, cpus):
    cpus(2)
    store = build_store(ENTRIES, paillier_keys, CRYPTO())
    result = match(parse_ipv4(LOOKUPS["miss"]), store, paillier_keys, CRYPTO())
    assert result.stats == {"encryptions": 5, "sub_calls": 10, "zero_tests": 10}
    assert all(spent > 0 for spent in result.seconds.values())


def test_seeded_match_and_build_never_fork(paillier_keys, no_fork):
    store = build_store(ENTRIES, paillier_keys, RandomSource.seeded(1))
    result = match(parse_ipv4(LOOKUPS["last"]), store, paillier_keys,
                   RandomSource.seeded(2), exhaustive=True)
    assert result.entry_id == 9


def test_one_record_store_never_forks(bfv_small_keys, no_fork):
    store = build_store(ENTRIES, bfv_small_keys, CRYPTO(), packed=True)
    assert sum(len(records) for records in store.groups.values()) == 1
    result = match(parse_ipv4(LOOKUPS["middle"]), store, bfv_small_keys, CRYPTO())
    assert result.entry_id == 5


@pytest.mark.parametrize("fixture", ["paillier_keys", "gm_keys", "bfv_small_keys"])
@pytest.mark.parametrize("key_file", ["pub", "sec"])
def test_parallel_built_store_reads_back_and_matches(fixture, key_file, request,
                                                     cpus, tmp_path):
    keys = request.getfixturevalue(fixture)
    pub_path, sec_path = serial.write_key_files(keys, str(tmp_path / "key"))
    build_keys = serial.read_key_file(pub_path if key_file == "pub" else sec_path)
    forks = cpus(2)
    store = build_store(ENTRIES, build_keys, CRYPTO())
    assert len(forks) == 2
    serial.write_store(store, tmp_path / "store.bin")
    pair = serial.read_key_file(sec_path)
    stored = serial.read_store(tmp_path / "store.bin", pair)
    for entry_id, entry in enumerate(ENTRIES):
        ip = entry.network | (~prefix_to_mask(entry.prefix_len) & 0x12345678)
        result = match(ip, stored, pair, CRYPTO())
        assert (result.matched, result.entry_id) == (True, entry_id)
    assert not match(parse_ipv4(LOOKUPS["miss"]), stored, pair, CRYPTO()).matched


# ---------------------------------------------------------------------------
# failing closed


def _with_non_unit_record(keys, prefix_len: int):
    """A crypto-mode Paillier store whose first /`prefix_len` record shares
    the factor p with n."""
    store = build_store(ENTRIES, keys, CRYPTO())
    runs, ct = store.groups[prefix_len][0]
    store.groups[prefix_len][0] = (runs, phe.PheCiphertext(ct.scheme, 3 * keys.crt.p))
    return store


def test_worker_error_reaches_the_parent_unchanged(paillier_keys, cpus):
    store = _with_non_unit_record(paillier_keys, 20)
    miss, first = (parse_ipv4(LOOKUPS[name]) for name in ("miss", "first"))
    cpus(1)
    with pytest.raises(NotInvertible) as sequential:
        match(miss, store, paillier_keys, CRYPTO())
    assert NO_INVERSE in str(sequential.value)
    for workers in (2, 3):
        cpus(workers)
        with pytest.raises(NotInvertible) as parallel:
            match(miss, store, paillier_keys, CRYPTO())
        assert str(parallel.value) == str(sequential.value)
        # the scan settles before the bad record, as the sequential one does
        assert match(first, store, paillier_keys, CRYPTO()).entry_id == 1


def _kill_workers_at(monkeypatch, name: str):
    """Make `phe.<name>` end any process but this one without a word."""
    parent, real = os.getpid(), getattr(phe, name)

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(0)
        return real(*args, **kwargs)

    monkeypatch.setattr(phe, name, dying)


def test_worker_that_dies_without_a_result_is_an_error(paillier_keys, cpus,
                                                        monkeypatch):
    store = build_store(ENTRIES, paillier_keys, CRYPTO())
    cpus(2)
    _kill_workers_at(monkeypatch, "is_zero")
    with pytest.raises(HelbError, match="ended without the result"):
        match(parse_ipv4(LOOKUPS["miss"]), store, paillier_keys, CRYPTO())
    _kill_workers_at(monkeypatch, "encrypt")
    with pytest.raises(HelbError, match="ended without the result"):
        build_store(ENTRIES, paillier_keys.public, CRYPTO())


def test_worker_leaves_once_its_parent_is_gone(paillier_keys, cpus, monkeypatch):
    store = build_store(ENTRIES, paillier_keys, CRYPTO())
    cpus(2)
    monkeypatch.setattr(os, "getppid", lambda: 1)  # as if reparented to init
    with pytest.raises(HelbError, match="ended without the result of job 0"):
        match(parse_ipv4(LOOKUPS["miss"]), store, paillier_keys, CRYPTO())


def test_early_hit_leaves_no_child(paillier_keys, cpus):
    store = build_store(ENTRIES, paillier_keys, CRYPTO())
    forks = cpus(3)
    result = match(parse_ipv4(LOOKUPS["first"]), store, paillier_keys, CRYPTO())
    assert (result.entry_id, len(forks)) == (1, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_reaped_on_keyboard_interrupt(cpus):
    cpus(2)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with ipmatch._spread(lambda seconds: time.sleep(seconds) or seconds,
                             [0, 60, 60], [1, 1, 1], CRYPTO()) as results:
            assert next(results) == 0
            raise KeyboardInterrupt
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert time.monotonic() - started < 30


class TestCliOnTheParallelPath:
    runner = CliRunner()

    def run(self, *args):
        return self.runner.invoke(main, [str(a) for a in args])

    @pytest.fixture
    def files(self, tmp_path, cpus):
        """Seeded Paillier key files and an unseeded store of `LIST`,
        built by two workers."""
        base, cidrs = tmp_path / "pai", tmp_path / "list.txt"
        cidrs.write_text("\n".join(LIST) + "\n")
        assert self.run("keygen", "--scheme", "paillier", "--bits", 512,
                        "--out", base, "--seed", 1).exit_code == 0
        forks = cpus(2)
        store = tmp_path / "store.bin"
        result = self.run("blacklist", "encrypt", "--key", f"{base}.pub",
                          "--cidr-file", cidrs, "--out", store)
        assert result.exit_code == 0, result.output
        assert len(forks) == 2
        return f"{base}.sec", store

    def match(self, sec, store, ip):
        return self.run("match", "--keys", sec, "--store", store, "--ip", ip)

    def test_hit_and_miss(self, files):
        assert self.match(*files, LOOKUPS["middle"]).exit_code == 0
        assert self.match(*files, LOOKUPS["miss"]).exit_code == 1

    def test_non_unit_record_exits_two(self, files):
        sec, path = files
        keys = serial.read_key_file(sec)
        store = serial.read_store(path, keys)
        runs, ct = store.groups[20][0]
        store.groups[20][0] = (runs, phe.PheCiphertext(ct.scheme, 3 * keys.crt.q))
        serial.write_store(store, path)
        result = self.match(sec, path, LOOKUPS["miss"])
        assert result.exit_code == 2, result.output
        assert NO_INVERSE in result.output

    def test_flipped_record_bit_exits_two(self, files):
        sec, path = files
        data = bytearray(path.read_bytes())
        data[-33] ^= 1
        path.write_bytes(bytes(data))
        result = self.match(sec, path, LOOKUPS["miss"])
        assert result.exit_code == 2, result.output
        assert "damaged" in result.output

    def test_damaged_header_exits_two(self, files):
        sec, path = files
        support.set_header_runs(path, [(32, 2), (24, 2), (20, 1), (16, 3), (8, 3)])
        result = self.match(sec, path, LOOKUPS["miss"])
        assert result.exit_code == 2, result.output

    def test_worker_death_exits_two_never_one(self, files, monkeypatch):
        _kill_workers_at(monkeypatch, "is_zero")
        result = self.match(*files, LOOKUPS["miss"])
        assert result.exit_code == 2, result.output
        assert "ended without the result" in result.output

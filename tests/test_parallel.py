"""Lookups, store builds and prime searches spread over worker processes.

Workers are forced by patching `pool._usable_cpus` (the `cpus` fixture).
Every store and lookup here draws crypto randomness, since a seeded
source keeps that work in one process; a prime search forks for a seeded
source too, and keeps the stream in this process.  Each parallel result
is held against the same call run in one process, and entry ids against
a plaintext oracle.
"""

import os
import pathlib
import time

import pytest
import support

from helb import bfv, ipmatch, numtheory, phe, pool, serial
from helb.errors import HelbError, NotInvertible
from helb.ipmatch import build_store, match, parse_cidr, parse_ipv4, prefix_to_mask
from helb.numtheory import RandomSource, gen_prime, gen_safe_prime, is_probable_prime
from helb.phe import SchemeId

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
           "ns_keys", "gm_keys", "bfv_small_keys"]
NO_INVERSE = "has no inverse modulo"


def oracle(ip: int, entries) -> int | None:
    """Entry id of the longest listed network holding `ip`, by plain
    masking: ids count networks prefix by prefix, in first-appearance
    order."""
    prefixes = list(dict.fromkeys(plen for _, plen in entries))
    ordered = [e for p in prefixes for e in entries if e[1] == p]
    for prefix_len in sorted(prefixes, reverse=True):
        for entry_id, (network, plen) in enumerate(ordered):
            if plen == prefix_len and ip & prefix_to_mask(plen) == network:
                return entry_id
    return None


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes `pool` see n usable CPUs and returns a list that
    records each fork of this process from then on."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    def force(count):
        forks.clear()
        monkeypatch.setattr(pool, "_usable_cpus", lambda: count)
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return force


@pytest.fixture
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse)


def outcome(result):
    return (result.matched, result.entry_id, result.stats, result.differences)


@pytest.mark.parametrize("fixture", SCHEMES)
def test_parallel_lookups_equal_the_sequential_scan(fixture, request, cpus):
    keys = request.getfixturevalue(fixture)
    cpus(1)
    store = build_store(ENTRIES, keys, CRYPTO())
    # blinding needs one message modulus, which the lattice backend,
    # Naccache-Stern and Goldwasser-Micali lack
    additive = (store.pub.SCHEME != ipmatch.BFV_SCHEME
                and phe.message_modulus(keys) is not None)
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
    assert result.stats == {"encryptions": 1, "sub_calls": 10, "zero_tests": 10}
    assert all(spent > 0 for spent in result.seconds.values())


@pytest.fixture
def encryptions(monkeypatch):
    """A list of the encryptions made in this process from then on; one
    made in a forked worker fails there, and the lookup raises it here."""
    calls, parent = [], os.getpid()

    def spy(module):
        encrypt = module.encrypt

        def counting(*args, **kwargs):
            assert os.getpid() == parent, "a worker process encrypted"
            calls.append(args[1] if module is phe else "lattice")
            return encrypt(*args, **kwargs)

        monkeypatch.setattr(module, "encrypt", counting)

    spy(phe)
    spy(bfv)
    return calls


@pytest.mark.parametrize("fixture", SCHEMES + ["packed"])
def test_every_lookup_makes_one_encryption(fixture, request, cpus, encryptions):
    packed = fixture == "packed"
    keys = request.getfixturevalue("bfv_small_keys" if packed else fixture)
    cpus(1)
    store = build_store(ENTRIES, keys, CRYPTO(), packed=packed)
    for workers in (1, 2):
        for name, text in LOOKUPS.items():
            for exhaustive in (False, True):
                ip = parse_ipv4(text)
                cpus(workers)
                encryptions.clear()
                result = match(ip, store, keys, CRYPTO(), exhaustive=exhaustive)
                assert result.entry_id == oracle(ip, ENTRIES)
                # of zero: the queries of all prefix groups derive from it
                assert len(encryptions) == result.stats["encryptions"] == 1, \
                    (name, workers)
                assert encryptions[0] in (0, "lattice")


def test_seeded_match_and_build_never_fork(paillier_keys, no_fork):
    store = build_store(ENTRIES, paillier_keys, RandomSource.seeded(1))
    result = match(parse_ipv4(LOOKUPS["last"]), store, paillier_keys,
                   RandomSource.seeded(2), exhaustive=True)
    assert result.entry_id == 9


def test_one_record_store_never_forks(bfv_small_keys, no_fork):
    store = build_store(ENTRIES, bfv_small_keys, CRYPTO(), packed=True)
    assert len(store.records) == 1
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
    for entry_id, (network, prefix_len) in enumerate(ENTRIES):
        ip = network | (~prefix_to_mask(prefix_len) & 0x12345678)
        result = match(ip, stored, pair, CRYPTO())
        assert (result.matched, result.entry_id) == (True, entry_id)
    assert not match(parse_ipv4(LOOKUPS["miss"]), stored, pair, CRYPTO()).matched


# ---------------------------------------------------------------------------
# failing closed


def _with_non_unit_record(keys, prefix_len: int):
    """A crypto-mode Paillier store whose first /`prefix_len` record shares
    the factor p with n."""
    store = build_store(ENTRIES, keys, CRYPTO())
    first = next(i for i, runs in enumerate(store.layout()) if runs[0][0] == prefix_len)
    store.records[first] = 3 * keys.crt.p
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
    def run(self, *args):
        return support.run_cli(*args)

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
        assert store.layout()[4] == ((20, 4, 1),)
        store.records[4] = 3 * keys.crt.q
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


# ---------------------------------------------------------------------------
# prime search

# moduli whose primes are large enough for the search to fork, down to
# the third of the modulus that is Okamoto-Uchiyama's p
KEY_BITS = 3 * numtheory._FORK_BITS
KEY_SCHEMES = [SchemeId.PAILLIER, SchemeId.DAMGARD_JURIK,
               SchemeId.OKAMOTO_UCHIYAMA, SchemeId.GOLDWASSER_MICALI,
               SchemeId.BENALOH]


@pytest.mark.parametrize("scheme", KEY_SCHEMES)
def test_seeded_key_files_are_the_same_on_one_and_two_cpus(scheme, cpus, tmp_path):
    files = []
    for count in (1, 2):
        forks = cpus(count)
        keys = phe.keygen(scheme, KEY_BITS, RandomSource.seeded(7), test_mode=True)
        assert bool(forks) == (count == 2)
        paths = serial.write_key_files(keys, str(tmp_path / f"cpus{count}"))
        files.append([pathlib.Path(path).read_bytes() for path in paths])
    assert files[0] == files[1]


def test_seeded_safe_prime_is_the_same_on_one_two_and_three_cpus(cpus):
    # three workers spread each 40-round test over more than two processes
    found = []
    for count in (1, 2, 3):
        forks = cpus(count)
        rng = RandomSource.seeded(5)
        found.append((gen_safe_prime(numtheory._FORK_BITS, rng), rng.getrandbits(64)))
        assert len(forks) == (count if count > 1 else 0)
    assert found[0] == found[1] == found[2]


def test_candidates_drawn_past_the_winner_do_not_shift_the_stream(cpus):
    bits = numtheory._FORK_BITS

    def counted(rng):
        """`rng`, with a list that records each of its draws."""
        draws, draw = [], rng.getrandbits
        rng.getrandbits = lambda k: draws.append(k) or draw(k)
        return rng, draws

    def plain_loop(rng):
        while True:
            candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            if is_probable_prime(candidate):
                return candidate

    for seed in range(3):
        rng, plain_draws = counted(RandomSource.seeded(seed))
        want = [plain_loop(rng), plain_loop(rng), rng.getrandbits(64)]
        for workers in (2, 3):
            forks = cpus(workers)
            rng, draws = counted(RandomSource.seeded(seed))
            p, q = gen_prime(bits, rng), gen_prime(bits, rng)
            assert [p, q, rng.getrandbits(64)] == want
            assert len(forks) == 2 * workers
            assert len(draws) > len(plain_draws)  # the parent drew ahead


@pytest.mark.parametrize("count", [1, 2, 3])
def test_crypto_search_forks_one_worker_per_usable_cpu(count, cpus):
    forks = cpus(count)
    p = gen_prime(numtheory._FORK_BITS, RandomSource.crypto())
    assert p.bit_length() == numtheory._FORK_BITS and is_probable_prime(p)
    assert len(forks) == (count if count > 1 else 0)


@pytest.mark.parametrize("count", [1, 2])
def test_search_gives_up_after_its_tries(count, cpus):
    # a composite that passes both sieve stages: every try takes a round
    p, q = (gen_prime(200, RandomSource.seeded(seed)) for seed in (1, 2))
    composite = p * q
    assert composite.bit_length() >= numtheory._FORK_BITS
    draws = []
    forks = cpus(count)
    found = numtheory.find_prime(lambda: draws.append(1) or composite,
                                 numtheory._FORK_BITS, RandomSource.seeded(3), 25)
    assert (found, len(draws), len(forks)) == (None, 25, count if count > 1 else 0)


def test_test_size_keygen_never_forks(no_fork):
    for scheme in SchemeId:
        bits = 224 if scheme == SchemeId.NACCACHE_STERN else 256
        for rng in (RandomSource.seeded(1), RandomSource.crypto()):
            phe.keygen(scheme, bits, rng, test_mode=True)


def _kill_search_workers(monkeypatch):
    """Make the Miller-Rabin rounds end any process but this one without
    a word."""
    parent, real = os.getpid(), numtheory._passes

    def dying(job):
        if os.getpid() != parent:
            os._exit(0)
        return real(job)

    monkeypatch.setattr(numtheory, "_passes", dying)


def test_search_worker_that_dies_is_an_error(cpus, monkeypatch, tmp_path):
    cpus(2)
    _kill_search_workers(monkeypatch)
    with pytest.raises(HelbError, match="a worker process ended"):
        gen_prime(numtheory._FORK_BITS, RandomSource.crypto())
    result = support.run_cli("keygen", "--scheme", "paillier", "--bits", KEY_BITS,
                             "--out", tmp_path / "k", "--seed", 1)
    assert result.exit_code == 2, result.output
    assert "a worker process ended" in result.output


def test_search_workers_are_reaped_on_keyboard_interrupt(cpus, monkeypatch):
    import select

    def interrupted(*args):
        raise KeyboardInterrupt

    forks = cpus(2)
    monkeypatch.setattr(select, "select", interrupted)
    with pytest.raises(KeyboardInterrupt):
        gen_prime(numtheory._FORK_BITS, RandomSource.crypto())
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_remains_after_keygen_encrypt_and_match(cpus, tmp_path):
    base, cidrs, store = tmp_path / "pai", tmp_path / "list.txt", tmp_path / "store.bin"
    cidrs.write_text("\n".join(LIST) + "\n")
    commands = [
        ["keygen", "--scheme", "paillier", "--bits", KEY_BITS, "--out", base,
         "--seed", 3],
        ["blacklist", "encrypt", "--key", f"{base}.pub", "--cidr-file", cidrs,
         "--out", store],
        ["match", "--keys", f"{base}.sec", "--store", store, "--ip", LOOKUPS["miss"]],
    ]
    for args in commands:
        forks = cpus(2)
        result = support.run_cli(*args)
        assert result.exit_code in (0, 1), result.output
        assert forks, args[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

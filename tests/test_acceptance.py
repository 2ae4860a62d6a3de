"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances and counts are fixed here, not configurable.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear
(the suite takes a few minutes; the lattice trials at ring dimension 4096
dominate).
"""

import functools
import math
import random
import sys
import time

import support

from helb import bench, bfv, ipmatch, phe
from helb.numtheory import RandomSource, is_probable_prime
from helb.phe import SchemeId

RNG = RandomSource.seeded

# protocol-level lattice profiles: same proven moduli as the support
# profiles, smaller rings so tens of thousands of operations stay cheap
C3_PARAMS = bfv.BfvParams(32, 4_294_967_681, 4_507_448_322_114_433, 3.2)
C6_PARAMS = bfv.BfvParams(16, 4_294_967_681, 4_507_448_322_114_433, 3.2)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {title}: FAIL", file=sys.stderr)
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.1f}s)")

        return wrapper

    return decorate


def _sample_message(rnd, scheme, keys):
    if scheme is SchemeId.GOLDWASSER_MICALI:
        return rnd.getrandbits(32)
    if scheme in (SchemeId.OKAMOTO_UCHIYAMA, SchemeId.NACCACHE_STERN):
        return rnd.randrange(keys.public.message_space)
    return rnd.randrange(min(phe.message_modulus(keys), 1 << 128))


@criterion(1, "scheme correctness at 512-bit test keys")
def test_criterion_1_scheme_correctness():
    started = time.perf_counter()
    scheme_opts = {
        SchemeId.PAILLIER: {},
        SchemeId.DAMGARD_JURIK: {},
        SchemeId.OKAMOTO_UCHIYAMA: {},
        SchemeId.BENALOH: {"r": 257},  # toy block size: full-decrypt path
        SchemeId.NACCACHE_STERN: {},
        SchemeId.GOLDWASSER_MICALI: {},
    }
    for scheme, opts in scheme_opts.items():
        keys = phe.keygen(scheme, 512, RNG(1000 + list(SchemeId).index(scheme)),
                          test_mode=True, **opts)
        rnd = random.Random(f"c1-{scheme}")
        rng = RNG(2000 + list(SchemeId).index(scheme))

        for _ in range(1000):
            m = _sample_message(rnd, scheme, keys)
            assert phe.decrypt(keys, phe.encrypt(keys, m, rng)) == m

        if scheme is SchemeId.GOLDWASSER_MICALI:
            for _ in range(1000):
                m1, m2 = rnd.getrandbits(32), rnd.getrandbits(32)
                out = phe.xor_encrypted(keys, phe.encrypt(keys, m1, rng),
                                        phe.encrypt(keys, m2, rng))
                assert phe.decrypt(keys, out) == m1 ^ m2
            continue
        if scheme is SchemeId.NACCACHE_STERN:
            # capacity-respecting identities: disjoint-bit sums, dominated
            # subtractions, boolean scalars
            width = keys.public.n_bits
            for i in range(1000):
                op = i % 3
                m1 = rnd.getrandbits(width)
                if op == 0:
                    m2 = rnd.getrandbits(width) & ~m1
                    out = phe.add_encrypted(keys, phe.encrypt(keys, m1, rng),
                                            phe.encrypt(keys, m2, rng))
                    assert phe.decrypt(keys, out) == m1 + m2
                elif op == 1:
                    m2 = m1 & rnd.getrandbits(width)
                    out = phe.sub_encrypted(keys, phe.encrypt(keys, m1, rng),
                                            phe.encrypt(keys, m2, rng))
                    assert phe.decrypt(keys, out) == m1 - m2
                else:
                    k = rnd.randrange(2)
                    out = phe.scalar_mul(keys, phe.encrypt(keys, m1, rng), k)
                    assert phe.decrypt(keys, out) == k * m1
            continue
        modulus = phe.message_modulus(keys)
        for i in range(1000):
            op = i % 3
            m1 = _sample_message(rnd, scheme, keys)
            m2 = _sample_message(rnd, scheme, keys)
            c1 = phe.encrypt(keys, m1, rng)
            if op == 0:
                out = phe.add_encrypted(keys, c1, phe.encrypt(keys, m2, rng))
                expect = (m1 + m2) % modulus
            elif op == 1:
                out = phe.sub_encrypted(keys, c1, phe.encrypt(keys, m2, rng))
                expect = (m1 - m2) % modulus
            else:
                k = rnd.randrange(1 << 16)
                out = phe.scalar_mul(keys, c1, k)
                expect = m1 * k % modulus
            assert phe.decrypt(keys, out) == expect
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"criterion budget exceeded: {elapsed:.1f}s"


@criterion(2, "bitwise worked example 17 xor 16 = 1")
def test_criterion_2_gm_worked_example():
    keys = phe.keygen(SchemeId.GOLDWASSER_MICALI, 512, RNG(21), test_mode=True)
    rng = RNG(22)
    c17 = phe.encrypt(keys, 17, rng)
    c16 = phe.encrypt(keys, 16, rng)
    assert phe.decrypt(keys, phe.xor_encrypted(keys, c17, c16)) == 1


def _random_instance(rnd):
    entries = support.random_entries(rnd, rnd.randrange(1, 6))
    entries = list(dict.fromkeys(entries))
    return entries, support.biased_address(rnd, entries)


@criterion(3, "matching agrees with the plaintext oracle, 10k per protocol")
def test_criterion_3_matching_oracle_equivalence():
    trials = 10_000

    pai_keys = phe.keygen(SchemeId.PAILLIER, 192, RNG(31), test_mode=True)
    rnd = random.Random("c3-paillier")
    rng = RNG(32)
    for _ in range(trials):
        entries, ip = _random_instance(rnd)
        store = ipmatch.build_store(entries, pai_keys, rng)
        got = ipmatch.match(ip, store, pai_keys, rng).matched
        assert got == support.plain_member(ip, entries)

    assert not bfv.param_violations(C3_PARAMS)
    lat_keys = bfv.keygen(C3_PARAMS, RNG(33))
    rnd = random.Random("c3-bfv")
    rng = RNG(34)
    for _ in range(trials):
        entries, ip = _random_instance(rnd)
        store = ipmatch.build_store(entries, lat_keys, rng)
        got = ipmatch.match(ip, store, lat_keys, rng).matched
        assert got == support.plain_member(ip, entries)

    gm_keys = phe.keygen(SchemeId.GOLDWASSER_MICALI, 192, RNG(35), test_mode=True)
    rnd = random.Random("c3-gm")
    rng = RNG(36)
    for _ in range(trials):
        entries, ip = _random_instance(rnd)
        store = ipmatch.build_store(entries, gm_keys, rng)
        got = ipmatch.match(ip, store, gm_keys, rng).matched
        assert got == support.plain_member(ip, entries)


@criterion(4, "lattice parameter validation")
def test_criterion_4_parameter_fidelity():
    q = bfv.desk_params().ciphertext_mod
    assert not bfv.param_violations(bfv.BfvParams(16384, 35_184_372_744_193, q, 3.2))
    assert not bfv.param_violations(bfv.BfvParams(4096, 65_537, q, 3.2))

    rnd = random.Random("c4")
    n = 4096
    rejected = 0
    while rejected < 1000:
        t = rnd.randrange(3, 1 << 50) | 1
        if (t - 1) % (2 * n) == 0 and is_probable_prime(t):
            continue  # not a violating value
        assert bfv.param_violations(bfv.BfvParams(n, t, q, 3.2))
        rejected += 1
    assert rejected == 1000


@criterion(5, "depth-0 exactness at ring dimension 4096, 1000 trials")
def test_criterion_5_bfv_depth0_exactness(desk_keys):
    params = bfv.desk_params()
    t, n = params.plaintext_mod, params.ring_dim
    budget = bfv.additive_noise_budget(params, 1)
    assert budget < params.noise_threshold
    rnd = random.Random("c5")
    rng = RNG(51)
    worst = 0
    for _ in range(1000):
        v1 = [rnd.randrange(t) for _ in range(n)]
        v2 = [rnd.randrange(t) for _ in range(n)]
        ct1 = bfv.encrypt(desk_keys, bfv.encode(v1, params), params, rng)
        ct2 = bfv.encrypt(desk_keys, bfv.encode(v2, params), params, rng)
        diff = bfv.eval_sub(ct1, ct2)
        expected = bfv.encode([(a - b) % t for a, b in zip(v1, v2)], params)
        noise = support.measure_noise(desk_keys, diff, expected, params)
        assert noise <= budget, f"noise {noise} exceeds budget {budget}"
        worst = max(worst, noise)
        assert bfv.decrypt(desk_keys, diff, params) == expected
    print(f"  [worst observed noise {worst} of budget {budget}]")


@criterion(6, "packed matching equivalence, 1000 random stores")
def test_criterion_6_batch_packing_equivalence():
    assert not bfv.param_violations(C6_PARAMS)
    n = C6_PARAMS.ring_dim
    keys = bfv.keygen(C6_PARAMS, RNG(61))
    rnd = random.Random("c6")
    rng = RNG(62)
    for i in range(1000):
        if i < 5:
            size = rnd.randrange(700, 801)  # force many packs per group
        elif i < 50:
            size = rnd.randrange(65, 400)
        else:
            size = rnd.randrange(1, 40)
        entries = support.random_entries(rnd, size)
        entries = list(dict.fromkeys(entries))
        packed = ipmatch.build_store(entries, keys, rng, packed=True)
        unpacked = ipmatch.build_store(entries, keys, rng)
        ip = support.biased_address(rnd, entries)
        a = ipmatch.match(ip, packed, keys, rng)
        b = ipmatch.match(ip, unpacked, keys, rng)
        assert a.matched == b.matched
        if a.matched:
            assert a.entry_id == b.entry_id

    # instrumented subtraction count on single-group stores
    for size in (1, n, n + 1, 333, 800):
        entries = bench.random_cidrs(size, rng, prefix_len=24)
        store = ipmatch.build_store(entries, keys, rng, packed=True)
        result = ipmatch.match(0x7F000001, store, keys, rng, exhaustive=True)
        assert result.stats["sub_calls"] == math.ceil(size / n)

    # and on stores of all four prefix lengths, which share ciphertexts
    for size in (1, n, n + 1, 333, 800):
        entries = support.random_entries(rnd, size)
        entries = list(dict.fromkeys(entries))
        store = ipmatch.build_store(entries, keys, rng, packed=True)
        result = ipmatch.match(0x7F000001, store, keys, rng, exhaustive=True)
        assert result.stats["sub_calls"] == math.ceil(len(entries) / n)

    # one large-ring spot check: 800 entries fit one ciphertext, so the
    # packed path does exactly one subtraction where the plain path does 800
    wide = bfv.keygen(support.SCALE_PARAMS, RNG(63))
    entries = bench.random_cidrs(800, rng, prefix_len=24)
    packed = ipmatch.build_store(entries, wide, rng, packed=True)
    target = entries[-1][0] | 5
    result = ipmatch.match(target, packed, wide, rng, exhaustive=True)
    assert result.matched
    assert result.stats["sub_calls"] == 1


@criterion(7, "benchmark table shape and scale-curve properties")
def test_criterion_7_benchmark_structure(monkeypatch):
    result = support.run_cli("bench", "--iterations", "1",
                             "--bits", "128", "--seed", "71",
                             "--format", "csv")
    assert result.exit_code == 0, result.output
    data = [line.split(",") for line in result.output.splitlines()
            if line and not line.startswith("#")]
    header, rows = data[0], data[1:]
    assert len(rows) == 7, "one row per scheme backend"
    timing_columns = ("keypair_ms", "encrypt_ms", "op_decrypt_ms")
    for column in timing_columns:
        assert column in header
    for row in rows:
        for column in timing_columns:
            assert float(row[header.index(column)]) > 0

    # the CPU time of each scan, which a seeded match runs in this process;
    # another process on the host disturbs it far less than wall time
    scan_cpu_s = []
    match = ipmatch.match

    def timed_match(*args, **kwargs):
        start = time.process_time()
        result = match(*args, **kwargs)
        scan_cpu_s.append(time.process_time() - start)
        return result

    monkeypatch.setattr(ipmatch, "match", timed_match)
    scale_rows = bench.bench_scale(bench.DEFAULT_SCALE_COUNTS,
                                   params=support.SCALE_PARAMS, seed=72)
    assert [r.n_addresses for r in scale_rows] == [50, 100, 200, 400, 800]
    for row in scale_rows:
        assert row.encrypt_total_s > row.search_total_s, (
            f"N={row.n_addresses}: encryption must dominate the search")

    xs = [r.n_addresses for r in scale_rows]
    assert len(scan_cpu_s) == len(xs), "one scan per count"
    ys = scan_cpu_s
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / \
        sum((x - x_mean) ** 2 for x in xs)
    intercept = y_mean - slope * x_mean
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    r_squared = 1 - ss_res / ss_tot
    print(f"  [search CPU-time linear fit R^2 = {r_squared:.4f}]")
    assert r_squared >= 0.95


@criterion(8, "hardware metadata and non-comparability statement")
def test_criterion_8_non_reproducibility_statement():
    # absolute milliseconds from other hosts are NOT targets; the harness
    # must say so and report the metadata needed to interpret its numbers
    assert "not comparable" in bench.NON_COMPARABLE_NOTE
    meta = bench.hardware_metadata()
    assert meta["platform"] and meta["python"] and meta["cpu_count"]

    result = support.run_cli("bench", "--schemes", "benaloh",
                             "--iterations", "1", "--bits", "128",
                             "--seed", "81")
    assert result.exit_code == 0, result.output
    assert "# platform:" in result.output
    assert "# note:" in result.output
    assert "not comparable" in result.output

    result = support.run_cli("bench", "scale", "--counts", "2",
                             "--seed", "82")
    assert result.exit_code == 0, result.output
    assert "# platform:" in result.output
    assert "not comparable" in result.output

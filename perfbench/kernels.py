"""Time single kernels through public `helb` functions, in this process.

Usage: python3 kernels.py --seed N           # warm kernels, JSON on stdout
       python3 kernels.py --seed N --cold    # first ring product only

`--cold` times the first `bfv.negacyclic_mul` of a fresh interpreter, so
the lazily built transform tables are included; run it as a short-lived
process of its own, so that no cache is shared with any other timing.
Every other figure is a median over repeated calls after one warm-up call.
Operands: the `desk` profile (n = 4096) with a uniform times a ternary
polynomial drawn from `--seed`, and Paillier with 2048-bit keys.  Key and
prime generation use the benchmark's fixed key seed, so they repeat the
same search in every run, as `setup_s` does.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

from helb import bfv, numtheory, phe
from helb.numtheory import RandomSource
from helb.phe import SchemeId
from workloads import KEYGEN_SEED

PHE_BITS = 2048
PRIME_BITS = 1024


def _median_ms(fn, repeats: int, warmup: bool = True) -> float:
    if warmup:
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1000


def _ring_operands(seed: int):
    params = bfv.desk_params()
    n, q = params.ring_dim, params.ciphertext_mod
    rng = random.Random(f"helb-kernels:{seed}")
    uniform = [rng.randrange(q) for _ in range(n)]
    ternary = [(rng.randrange(3) - 1) % q for _ in range(n)]
    return uniform, ternary, q


def cold_ring_mul_ms(seed: int) -> float:
    uniform, ternary, q = _ring_operands(seed)
    t0 = time.perf_counter()
    bfv.negacyclic_mul(uniform, ternary, q)
    return (time.perf_counter() - t0) * 1000


def warm_kernels(seed: int) -> dict[str, float]:
    out = {}
    uniform, ternary, q = _ring_operands(seed)
    out["bfv.ring_mul_ms"] = _median_ms(
        lambda: bfv.negacyclic_mul(uniform, ternary, q), 5)

    params = bfv.desk_params()
    crypto = RandomSource.crypto()
    out["bfv.keygen_ms"] = _median_ms(
        lambda: bfv.keygen(params, RandomSource.seeded(KEYGEN_SEED)), 3)
    keys = bfv.keygen(params, RandomSource.seeded(KEYGEN_SEED))
    target = bfv.encode([0x0A000000], params)
    entry = bfv.encode([0x0A000100], params)
    ct_target = bfv.encrypt(keys, target, params, crypto)
    ct_entry = bfv.encrypt(keys, entry, params, crypto)
    diff = bfv.eval_sub(ct_target, ct_entry)
    out["bfv.encrypt_ms"] = _median_ms(
        lambda: bfv.encrypt(keys, target, params, crypto), 5)
    out["bfv.eval_sub_ms"] = _median_ms(
        lambda: bfv.eval_sub(ct_target, ct_entry), 21)
    out["bfv.decrypt_ms"] = _median_ms(lambda: bfv.decrypt(keys, diff, params), 5)

    t0 = time.perf_counter()
    phe_keys = phe.keygen(SchemeId.PAILLIER, PHE_BITS,
                          RandomSource.seeded(KEYGEN_SEED), test_mode=True)
    out["phe.keygen_ms"] = (time.perf_counter() - t0) * 1000
    pt_target, pt_entry = 0x0A000000, 0x0A000100
    c_target = phe.encrypt(phe_keys, pt_target, crypto)
    c_entry = phe.encrypt(phe_keys, pt_entry, crypto)
    c_diff = phe.sub_encrypted(phe_keys, c_target, c_entry)
    out["phe.encrypt_ms"] = _median_ms(
        lambda: phe.encrypt(phe_keys, pt_target, crypto), 5)
    out["phe.sub_encrypted_ms"] = _median_ms(
        lambda: phe.sub_encrypted(phe_keys, c_target, c_entry), 21)
    out["phe.is_zero_ms"] = _median_ms(lambda: phe.is_zero(phe_keys, c_diff), 5)

    out["numtheory.gen_prime_ms"] = _median_ms(
        lambda: numtheory.gen_prime(PRIME_BITS, RandomSource.seeded(KEYGEN_SEED)),
        3, warmup=False)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cold", action="store_true")
    args = parser.parse_args()
    if args.cold:
        result = {"bfv.ring_mul_cold_ms": cold_ring_mul_ms(args.seed)}
    else:
        result = warm_kernels(args.seed)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()

"""Golden store files: the bytes of one seeded store per record layout.

The keys are the seeded session fixtures from conftest.py, the networks a
fixed list with a duplicate and a network with host bits set.  A change to
the store format, the entry order, the slot layout or the encryption
randomness changes a digest here; existing store files would then stop
loading or stop reproducing.
"""

import hashlib
import random

import pytest
import support

from helb import ipmatch, serial
from helb.numtheory import RandomSource

CIDRS = ["10.0.0.0/8", "172.16.0.0/12", "192.168.1.0/24", "192.168.1.77/24",
         "8.8.8.8/32", "203.0.113.0/24", "10.0.0.0/8", "1.2.3.4/32"]

# case -> (key fixture, packed, extra random networks, seed)
CASES = {
    "paillier": ("paillier_keys", False, 0, 1),
    "goldwasser_micali": ("gm_keys", False, 0, 2),
    "bfv": ("bfv_small_keys", False, 0, 3),
    # a hundred more networks at ring_dim 64: two packed records
    "bfv_packed": ("bfv_small_keys", True, 100, 4),
}

GOLDEN = {
    "paillier": (
        "3f03307e390d9c1d4542bc4b2ec9103bfa807df3167bb40f0ebf0744c4e2fcac"),
    "goldwasser_micali": (
        "32ab464588c45094b4ab0c39db59499745ac6a0acd0f69719787d37ff6942af7"),
    "bfv": (
        "4898e3164884aecec4288a8c84db506bc6db65cb3bb5d8da9a4344dcb31073c4"),
    "bfv_packed": (
        "393538c80e57387bf1a95c1ed7aad1858bf93f5467e05e12e8e2cda7a761eb27"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_store_files_match_golden_digests(case, request, tmp_path):
    fixture, packed, extra, seed = CASES[case]
    keys = request.getfixturevalue(fixture)
    entries = [ipmatch.parse_cidr(text) for text in CIDRS]
    entries += support.random_entries(random.Random(seed), extra)
    store = ipmatch.build_store(entries, keys, RandomSource.seeded(seed),
                                packed=packed)
    path, again = str(tmp_path / "store.bin"), str(tmp_path / "again.bin")
    serial.write_store(store, path)
    # a store read back writes the same bytes
    serial.write_store(serial.read_store(path, keys), again)
    for written in (path, again):
        with open(written, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN[case]

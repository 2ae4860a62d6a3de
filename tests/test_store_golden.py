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
        "b0739a40fedaef7aed783f24e665340af87ba0fdcf34522062ba1847b5da9a2e"),
    "goldwasser_micali": (
        "9b0ede909e302103ca73028feb6a4795c3cfb0db8348d508fb1b898f0f3cfd35"),
    "bfv": (
        "996b7573ab3496d12b1b922827af6d6a6e9598b3d01651fd8aa77fe90664d9b6"),
    "bfv_packed": (
        "105be1980547d5ac2c9254070625a250e6877d6970fd6749aa78dfb45adac252"),
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

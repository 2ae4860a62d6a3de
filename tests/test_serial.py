import os
import random
import stat

import pytest
import support

from helb import bfv, ipmatch, phe, serial
from helb.errors import FormatError
from helb.numtheory import RandomSource

RNG = RandomSource.seeded

ALL_KEY_FIXTURES = ["paillier_keys", "dj_keys", "ou_keys", "benaloh_keys",
                    "ns_keys", "gm_keys", "bfv_small_keys"]


@pytest.mark.parametrize("fixture", ALL_KEY_FIXTURES)
def test_key_round_trip_is_byte_identical(fixture, request, tmp_path):
    keys = request.getfixturevalue(fixture)
    base = str(tmp_path / "key")
    pub_path, sec_path = serial.write_key_files(keys, base)

    loaded = serial.read_key_file(sec_path)
    assert loaded == keys

    base2 = str(tmp_path / "again")
    pub2, sec2 = serial.write_key_files(loaded, base2)
    assert open(pub_path, "rb").read() == open(pub2, "rb").read()
    assert open(sec_path, "rb").read() == open(sec2, "rb").read()


@pytest.mark.parametrize("fixture", ALL_KEY_FIXTURES)
def test_public_file_loads_public_part(fixture, request, tmp_path):
    keys = request.getfixturevalue(fixture)
    pub_path, _ = serial.write_key_files(keys, str(tmp_path / "key"))
    loaded = serial.read_key_file(pub_path)
    if isinstance(keys, bfv.BfvKeyPair):
        assert loaded == keys.public
    else:
        assert loaded == keys.public
    assert not hasattr(loaded, "secret") or isinstance(loaded, bfv.BfvPublicKey)


def test_secret_file_has_restrictive_permissions(paillier_keys, tmp_path):
    _, sec_path = serial.write_key_files(paillier_keys, str(tmp_path / "key"))
    mode = stat.S_IMODE(os.stat(sec_path).st_mode)
    assert mode == 0o600


def test_loaded_public_key_can_encrypt(paillier_keys, tmp_path):
    pub_path, sec_path = serial.write_key_files(paillier_keys, str(tmp_path / "key"))
    pub = serial.read_key_file(pub_path)
    full = serial.read_key_file(sec_path)
    ct = phe.encrypt(pub, 12345, RNG(1))
    assert phe.decrypt(full, ct) == 12345


class TestKeyFileErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "k"
        path.write_text("NOT-A-KEY v9\nscheme = paillier\n")
        with pytest.raises(FormatError):
            serial.read_key_file(str(path))

    def test_unknown_scheme(self, tmp_path):
        path = tmp_path / "k"
        path.write_text("HELB-KEY v1\nscheme = rot13\nn = ff\n")
        with pytest.raises(FormatError):
            serial.read_key_file(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "k"
        path.write_text("HELB-KEY v1\nscheme = paillier\nn = ff\n")
        with pytest.raises(FormatError, match="missing"):
            serial.read_key_file(str(path))

    def test_bad_hex(self, tmp_path):
        path = tmp_path / "k"
        path.write_text("HELB-KEY v1\nscheme = paillier\nn = zz\ng = 01\n")
        with pytest.raises(FormatError):
            serial.read_key_file(str(path))


# ---------------------------------------------------------------------------
# store files


def _random_store(keys, seed, count=12, packed=False):
    rnd = random.Random(seed)
    entries = support.random_entries(rnd, count)
    entries = list({(e.network, e.prefix_len): e for e in entries}.values())
    return entries, ipmatch.build_store(entries, keys, RNG(seed), packed=packed)


@pytest.mark.parametrize("fixture", ["paillier_keys", "dj_keys", "ou_keys",
                                     "benaloh_wide_keys", "ns_keys", "gm_keys"])
def test_phe_store_round_trip_byte_identical(fixture, request, tmp_path):
    keys = request.getfixturevalue(fixture)
    _, store = _random_store(keys, 7)
    path = str(tmp_path / "store.bin")
    serial.write_store(store, path)
    loaded = serial.read_store(path)
    assert loaded.scheme == store.scheme
    assert loaded.groups == store.groups
    path2 = str(tmp_path / "store2.bin")
    serial.write_store(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


@pytest.mark.parametrize("packed", [False, True])
def test_bfv_store_round_trip(bfv_small_keys, tmp_path, packed):
    _, store = _random_store(bfv_small_keys, 8, count=80, packed=packed)
    path = str(tmp_path / "store.bin")
    serial.write_store(store, path)
    loaded = serial.read_store(path, bfv_params=support.SMALL_PARAMS)
    assert loaded.packed == packed
    assert loaded.groups == store.groups
    path2 = str(tmp_path / "store2.bin")
    serial.write_store(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_loaded_store_still_matches(paillier_keys, tmp_path):
    entries, store = _random_store(paillier_keys, 9)
    path = str(tmp_path / "store.bin")
    serial.write_store(store, path)
    loaded = serial.read_store(path)
    rnd = random.Random("loadmatch")
    for _ in range(10):
        ip = support.biased_address(rnd, entries)
        got = ipmatch.match(ip, loaded, paillier_keys, RNG(10)).matched
        assert got == support.plain_member(ip, entries)


def test_bfv_store_requires_params(bfv_small_keys, tmp_path):
    _, store = _random_store(bfv_small_keys, 11, count=5)
    path = str(tmp_path / "store.bin")
    serial.write_store(store, path)
    with pytest.raises(FormatError, match="params"):
        serial.read_store(path)


class TestStoreFileErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(FormatError, match="magic"):
            serial.read_store(str(path))

    def test_bad_version(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 12, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[4] = 0x7F
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="version"):
            serial.read_store(path)

    def test_unknown_scheme_byte(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 13, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[5] = 0x63
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="scheme"):
            serial.read_store(path)

    def test_truncated(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 14, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) // 2])
        with pytest.raises(FormatError):
            serial.read_store(path)

    def test_trailing_garbage(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 15, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            serial.read_store(path)

    def test_packed_fill_beyond_ring(self, tmp_path, bfv_small_keys):
        store = ipmatch.build_store([ipmatch.parse_cidr("2.3.4.0/24")],
                                    bfv_small_keys, RNG(17), packed=True)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        support.set_packed_fill(path, 5000)
        with pytest.raises(FormatError, match="fill 5000"):
            serial.read_store(path, bfv_params=bfv_small_keys.params)

    def test_gm_entry_of_wrong_width(self, tmp_path):
        ct = phe.PheCiphertext(phe.SchemeId.GOLDWASSER_MICALI, tuple(range(1, 32)))
        store = ipmatch.EncryptedStore("goldwasser_micali", {24: [(0, ct)]})
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        with pytest.raises(FormatError, match="expected 32"):
            serial.read_store(path)


def test_store_binary_layout(paillier_keys, tmp_path):
    # spot-check the exact header layout: magic, version 1, scheme byte,
    # big-endian group count, prefix byte, big-endian entry count, u64 id
    store = ipmatch.build_store([ipmatch.parse_cidr("2.3.4.0/24")],
                                paillier_keys, RNG(16))
    path = str(tmp_path / "s.bin")
    serial.write_store(store, path)
    data = open(path, "rb").read()
    assert data[:4] == b"HELB"
    assert data[4] == 1
    assert data[5] == 1  # paillier
    assert int.from_bytes(data[6:10], "big") == 1   # one group
    assert data[10] == 24                           # prefix byte
    assert int.from_bytes(data[11:15], "big") == 1  # one entry
    assert int.from_bytes(data[15:23], "big") == 0  # entry id 0
    assert int.from_bytes(data[23:27], "big") == 1  # one payload element

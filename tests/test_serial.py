import dataclasses
import hashlib
import os
import random
import stat

import pytest
import support

from helb import bfv, ipmatch, phe, serial
from helb.errors import FormatError, SchemeMismatch
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
    assert loaded == keys.public
    assert not hasattr(loaded, "secret") or isinstance(loaded, bfv.BfvPublicKey)


def test_public_key_alone_is_not_written(paillier_keys, tmp_path):
    with pytest.raises(FormatError, match="key pair"):
        serial.write_key_files(paillier_keys.public, str(tmp_path / "key"))


def test_secret_file_has_restrictive_permissions(paillier_keys, tmp_path):
    _, sec_path = serial.write_key_files(paillier_keys, str(tmp_path / "key"))
    mode = stat.S_IMODE(os.stat(sec_path).st_mode)
    assert mode == 0o600


def test_existing_secret_file_is_made_private_on_its_descriptor(
        paillier_keys, tmp_path, monkeypatch):
    base = tmp_path / "key"
    sec = tmp_path / "key.sec"
    sec.write_text("old\n")
    sec.chmod(0o644)
    monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
    serial.write_key_files(paillier_keys, str(base))
    assert stat.S_IMODE(sec.stat().st_mode) == 0o600
    assert serial.read_key_file(str(sec)) == paillier_keys


def test_loaded_public_key_can_encrypt(paillier_keys, tmp_path):
    pub_path, sec_path = serial.write_key_files(paillier_keys, str(tmp_path / "key"))
    pub = serial.read_key_file(pub_path)
    full = serial.read_key_file(sec_path)
    ct = phe.encrypt(pub, 12345, RNG(1))
    assert phe.decrypt(full, ct) == 12345


def _ou_low_order_g(keys):
    """g^p, whose order modulo p^2 divides p - 1, so that decryption would
    divide by zero; h = g^n to match."""
    pub = keys.public
    g = pow(pub.g, keys.p, pub.n)
    return dataclasses.replace(pub, g=g, h=pow(g, pub.n, pub.n))


def _bfv_pk0_shifted(keys):
    """pk0 with q/3 added beyond slot 0, so that a listed address would
    read as not listed."""
    q = keys.params.ciphertext_mod
    pk0 = list(keys.public.pk0)
    pk0[5] = (pk0[5] + q // 3) % q
    return dataclasses.replace(keys.public, pk0=tuple(pk0))


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

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "k"
        path.write_bytes(b"HELB-KEY v1\nscheme = paillier\nn = \xff\ng = 01\n")
        with pytest.raises(FormatError, match="UTF-8"):
            serial.read_key_file(str(path))

    def test_okamoto_uchiyama_composite_p_is_refused(self, ou_keys, tmp_path):
        # n = p^2 q holds, but Fermat's little theorem fails for g modulo p
        p = 2**41 - 1  # 13367 * 164511353
        keys = phe.keygen(phe.SchemeId.OKAMOTO_UCHIYAMA, 128, RNG(5), test_mode=True,
                          p=p, q=ou_keys.q)
        _, sec_path = serial.write_key_files(keys, str(tmp_path / "key"))
        with pytest.raises(FormatError, match=r"g\^\(p-1\) is not 1 modulo p"):
            serial.read_key_file(sec_path)

    def test_naccache_stern_n_bits_must_match_v(self, ns_keys, tmp_path):
        pub_path, _ = serial.write_key_files(ns_keys, str(tmp_path / "key"))
        text = open(pub_path).read()
        bits = ns_keys.public.n_bits
        open(pub_path, "w").write(
            text.replace(f"n_bits = {bits:x}", f"n_bits = {bits + 1:x}"))
        with pytest.raises(FormatError, match="n_bits"):
            serial.read_key_file(pub_path)

    @pytest.mark.parametrize("fixture, forge, message", [
        # an n^s-th residue as g: every ciphertext would read as zero
        ("dj_keys", lambda keys: dataclasses.replace(keys.public, g=pow(
            2, keys.public.message_space, keys.public.cipher_modulus)),
         r"g is not n \+ 1"),
        # h = g^(n+1): a listed address would read as not listed
        ("ou_keys", lambda keys: dataclasses.replace(keys.public, h=pow(
            keys.public.g, keys.public.n + 1, keys.public.n)),
         r"h is not g\^n"),
        ("ou_keys", _ou_low_order_g, r"g\^\(p-1\) is 1 modulo p\^2"),
        ("bfv_small_keys", _bfv_pk0_shifted, "not small noise"),
        # v_1 = v_0: an unlisted address would read as listed
        ("ns_keys", lambda keys: dataclasses.replace(
            keys.public, v=keys.public.v[:1] * 2 + keys.public.v[2:]),
         r"v_i\^s is not p_i modulo p"),
        # v_1 = -v_1, so v_1^s = -3: the batch test alone misses it for
        # every even exponent, the Jacobi symbol of v_1 always shows it
        ("ns_keys", lambda keys: dataclasses.replace(
            keys.public, v=keys.public.v[:1] + (keys.public.p - keys.public.v[1],)
            + keys.public.v[2:]),
         r"v_i\^s is not p_i modulo p"),
    ], ids=["damgard_jurik", "okamoto_uchiyama", "okamoto_uchiyama_g_order",
            "bfv_pk0_slot_5", "naccache_stern", "naccache_stern_negated"])
    def test_forged_generator_is_refused(self, fixture, forge, message,
                                         request, tmp_path):
        # forged alike in both files, so the store built from the .pub
        # carries the fingerprint of the .sec's public key
        keys = request.getfixturevalue(fixture)
        pub_path, sec_path = serial.write_key_files(
            dataclasses.replace(keys, public=forge(keys)), str(tmp_path / "key"))
        if fixture == "dj_keys":  # the public key alone shows it
            with pytest.raises(FormatError, match=message):
                serial.read_key_file(pub_path)
        else:
            pub = serial.read_key_file(pub_path)
            store_path = str(tmp_path / "store.bin")
            serial.write_store(ipmatch.build_store(
                [ipmatch.parse_cidr("10.0.0.0/8")], pub, RNG(5)), store_path)
            assert serial.read_store(store_path, pub).pub == pub
        with pytest.raises(FormatError, match=message):
            serial.read_key_file(sec_path)

    @pytest.mark.parametrize("field, value", [
        ("s", "1"),                  # one coefficient instead of ring_dim
        ("pk0", "0,1"),
        ("ring_dim", "3"),
        ("plaintext_mod", "10"),
        ("sigma", "abc"),
        ("sigma", "inf"),
        ("s", None),                 # one coefficient equal to ciphertext_mod
    ])
    def test_malformed_lattice_value(self, bfv_small_keys, tmp_path, field, value):
        _, sec_path = serial.write_key_files(bfv_small_keys, str(tmp_path / "key"))
        if value is None:
            coeffs = [bfv_small_keys.params.ciphertext_mod] + [0] * 63
            value = ",".join(format(c, "x") for c in coeffs)
        lines = [f"{field} = {value}" if line.startswith(f"{field} =") else line
                 for line in open(sec_path).read().splitlines()]
        open(sec_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            serial.read_key_file(sec_path)


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
    loaded = serial.read_store(path, keys)
    assert loaded.scheme == store.scheme
    assert loaded.groups == store.groups
    assert loaded.pub == store.pub
    path2 = str(tmp_path / "store2.bin")
    serial.write_store(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


@pytest.mark.parametrize("packed", [False, True])
def test_bfv_store_round_trip(bfv_small_keys, tmp_path, packed):
    _, store = _random_store(bfv_small_keys, 8, count=80, packed=packed)
    path = str(tmp_path / "store.bin")
    serial.write_store(store, path)
    loaded = serial.read_store(path, bfv_small_keys)
    assert loaded.packed == packed
    assert loaded.groups == store.groups
    path2 = str(tmp_path / "store2.bin")
    serial.write_store(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_loaded_store_still_matches(paillier_keys, tmp_path):
    entries, store = _random_store(paillier_keys, 9)
    path = str(tmp_path / "store.bin")
    serial.write_store(store, path)
    loaded = serial.read_store(path, paillier_keys)
    rnd = random.Random("loadmatch")
    for _ in range(10):
        ip = support.biased_address(rnd, entries)
        got = ipmatch.match(ip, loaded, paillier_keys, RNG(10)).matched
        assert got == support.plain_member(ip, entries)


@pytest.mark.parametrize("scheme", ["paillier", "bfv"])
def test_store_read_with_other_key_is_rejected(scheme, paillier_keys,
                                               bfv_small_keys, tmp_path):
    if scheme == "paillier":
        keys = paillier_keys
        other = phe.keygen(phe.SchemeId.PAILLIER, 256, RNG(111), test_mode=True)
    else:
        keys = bfv_small_keys
        other = bfv.keygen(support.SMALL_PARAMS, RNG(112))
    _, store = _random_store(keys, 11, count=5, packed=scheme == "bfv")
    path = str(tmp_path / "store.bin")
    serial.write_store(store, path)
    with pytest.raises(SchemeMismatch, match="different public key"):
        serial.read_store(path, other)
    assert serial.read_store(path, keys.public).groups == store.groups


class TestStoreFileErrors:
    def test_bad_magic(self, tmp_path, paillier_keys):
        path = tmp_path / "s.bin"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(FormatError, match="magic"):
            serial.read_store(str(path), paillier_keys)

    def test_bad_version(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 12, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[4] = 0x7F
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="version"):
            serial.read_store(path, paillier_keys)

    def test_unknown_scheme_byte(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 13, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[5] = 0x63
        open(path, "wb").write(bytes(data))
        support.reseal(path)
        with pytest.raises(FormatError, match="scheme"):
            serial.read_store(path, paillier_keys)

    def test_scheme_byte_of_another_scheme(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 20, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[5] = 2  # damgard_jurik
        open(path, "wb").write(bytes(data))
        support.reseal(path)
        with pytest.raises(SchemeMismatch, match="built for damgard_jurik"):
            serial.read_store(path, paillier_keys)

    def test_truncated(self, tmp_path, paillier_keys, bfv_small_keys):
        # every proper prefix of a three-network Paillier store and of a
        # small packed lattice store is refused
        _, pai_store = _random_store(paillier_keys, 14, count=3)
        bfv_store = ipmatch.build_store(
            [ipmatch.parse_cidr(text) for text in ("2.3.4.0/24", "10.0.0.0/8")],
            bfv_small_keys, RNG(14), packed=True)
        path = str(tmp_path / "s.bin")
        for keys, store in ((paillier_keys, pai_store), (bfv_small_keys, bfv_store)):
            serial.write_store(store, path)
            data = open(path, "rb").read()
            for cut in range(len(data)):
                open(path, "wb").write(data[:cut])
                with pytest.raises(FormatError):
                    serial.read_store(path, keys)

    def test_trailing_garbage(self, tmp_path, paillier_keys):
        # an appended byte breaks the seal; resealed, the length is wrong
        _, store = _random_store(paillier_keys, 15, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError, match="damaged"):
            serial.read_store(path, paillier_keys)
        with open(path, "ab") as fh:
            fh.write(bytes(32))
        support.reseal(path)
        with pytest.raises(FormatError, match="header implies"):
            serial.read_store(path, paillier_keys)

    def test_packed_fill_beyond_ring(self, tmp_path, bfv_small_keys):
        # 5000 networks need 79 records of 64 slots; the file holds one
        store = ipmatch.build_store([ipmatch.parse_cidr("2.3.4.0/24")],
                                    bfv_small_keys, RNG(17), packed=True)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        support.set_header_runs(path, [(24, 5000)])
        with pytest.raises(FormatError, match="header implies"):
            serial.read_store(path, bfv_small_keys)

    def test_gm_entry_of_wrong_width(self, tmp_path, gm_keys):
        ct = tuple(range(1, 32))
        store = ipmatch.EncryptedStore("goldwasser_micali",
                                       {24: [(((24, 0, 1),), ct)]},
                                       pub=gm_keys.public)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        with pytest.raises(FormatError, match="header implies"):
            serial.read_store(path, gm_keys)

    def test_version_1_rejected(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 18, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[4] = 1
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="version 1"):
            serial.read_store(path, paillier_keys)

    def test_version_3_store_rejected(self, tmp_path, paillier_keys):
        _, store = _random_store(paillier_keys, 24, count=3)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[4] = 3
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="version 3; rebuild"):
            serial.read_store(path, paillier_keys)

    def test_store_without_public_key_is_not_written(self, tmp_path):
        store = ipmatch.EncryptedStore("paillier", {24: []})
        with pytest.raises(FormatError, match="public key"):
            serial.write_store(store, str(tmp_path / "s.bin"))

    @pytest.mark.parametrize("fixture, packed", [
        ("paillier_keys", False), ("dj_keys", False), ("ou_keys", False),
        ("benaloh_wide_keys", False), ("ns_keys", False), ("gm_keys", False),
        ("bfv_small_keys", False), ("bfv_small_keys", True)])
    def test_value_outside_its_group(self, fixture, packed, request, tmp_path):
        keys = request.getfixturevalue(fixture)
        _, store = _random_store(keys, 21, count=3, packed=packed)
        records = next(iter(store.groups.values()))
        head, ct = records[0]
        pub = keys.public
        if fixture == "bfv_small_keys":
            q = keys.params.ciphertext_mod
            bad = [bfv.BfvCiphertext((q,) + ct.c0[1:], ct.c1, ct.params)]
        else:
            modulus = {"paillier_keys": lambda: pub.n ** 2,
                       "dj_keys": lambda: pub.n ** (pub.s + 1),
                       "ns_keys": lambda: pub.p}.get(fixture, lambda: pub.n)()
            bad = [(value,) + ct[1:] if isinstance(ct, tuple) else value
                   for value in (modulus, 0)]
        for bad_ct in bad:
            records[0] = (head, bad_ct)
            path = str(tmp_path / "s.bin")
            serial.write_store(store, path)
            with pytest.raises(FormatError, match="value outside"):
                serial.read_store(path, keys)

    @pytest.mark.parametrize("runs, message", [
        ([(33, 1)], "1 networks of prefix length 33"),
        ([(24, 0)], "0 networks of prefix length 24"),
        ([(24, 1), (24, 1)], "repeats a prefix length"),
        ([(24, 2)], "header implies"),
        ([(24, 1), (16, 1)], "header implies"),
        ([(24, (1 << 32) - 1)], "header implies"),
        ([], "no networks"),
    ], ids=["prefix-33", "count-0", "repeated-prefix", "count-2", "extra-run",
            "count-u32-max", "no-runs"])
    def test_malformed_header(self, runs, message, paillier_keys, tmp_path):
        # a one-network store whose header runs are rewritten and resealed
        store = ipmatch.build_store([ipmatch.parse_cidr("2.3.4.0/24")],
                                    paillier_keys, RNG(22))
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        support.set_header_runs(path, runs)
        with pytest.raises(FormatError, match=message):
            serial.read_store(path, paillier_keys)

    def test_version_2_packed_store_rejected(self, tmp_path, bfv_small_keys):
        # a version 2 packed record ends in a fill count instead of runs
        store = ipmatch.build_store([ipmatch.parse_cidr("2.3.4.0/24")],
                                    bfv_small_keys, RNG(23), packed=True)
        path = str(tmp_path / "s.bin")
        serial.write_store(store, path)
        data = bytearray(open(path, "rb").read())
        data[4] = 2
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="version 2"):
            serial.read_store(path, bfv_small_keys)


def test_store_binary_layout(paillier_keys, tmp_path):
    # the exact layout: magic, version 4, scheme byte, SHA-256 of the public
    # key file, one prefix run (prefix byte, big-endian network count), the
    # one ciphertext element in exactly the byte length of n^2 - 1, and the
    # SHA-256 of everything before it
    store = ipmatch.build_store([ipmatch.parse_cidr("2.3.4.0/24")],
                                paillier_keys, RNG(16))
    path = str(tmp_path / "s.bin")
    serial.write_store(store, path)
    pub_path, _ = serial.write_key_files(paillier_keys, str(tmp_path / "key"))
    data = open(path, "rb").read()
    width = ((paillier_keys.public.n ** 2 - 1).bit_length() + 7) // 8
    assert data[:4] == b"HELB"
    assert data[4] == 4
    assert data[5] == 1  # paillier
    assert data[6:38] == hashlib.sha256(open(pub_path, "rb").read()).digest()
    assert data[38] == 1                            # one prefix run
    assert data[39] == 24                           # prefix byte
    assert int.from_bytes(data[40:44], "big") == 1  # one network
    (_, ct), = store.groups[24]
    assert data[44:44 + width] == int(ct).to_bytes(width, "big")
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()
    assert len(data) == 44 + width + 32


def test_entry_ids_are_derived_in_file_order(bfv_small_keys, tmp_path):
    # 70 networks of one prefix fill one 64-slot record and start another,
    # which the 3 networks of a shorter prefix share; the ids, which the
    # reader derives from the header's counts, restart nowhere and skip
    # nothing across groups
    rnd = random.Random("ids")
    entries = support.random_entries(rnd, 70, prefixes=(24,))
    entries += support.random_entries(rnd, 3, prefixes=(16,))
    store = ipmatch.build_store(entries, bfv_small_keys, RNG(19), packed=True)
    path = str(tmp_path / "s.bin")
    serial.write_store(store, path)
    loaded = serial.read_store(path, bfv_small_keys)
    runs = [r[0] for g in loaded.groups.values() for r in g]
    assert runs == [r[0] for g in store.groups.values() for r in g]
    assert runs == [((24, 0, 64),), ((24, 64, 6), (16, 70, 3))]

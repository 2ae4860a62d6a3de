"""Property tests: damaged key and store files load or fail with a HelbError.

Valid files for every scheme get one byte flipped, a tail cut off, or
bytes appended.  `read_key_file` must then return an object or raise a
`HelbError` subclass; any other exception would reach the CLI as an
internal error instead of a typed refusal.  A store file's SHA-256 must
refuse every such damage with a `FormatError`; resealed after the damage,
the store must still load or raise a `HelbError`.  A secret key file with
one digit of a field altered must be refused, or give the intact key's
verdicts.  The examples are derandomized, so every run tries the same
damaged files.
"""

import random

import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from helb import ipmatch, serial
from helb.errors import FormatError, HelbError
from helb.numtheory import RandomSource

KEY_FIXTURES = ["paillier_keys", "dj_keys", "ou_keys", "benaloh_keys",
                "ns_keys", "gm_keys", "bfv_small_keys"]
STORE_CASES = [("paillier_keys", False), ("dj_keys", False), ("ou_keys", False),
               ("benaloh_wide_keys", False), ("ns_keys", False),
               ("gm_keys", False), ("bfv_small_keys", False),
               ("bfv_small_keys", True)]
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def damaged(draw, data: bytes) -> bytes:
    how = draw(st.sampled_from(["flip", "truncate", "append"]))
    if how == "append":
        return data + draw(st.binary(min_size=1, max_size=64))
    # half the damage lands in the first 64 bytes, where the headers are
    head = min(len(data), 64) - 1
    pos = draw(st.integers(0, head) | st.integers(0, len(data) - 1))
    if how == "truncate":
        return data[:pos]
    flipped = data[pos] ^ draw(st.integers(1, 255))
    return data[:pos] + bytes([flipped]) + data[pos + 1:]


@st.composite
def altered_digit(draw, data: bytes) -> bytes:
    """One hexadecimal digit of a key field's value replaced by another,
    so that the file still parses."""
    digits, start = [], 0
    for line in data.split(b"\n"):
        name, sep, value = line.partition(b" = ")
        if sep and name != b"scheme":
            offset = start + len(name) + len(sep)
            digits += [offset + i for i, ch in enumerate(value)
                       if chr(ch) in "0123456789abcdef"]
        start += len(line) + 1
    pos = draw(st.sampled_from(digits))
    new = draw(st.sampled_from([d for d in b"0123456789abcdef" if d != data[pos]]))
    return data[:pos] + bytes([new]) + data[pos + 1:]


def _loads_or_refuses(read, *args) -> None:
    try:
        read(*args)
    except HelbError:
        pass


@pytest.mark.parametrize("fixture", KEY_FIXTURES)
def test_damaged_key_file_loads_or_raises_helb_error(fixture, request, tmp_path):
    keys = request.getfixturevalue(fixture)
    paths = serial.write_key_files(keys, str(tmp_path / "key"))
    originals = [open(path, "rb").read() for path in paths]
    target = tmp_path / "damaged"

    @EXAMPLES
    @given(st.data())
    def check(data):
        original = data.draw(st.sampled_from(originals))
        target.write_bytes(data.draw(damaged(original)))
        _loads_or_refuses(serial.read_key_file, str(target))

    check()


@pytest.mark.parametrize("fixture, packed", STORE_CASES)
def test_damaged_secret_key_that_loads_keeps_the_verdicts(fixture, packed, request,
                                                          tmp_path):
    # a key pair that does not fit its public key must not load: it could
    # read a listed address as unlisted
    keys = request.getfixturevalue(fixture)
    _, sec = serial.write_key_files(keys, str(tmp_path / "key"))
    original = open(sec, "rb").read()
    store = ipmatch.build_store([ipmatch.parse_cidr("2.3.4.0/24")], keys,
                                RandomSource.seeded(5), packed=packed)
    store_path, target = str(tmp_path / "store.bin"), tmp_path / "damaged"
    serial.write_store(store, store_path)
    expected = {"2.3.4.9": True, "4.4.4.4": False}

    @EXAMPLES
    @given(st.data())
    def check(data):
        target.write_bytes(data.draw(altered_digit(original)))
        try:
            loaded = serial.read_key_file(str(target))
            stored = serial.read_store(store_path, loaded)
            verdicts = {ip: ipmatch.match(ipmatch.parse_ipv4(ip), stored, loaded,
                                          RandomSource.seeded(6)).matched
                        for ip in expected}
        except HelbError:
            return
        assert verdicts == expected

    check()


def _store_file(fixture, packed, request, tmp_path):
    """The keys of a store case, and the bytes of a small store under them."""
    keys = request.getfixturevalue(fixture)
    entries = support.random_entries(random.Random(fixture), 3)
    store = ipmatch.build_store(entries, keys, RandomSource.seeded(5),
                                packed=packed)
    path = tmp_path / "store.bin"
    serial.write_store(store, str(path))
    return keys, path.read_bytes()


@pytest.mark.parametrize("fixture, packed", STORE_CASES)
def test_damaged_store_file_loads_or_raises_helb_error(fixture, packed, request,
                                                      tmp_path):
    # the SHA-256 that seals the file refuses every damage
    keys, original = _store_file(fixture, packed, request, tmp_path)
    target = tmp_path / "damaged"

    @EXAMPLES
    @given(st.data())
    def check(data):
        target.write_bytes(data.draw(damaged(original)))
        with pytest.raises(FormatError):
            serial.read_store(str(target), keys)

    check()


@pytest.mark.parametrize("fixture, packed", STORE_CASES)
def test_resealed_damaged_store_loads_or_raises_helb_error(fixture, packed,
                                                          request, tmp_path):
    keys, original = _store_file(fixture, packed, request, tmp_path)
    target = tmp_path / "damaged"

    @EXAMPLES
    @given(st.data())
    def check(data):
        target.write_bytes(data.draw(damaged(original)))
        support.reseal(target)
        _loads_or_refuses(serial.read_store, str(target), keys)

    check()

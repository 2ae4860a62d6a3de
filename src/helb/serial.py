"""On-disk formats for keys and encrypted stores.

Key files are line-oriented text: a `HELB-KEY v1` header, a `scheme =`
line, then one `field = <value>` line per component.  Each key class
names its scheme in `SCHEME` and its fields, in file order, in
`FILE_FIELDS` as (file name, attribute, kind) triples.  The kind picks
the encoding in `_CODECS` (ints as lowercase hex, tuples, among them the
lattice coefficient lists, as comma-separated hex, the lattice noise width
as a decimal float); any other kind is a class whose own fields are
written in place.
A declared field that is not a constructor argument is derived, and must
agree with the loaded key.  The public file carries the public fields
only; the secret file repeats them and appends the private fields.

Store files are binary: magic `HELB`, version byte 4, a scheme byte, the
SHA-256 of the public-file text of the key the store was built under, a
byte giving the number of prefix runs, then one (prefix byte, big-endian
u32 network count) per prefix length, in entry-id order.  The records
follow as bare ciphertexts.  The backend's record handler
(`ipmatch.record_handler`) owns their layout: a record is its `width`
values, each exactly w big-endian bytes, w the byte length of
(modulus - 1), and in [low, modulus).  The last 32 bytes are the SHA-256
of everything before them.  Nothing else is stored, in the file or in
the `ipmatch.EncryptedStore` read from it: `EncryptedStore.layout()`
derives every record's slot runs from the header's counts, so the file
cannot express a bad layout.  The header also fixes the file's exact
length, which the reader checks before it reads any record.  Reading a
store needs its key, which the fingerprint must match, and every value
is range-checked against it; a key that `read_key_file` loaded brings
the digest of its file's public lines, which spares rendering the key
when the file is as written.
"""

from __future__ import annotations

import os
import struct
import weakref

try:  # as `random` does: hashlib loads OpenSSL, 3.5 MB more resident memory
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from . import bfv, phe
from .errors import FormatError, SchemeMismatch
from .ipmatch import BFV_SCHEME, EncryptedStore, record_handler
from .phe import SchemeId

KEY_MAGIC = "HELB-KEY v1"
STORE_MAGIC = b"HELB"
STORE_VERSION = 4

_SCHEME_BYTES = {
    SchemeId.PAILLIER.value: 1,
    SchemeId.DAMGARD_JURIK.value: 2,
    SchemeId.OKAMOTO_UCHIYAMA.value: 3,
    SchemeId.BENALOH.value: 4,
    SchemeId.NACCACHE_STERN.value: 5,
    SchemeId.GOLDWASSER_MICALI.value: 6,
    BFV_SCHEME: 7,
}
_PACKED_SCHEME_BYTE = 8
_SCHEME_OF_BYTE = {v: k for k, v in _SCHEME_BYTES.items()}


def _key_classes(scheme: str) -> tuple[type, type]:
    """(public key class, key pair class) of a known scheme name; a PHE
    scheme's module is imported here, when its key is first read."""
    if scheme == BFV_SCHEME:
        return bfv.BfvPublicKey, bfv.BfvKeyPair
    return phe.key_classes(scheme)


def _hex_list(values) -> str:
    return ",".join(format(v, "x") for v in values)


def _hex_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part, 16) for part in text.split(","))


# kind -> (render, parse); a parse raises ValueError on malformed text
_CODECS = {
    int: (lambda value: format(value, "x"), lambda text: int(text, 16)),
    float: (repr, float),
    tuple: (_hex_list, _hex_tuple),
}


def _field_lines(obj):
    for name, attr, kind in obj.FILE_FIELDS:
        value = getattr(obj, attr)
        if kind in _CODECS:
            yield f"{name} = {_CODECS[kind][0](value)}"
        else:
            yield from _field_lines(value)


def _key_text(key) -> str:
    return "\n".join([KEY_MAGIC, f"scheme = {key.SCHEME}", *_field_lines(key)]) + "\n"


def _fingerprint(pub) -> bytes:
    """SHA-256 of the public-file text of `pub`."""
    return sha256(_key_text(pub).encode("utf-8")).digest()


# public key -> SHA-256 of the public lines of the file `read_key_file`
# loaded it from: `_fingerprint(pub)` whenever the file is as written
_TEXT_FINGERPRINTS = weakref.WeakKeyDictionary()


def _line_count(cls) -> int:
    """Lines of the fields of `cls` in a key file."""
    return sum(1 if kind in _CODECS else _line_count(kind)
               for _, _, kind in cls.FILE_FIELDS)


def _head_digest(data: bytes, lines: int) -> bytes:
    """SHA-256 of the first `lines` lines of `data`, their ends included."""
    end = 0
    for _ in range(lines):
        end = data.find(b"\n", end) + 1 or len(data)
    return sha256(memoryview(data)[:end]).digest()


def write_key_files(keys, base_path: str) -> tuple[str, str]:
    """Write `<base>.pub` and `<base>.sec`.  The secret file is created
    with mode 0600, and one that exists is set to 0600 before any byte of
    the secret is written."""
    if not hasattr(keys, "public"):
        raise FormatError("key files are written from a key pair")
    pub_path = base_path + ".pub"
    sec_path = base_path + ".sec"
    with open(pub_path, "w", encoding="utf-8") as fh:
        fh.write(_key_text(keys.public))
    fd = os.open(sec_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w", encoding="utf-8") as fh:
        try:  # the open keeps the mode of a file that exists
            os.fchmod(fd, 0o600)
        except (AttributeError, OSError):  # pragma: no cover - no POSIX modes
            pass
        fh.write(_key_text(keys))
    return pub_path, sec_path


def _parse_key_text(text: str, path: str):
    lines = text.splitlines()
    if not lines or lines[0] != KEY_MAGIC:
        raise FormatError(f"{path}: missing key file header {KEY_MAGIC!r}")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}: malformed key file line: {line!r}")
        name = name.strip()
        if name in fields:
            raise FormatError(f"{path}: duplicate key field {name!r}")
        fields[name] = value.strip()
    scheme = fields.pop("scheme", None)
    if scheme is None:
        raise FormatError(f"{path}: key file does not declare a scheme")
    return scheme, fields


def _build(cls, fields: dict[str, str], path: str):
    """An instance of `cls` from its declared fields, checked for consistency
    by its derived fields and its `violations()` method, if it has one."""
    kwargs, derived = {}, []
    for name, attr, kind in cls.FILE_FIELDS:
        if kind not in _CODECS:
            kwargs[attr] = _build(kind, fields, path)
            continue
        if name not in fields:
            raise FormatError(f"{path}: missing field {name!r}")
        try:
            value = _CODECS[kind][1](fields[name])
        except ValueError:
            raise FormatError(
                f"{path}: malformed {name}: {fields[name][:40]!r}") from None
        if attr in cls.FIELDS:
            kwargs[attr] = value
        else:
            derived.append((name, attr, value))
    obj = cls(**kwargs)
    problems = [f"{name} does not match the other fields"
                for name, attr, value in derived if getattr(obj, attr) != value]
    if hasattr(obj, "violations"):
        problems += obj.violations()
    if problems:
        raise FormatError(f"{path}: " + "; ".join(problems))
    return obj


def read_key_file(path: str):
    """Load a key file; returns a key pair, or a public key object when the
    private fields are absent."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        scheme, fields = _parse_key_text(data.decode("utf-8"), path)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: key file is not UTF-8 text") from None
    if scheme not in _SCHEME_BYTES:
        raise FormatError(f"{path}: unknown scheme {scheme!r}")
    pub_cls, pair_cls = _key_classes(scheme)
    # a secret file repeats the public lines first, after the header; the
    # file is let go before the key is built, which keeps the peak memory
    digest = _head_digest(data, 2 + _line_count(pub_cls))
    del data
    # a pair's own (not nested) fields include all its private ones
    private = all(name in fields for name, _, kind in pair_cls.FILE_FIELDS
                  if kind in _CODECS)
    key = _build(pair_cls if private else pub_cls, fields, path)
    _TEXT_FINGERPRINTS[phe.public_part(key)] = digest
    return key


# ---------------------------------------------------------------------------
# store files

# magic, version byte, scheme byte, key fingerprint, prefix run count
_HEADER_SIZE = 4 + 1 + 1 + 32 + 1
_RUN = struct.Struct(">BI")  # prefix length, network count
_DIGEST_SIZE = 32


def _byte_width(modulus: int) -> int:
    return ((modulus - 1).bit_length() + 7) // 8


def write_store(store: EncryptedStore, path: str) -> None:
    """Write `store` in record-scan order, sealed by its SHA-256."""
    scheme_byte = (_PACKED_SCHEME_BYTE if store.packed
                   else _SCHEME_BYTES[store.pub.SCHEME])
    handler = record_handler(store.pub, store.packed)
    nbytes = _byte_width(handler.modulus)
    parts = [STORE_MAGIC, bytes([STORE_VERSION, scheme_byte]),
             _fingerprint(store.pub), bytes([len(store.counts)])]
    parts += [_RUN.pack(*run) for run in store.counts]
    parts += [value.to_bytes(nbytes, "big")
              for ct in store.records for value in handler.values(ct)]
    data = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(data + sha256(data).digest())


def read_store(path: str, keys) -> EncryptedStore:
    """Load a store file built under the public part of `keys`.

    Raises SchemeMismatch when the file's key fingerprint is not that of
    `keys`, and FormatError for a malformed file: a SHA-256 that does not
    seal it, a header that gives no networks, a prefix length above 32,
    a repeated one or one of no networks, a length other than the header
    implies, or a ciphertext value outside the range of the record
    handler of `keys` (`ipmatch.record_handler`): a PHE element outside
    [1, cipher_modulus), a lattice coefficient not below ciphertext_mod.
    The handler rebuilds every record; `EncryptedStore.layout()` derives
    their slot runs from the header.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != STORE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a store file")
    if len(data) < _HEADER_SIZE + _DIGEST_SIZE:
        raise FormatError(f"{path}: store file is truncated")
    version, scheme_byte = data[4], data[5]
    if version != STORE_VERSION:
        raise FormatError(f"{path}: unsupported store version {version}; "
                          "rebuild the store with `helb blacklist encrypt`")
    if sha256(memoryview(data)[:-_DIGEST_SIZE]).digest() != data[-_DIGEST_SIZE:]:
        raise FormatError(f"{path}: store file is damaged (its SHA-256 does "
                          "not match)")
    packed = scheme_byte == _PACKED_SCHEME_BYTE
    scheme = BFV_SCHEME if packed else _SCHEME_OF_BYTE.get(scheme_byte)
    if scheme is None:
        raise FormatError(f"{path}: unknown scheme byte {scheme_byte}")
    if scheme != keys.SCHEME:
        raise SchemeMismatch(f"{path}: store was built for {scheme}, keys are "
                             f"{keys.SCHEME}")
    pub = phe.public_part(keys)
    # the digest of the key file's own lines spares rendering the key; a
    # file not in the written form falls back to the rendering
    if data[6:38] != _TEXT_FINGERPRINTS.get(pub) and data[6:38] != _fingerprint(pub):
        raise SchemeMismatch(f"{path}: store was built under a different public key")

    body = _HEADER_SIZE + _RUN.size * data[_HEADER_SIZE - 1]
    if len(data) < body + _DIGEST_SIZE:
        raise FormatError(f"{path}: store file is truncated")
    counts = list(_RUN.iter_unpack(data[_HEADER_SIZE:body]))
    if not counts:
        raise FormatError(f"{path}: store holds no networks")
    for prefix_len, count in counts:
        if prefix_len > 32 or count < 1:
            raise FormatError(f"{path}: header gives {count} networks of prefix "
                              f"length {prefix_len}")
    if len({prefix_len for prefix_len, _ in counts}) != len(counts):
        raise FormatError(f"{path}: header repeats a prefix length")
    handler = record_handler(pub, packed)
    nbytes = _byte_width(handler.modulus)
    records = -(-sum(count for _, count in counts) // handler.slots)
    expected = body + records * handler.width * nbytes + _DIGEST_SIZE
    if len(data) != expected:
        raise FormatError(f"{path}: store file is {len(data)} bytes, its header "
                          f"implies {expected}")

    from_bytes = int.from_bytes
    values = [from_bytes(data[pos:pos + nbytes], "big")
              for pos in range(body, len(data) - _DIGEST_SIZE, nbytes)]
    if min(values) < handler.low or max(values) >= handler.modulus:
        raise FormatError(f"{path}: {scheme} ciphertext value outside "
                          f"[{handler.low}, {handler.modulus:#x})")
    return EncryptedStore(pub, counts, [
        handler.record(values[pos:pos + handler.width])
        for pos in range(0, len(values), handler.width)], packed)

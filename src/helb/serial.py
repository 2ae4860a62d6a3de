"""On-disk formats for keys and encrypted stores.

Key files are line-oriented text: a `HELB-KEY v1` header, a `scheme =`
line, then one `field = <value>` line per component.  Each key class
names its scheme in `SCHEME` and its fields, in file order, in
`FILE_FIELDS` as (file name, attribute, kind) triples.  The kind picks
the encoding in `_CODECS` (ints as lowercase hex, tuples and ring
polynomials as comma-separated hex, the lattice noise width as a decimal
float); any other kind is a class whose own fields are written in place.
A declared field that is not a constructor argument is derived, and must
agree with the loaded key.  The public file carries the public fields
only; the secret file repeats them and appends the private fields.

Store files are binary: magic `HELB`, version byte 3, a scheme byte, the
SHA-256 of the public-file text of the key the store was built under, a
big-endian u32 group count, then per group a prefix byte and u32 record
count, and per record a u32 element count and length-prefixed big-endian
magnitudes.  A PHE record holds its ciphertext's group elements, an
unpacked lattice record the 2 * ring_dim coefficients of c0 and c1.  Each
holds one network, whose slot run is not stored: its prefix length is the
group's, its entry id counts records in file order, as `build_store`
assigns them.  A packed lattice record appends its slot runs to the
coefficients, three elements per run: prefix length, first entry id,
count.  A store without groups, or with an empty group, is refused.
Reading a store needs its key, which the fingerprint must match, and every
value is range-checked against it.
"""

from __future__ import annotations

import dataclasses
import os
import struct

try:  # as `random` does: hashlib loads OpenSSL, 3.5 MB more resident memory
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from . import bfv, phe
from .errors import FormatError, SchemeMismatch
from .ipmatch import BFV_SCHEME, GM_WIDTH, EncryptedStore
from .phe import PheCiphertext, SchemeId

KEY_MAGIC = "HELB-KEY v1"
STORE_MAGIC = b"HELB"
STORE_VERSION = 3

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
    bfv.RingPoly: (lambda poly: _hex_list(poly.coeffs),
                   lambda text: bfv.RingPoly(_hex_tuple(text))),
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


def write_key_files(keys, base_path: str) -> tuple[str, str]:
    """Write `<base>.pub` and `<base>.sec`; the secret file is chmod 0600."""
    if not hasattr(keys, "public"):
        raise FormatError("key files are written from a key pair")
    pub_path = base_path + ".pub"
    sec_path = base_path + ".sec"
    with open(pub_path, "w", encoding="utf-8") as fh:
        fh.write(_key_text(keys.public))
    with open(sec_path, "w", encoding="utf-8") as fh:
        fh.write(_key_text(keys))
    try:
        os.chmod(sec_path, 0o600)
    except OSError:  # pragma: no cover - platform without POSIX permissions
        pass
    return pub_path, sec_path


def _parse_key_text(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != KEY_MAGIC:
        raise FormatError(f"missing key file header {KEY_MAGIC!r}")
    fields: dict[str, str] = {}
    scheme = None
    for line in lines[1:]:
        if not line.strip():
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"malformed key file line: {line!r}")
        name, value = name.strip(), value.strip()
        if name == "scheme":
            scheme = value
        elif name in fields:
            raise FormatError(f"duplicate key field {name!r}")
        else:
            fields[name] = value
    if scheme is None:
        raise FormatError("key file does not declare a scheme")
    return scheme, fields


def _build(cls, fields: dict[str, str], path: str):
    """An instance of `cls` from its declared fields, checked for consistency
    by its derived fields and its `violations()` method, if it has one."""
    init = {f.name for f in dataclasses.fields(cls)}
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
        if attr in init:
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scheme, fields = _parse_key_text(fh.read())
    except UnicodeDecodeError:
        raise FormatError(f"{path}: key file is not UTF-8 text") from None
    if scheme not in _SCHEME_BYTES:
        raise FormatError(f"{path}: unknown scheme {scheme!r}")
    pub_cls, pair_cls = _key_classes(scheme)
    # a pair's own (not nested) fields include all its private ones
    private = all(name in fields for name, _, kind in pair_cls.FILE_FIELDS
                  if kind in _CODECS)
    return _build(pair_cls if private else pub_cls, fields, path)


# ---------------------------------------------------------------------------
# store files


def _magnitude(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _record_elements(store: EncryptedStore, record) -> list[int]:
    ct = record[-1]
    if store.scheme == BFV_SCHEME:
        runs = [value for run in record[0] for value in run] if store.packed else []
        return list(ct.c0.coeffs) + list(ct.c1.coeffs) + runs
    # int(): a key holder's ciphertext may still defer half of its residues
    return list(ct.payload) if ct.width is not None else [int(ct.payload)]


def write_store(store: EncryptedStore, path: str) -> None:
    if store.pub is None:
        raise FormatError("a store without its public key cannot be written")
    scheme_byte = _PACKED_SCHEME_BYTE if store.packed else _SCHEME_BYTES[store.scheme]
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(bytes([STORE_VERSION, scheme_byte]))
        fh.write(_fingerprint(store.pub))
        fh.write(struct.pack(">I", len(store.groups)))
        for prefix_len, records in store.groups.items():
            fh.write(bytes([prefix_len]))
            fh.write(struct.pack(">I", len(records)))
            for record in records:
                elements = _record_elements(store, record)
                fh.write(struct.pack(">I", len(elements)))
                for value in elements:
                    blob = _magnitude(value)
                    fh.write(struct.pack(">I", len(blob)))
                    fh.write(blob)


# magic, version byte, scheme byte, key fingerprint, group count
_HEADER_SIZE = 4 + 1 + 1 + 32 + 4
_U32 = struct.Struct(">I")
_GROUP_HEAD = struct.Struct(">BI")


def _decode_elements(data: bytes, pos: int, path: str) -> tuple[list[int], int]:
    """The length-prefixed big-endian elements of the record at `pos`, and
    the position after them."""
    unpack_u32, from_bytes = _U32.unpack_from, int.from_bytes
    elements = []
    try:
        (count,) = unpack_u32(data, pos)
        pos += 4
        for _ in range(count):
            (length,) = unpack_u32(data, pos)
            pos += 4 + length
            elements.append(from_bytes(data[pos - length:pos], "big"))
    except struct.error:  # a length or count beyond the end
        raise FormatError(f"{path}: store file is truncated") from None
    if pos > len(data):  # the last element runs beyond the end
        raise FormatError(f"{path}: store file is truncated")
    return elements, pos


def _packed_runs(values: list[int], n: int, path: str):
    """The (prefix length, first entry id, count) runs of a packed record."""
    if not values or len(values) % 3:
        raise FormatError(f"{path}: packed entry has {len(values)} run "
                          "elements, expected a positive multiple of 3")
    runs = tuple(zip(values[0::3], values[1::3], values[2::3]))
    if any(prefix_len > 32 or count < 1 for prefix_len, _, count in runs):
        raise FormatError(f"{path}: packed entry run out of range (a prefix "
                          "length above 32 or no slots)")
    fill = sum(count for _, _, count in runs)
    if not 1 <= fill <= n:
        # str() refuses ints of more than 4300 digits
        shown = fill if fill.bit_length() <= 64 else f"of {fill.bit_length()} bits"
        raise FormatError(f"{path}: packed entry fill {shown} is outside [1, {n}]")
    return runs


def _check_packed_layout(groups: dict[int, list], path: str) -> None:
    """Slots run longest prefix first in scan order, so the first zero slot
    is the longest covering network, and the runs number the entries
    0, 1, ... without gaps or repeats."""
    runs = [run for prefix_len in sorted(groups, reverse=True)
            for record_runs, _ in groups[prefix_len] for run in record_runs]
    if any(a[0] < b[0] for a, b in zip(runs, runs[1:])):
        raise FormatError(f"{path}: packed slots do not run longest prefix first")
    next_id = 0
    for _, first_id, count in sorted(runs, key=lambda run: run[1]):
        if first_id != next_id:
            raise FormatError(f"{path}: packed entry ids skip or repeat at {next_id}")
        next_id += count


def read_store(path: str, keys) -> EncryptedStore:
    """Load a store file built under the public part of `keys`.

    Raises SchemeMismatch when the file's key fingerprint is not that of
    `keys`, and FormatError for a malformed file, including a ciphertext
    value outside its group: a PHE element outside [1, cipher_modulus), a
    lattice coefficient not below ciphertext_mod.  Lattice ciphertexts are
    rebuilt with the parameters of `keys`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != STORE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a store file")
    if len(data) < _HEADER_SIZE:
        raise FormatError(f"{path}: store file is truncated")
    version, scheme_byte = data[4], data[5]
    if version != STORE_VERSION:
        raise FormatError(f"{path}: unsupported store version {version}")
    packed = scheme_byte == _PACKED_SCHEME_BYTE
    scheme = BFV_SCHEME if packed else _SCHEME_OF_BYTE.get(scheme_byte)
    if scheme is None:
        raise FormatError(f"{path}: unknown scheme byte {scheme_byte}")
    if scheme != keys.SCHEME:
        raise SchemeMismatch(f"{path}: store was built for {scheme}, keys are "
                             f"{keys.SCHEME}")
    pub = phe.public_part(keys)
    if data[6:38] != _fingerprint(pub):
        raise SchemeMismatch(f"{path}: store was built under a different public key")

    params = keys.params if scheme == BFV_SCHEME else None
    # each ciphertext value lies in [low, modulus)
    if params is not None:
        n = params.ring_dim
        width, low, modulus = 2 * n, 0, params.ciphertext_mod
    else:
        width = GM_WIDTH if scheme == SchemeId.GOLDWASSER_MICALI else 1
        low, modulus = 1, pub.cipher_modulus
    groups: dict[int, list] = {}
    next_id, pos = 0, _HEADER_SIZE
    for _ in range(_U32.unpack_from(data, pos - 4)[0]):
        if pos + _GROUP_HEAD.size > len(data):
            raise FormatError(f"{path}: store file is truncated")
        prefix_len, record_count = _GROUP_HEAD.unpack_from(data, pos)
        pos += _GROUP_HEAD.size
        if prefix_len > 32:
            raise FormatError(f"{path}: prefix byte {prefix_len} out of range")
        records = []
        for _ in range(record_count):
            elements, pos = _decode_elements(data, pos, path)
            values, extra = elements[:width], elements[width:]
            if len(values) != width or (extra and not packed):
                raise FormatError(f"{path}: {scheme} entry has {len(elements)} "
                                  f"elements, expected {width}")
            if min(values) < low or max(values) >= modulus:
                raise FormatError(f"{path}: {scheme} ciphertext value outside "
                                  f"[{low}, {modulus:#x})")
            if params is None:
                ct = PheCiphertext(SchemeId(scheme), values[0] if width == 1
                                   else tuple(values))
            else:
                ct = bfv.BfvCiphertext(bfv.RingPoly(tuple(values[:n])),
                                       bfv.RingPoly(tuple(values[n:])), params)
            if packed:
                runs = _packed_runs(extra, n, path)
            else:
                runs = ((prefix_len, next_id, 1),)
                next_id += 1
            records.append((runs, ct))
        if prefix_len in groups:
            raise FormatError(f"{path}: duplicate group for prefix {prefix_len}")
        groups[prefix_len] = records
    if pos != len(data):
        raise FormatError(f"{path}: trailing bytes after the last group")
    if not groups or not all(groups.values()):
        raise FormatError(f"{path}: store has no groups, or an empty group")
    if packed:
        _check_packed_layout(groups, path)
    return EncryptedStore(scheme, groups, packed, pub=pub)

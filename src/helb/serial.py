"""On-disk formats for keys and encrypted stores.

Key files are line-oriented text: a `HELB-KEY v1` header, a `scheme =`
line, then one `field = <lowercase hex>` line per component (lists as
comma-separated hex, the lattice noise width as a decimal float).  The
public file carries the public fields only; the secret file repeats them
and appends the private fields, so it is usable on its own.

Store files are binary: magic `HELB`, a version byte, a scheme byte, a
big-endian u32 group count, then per group a prefix byte and u32 entry
count, and per entry a u64 entry id, a u32 element count, and
length-prefixed big-endian magnitudes.
"""

from __future__ import annotations

import os
import struct

from . import bfv
from .errors import FormatError
from .ipmatch import BFV_SCHEME, GM_WIDTH, EncryptedStore
from .phe import (
    PheCiphertext,
    SchemeId,
    benaloh,
    damgard_jurik,
    goldwasser_micali,
    naccache_stern,
    okamoto_uchiyama,
    paillier,
)

KEY_MAGIC = "HELB-KEY v1"
STORE_MAGIC = b"HELB"
STORE_VERSION = 1

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


def _hex(value: int) -> str:
    return format(value, "x")


def _hex_list(values) -> str:
    return ",".join(format(v, "x") for v in values)


def _parse_hex(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise FormatError(f"not a hex value: {text!r}") from None


def _parse_hex_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_hex(part) for part in text.split(","))


def _key_fields(keys):
    """(scheme name, public fields, private fields) as ordered name/text pairs."""
    if isinstance(keys, bfv.BfvKeyPair):
        p = keys.params
        pub = [
            ("ring_dim", _hex(p.ring_dim)),
            ("plaintext_mod", _hex(p.plaintext_mod)),
            ("ciphertext_mod", _hex(p.ciphertext_mod)),
            ("sigma", repr(p.err_stddev)),
            ("pk0", _hex_list(keys.pk0.coeffs)),
            ("pk1", _hex_list(keys.pk1.coeffs)),
        ]
        return BFV_SCHEME, pub, [("s", _hex_list(keys.secret.coeffs))]
    if isinstance(keys, paillier.PaillierKeyPair):
        pub = [("n", _hex(keys.public.n)), ("g", _hex(keys.public.g))]
        return "paillier", pub, [("lambda", _hex(keys.lam)), ("mu", _hex(keys.mu))]
    if isinstance(keys, damgard_jurik.DamgardJurikKeyPair):
        pub = [("n", _hex(keys.public.n)), ("g", _hex(keys.public.g)),
               ("s", _hex(keys.public.s))]
        return "damgard_jurik", pub, [("lambda", _hex(keys.lam)), ("d", _hex(keys.d))]
    if isinstance(keys, okamoto_uchiyama.OkamotoUchiyamaKeyPair):
        pub = [("n", _hex(keys.public.n)), ("g", _hex(keys.public.g)),
               ("h", _hex(keys.public.h)), ("k", _hex(keys.public.msg_bits))]
        return "okamoto_uchiyama", pub, [("p", _hex(keys.p)), ("q", _hex(keys.q))]
    if isinstance(keys, benaloh.BenalohKeyPair):
        pub = [("y", _hex(keys.public.y)), ("r", _hex(keys.public.r)),
               ("n", _hex(keys.public.n))]
        return "benaloh", pub, [("p", _hex(keys.p)), ("q", _hex(keys.q)),
                                ("x", _hex(keys.x))]
    if isinstance(keys, naccache_stern.NaccacheSternKeyPair):
        pub = [("p", _hex(keys.public.p)), ("v", _hex_list(keys.public.v)),
               ("n_bits", _hex(keys.public.n_bits))]
        return "naccache_stern", pub, [("s", _hex(keys.s))]
    if isinstance(keys, goldwasser_micali.GoldwasserMicaliKeyPair):
        pub = [("n", _hex(keys.public.n)), ("a", _hex(keys.public.a))]
        return "goldwasser_micali", pub, [("p", _hex(keys.p)), ("q", _hex(keys.q))]
    raise FormatError(f"cannot serialize keys of type {type(keys).__name__}")


def _render_key_file(scheme: str, fields) -> str:
    lines = [KEY_MAGIC, f"scheme = {scheme}"]
    lines.extend(f"{name} = {value}" for name, value in fields)
    return "\n".join(lines) + "\n"


def write_key_files(keys, base_path: str) -> tuple[str, str]:
    """Write `<base>.pub` and `<base>.sec`; the secret file is chmod 0600."""
    scheme, pub, priv = _key_fields(keys)
    pub_path = base_path + ".pub"
    sec_path = base_path + ".sec"
    with open(pub_path, "w", encoding="utf-8") as fh:
        fh.write(_render_key_file(scheme, pub))
    with open(sec_path, "w", encoding="utf-8") as fh:
        fh.write(_render_key_file(scheme, pub + priv))
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


def _missing(fields, *names):
    return [n for n in names if n not in fields]


def read_key_file(path: str):
    """Load a key file; returns a key pair, or a public key object when the
    private fields are absent."""
    with open(path, "r", encoding="utf-8") as fh:
        scheme, fields = _parse_key_text(fh.read())

    def need(*names):
        absent = _missing(fields, *names)
        if absent:
            raise FormatError(f"{path}: missing {scheme} fields {absent}")

    if scheme == "paillier":
        need("n", "g")
        pub = paillier.PaillierPublicKey(_parse_hex(fields["n"]), _parse_hex(fields["g"]))
        if _missing(fields, "lambda", "mu"):
            return pub
        return paillier.PaillierKeyPair(pub, _parse_hex(fields["lambda"]),
                                        _parse_hex(fields["mu"]))
    if scheme == "damgard_jurik":
        need("n", "g", "s")
        pub = damgard_jurik.DamgardJurikPublicKey(
            _parse_hex(fields["n"]), _parse_hex(fields["g"]), _parse_hex(fields["s"]))
        if _missing(fields, "lambda", "d"):
            return pub
        return damgard_jurik.DamgardJurikKeyPair(
            pub, _parse_hex(fields["lambda"]), _parse_hex(fields["d"]))
    if scheme == "okamoto_uchiyama":
        need("n", "g", "h", "k")
        pub = okamoto_uchiyama.OkamotoUchiyamaPublicKey(
            _parse_hex(fields["n"]), _parse_hex(fields["g"]),
            _parse_hex(fields["h"]), _parse_hex(fields["k"]))
        if _missing(fields, "p", "q"):
            return pub
        return okamoto_uchiyama.OkamotoUchiyamaKeyPair(
            pub, _parse_hex(fields["p"]), _parse_hex(fields["q"]))
    if scheme == "benaloh":
        need("y", "r", "n")
        pub = benaloh.BenalohPublicKey(_parse_hex(fields["y"]),
                                       _parse_hex(fields["r"]),
                                       _parse_hex(fields["n"]))
        if _missing(fields, "p", "q", "x"):
            return pub
        return benaloh.BenalohKeyPair(pub, _parse_hex(fields["p"]),
                                      _parse_hex(fields["q"]),
                                      _parse_hex(fields["x"]))
    if scheme == "naccache_stern":
        need("p", "v", "n_bits")
        v = _parse_hex_list(fields["v"])
        if len(v) != _parse_hex(fields["n_bits"]):
            raise FormatError(f"{path}: n_bits does not match the length of v")
        pub = naccache_stern.NaccacheSternPublicKey(_parse_hex(fields["p"]), v)
        if _missing(fields, "s"):
            return pub
        return naccache_stern.NaccacheSternKeyPair(pub, _parse_hex(fields["s"]))
    if scheme == "goldwasser_micali":
        need("n", "a")
        pub = goldwasser_micali.GoldwasserMicaliPublicKey(
            _parse_hex(fields["n"]), _parse_hex(fields["a"]))
        if _missing(fields, "p", "q"):
            return pub
        return goldwasser_micali.GoldwasserMicaliKeyPair(
            pub, _parse_hex(fields["p"]), _parse_hex(fields["q"]))
    if scheme == BFV_SCHEME:
        need("ring_dim", "plaintext_mod", "ciphertext_mod", "sigma", "pk0", "pk1")
        params = bfv.BfvParams(
            _parse_hex(fields["ring_dim"]),
            _parse_hex(fields["plaintext_mod"]),
            _parse_hex(fields["ciphertext_mod"]),
            float(fields["sigma"]),
        )
        pk0 = bfv.RingPoly(_parse_hex_list(fields["pk0"]))
        pk1 = bfv.RingPoly(_parse_hex_list(fields["pk1"]))
        if _missing(fields, "s"):
            return bfv.BfvPublicKey(params, pk0, pk1)
        return bfv.BfvKeyPair(params, bfv.RingPoly(_parse_hex_list(fields["s"])),
                              pk0, pk1)
    raise FormatError(f"{path}: unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# store files


def _magnitude(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _entry_elements(store: EncryptedStore, record) -> tuple[int, list[int]]:
    if store.scheme == BFV_SCHEME:
        if store.packed:
            entry_id, fill, ct = record
            return entry_id, list(ct.c0.coeffs) + list(ct.c1.coeffs) + [fill]
        entry_id, ct = record
        return entry_id, list(ct.c0.coeffs) + list(ct.c1.coeffs)
    entry_id, ct = record
    payload = ct.payload
    return entry_id, list(payload) if isinstance(payload, tuple) else [payload]


def write_store(store: EncryptedStore, path: str) -> None:
    scheme_byte = _PACKED_SCHEME_BYTE if store.packed else _SCHEME_BYTES[store.scheme]
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(bytes([STORE_VERSION, scheme_byte]))
        fh.write(struct.pack(">I", len(store.groups)))
        for prefix_len, records in store.groups.items():
            fh.write(bytes([prefix_len]))
            fh.write(struct.pack(">I", len(records)))
            for record in records:
                entry_id, elements = _entry_elements(store, record)
                fh.write(struct.pack(">Q", entry_id))
                fh.write(struct.pack(">I", len(elements)))
                for value in elements:
                    blob = _magnitude(value)
                    fh.write(struct.pack(">I", len(blob)))
                    fh.write(blob)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise FormatError("store file is truncated")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def element(self) -> int:
        return int.from_bytes(self.take(self.u32()), "big")


def read_store(path: str, *, bfv_params: bfv.BfvParams | None = None) -> EncryptedStore:
    """Load a store file.  Lattice-backed stores need the parameter set from
    the matching key file to rebuild their ciphertexts."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != STORE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a store file")
    version = reader.u8()
    if version != STORE_VERSION:
        raise FormatError(f"{path}: unsupported store version {version}")
    scheme_byte = reader.u8()
    packed = scheme_byte == _PACKED_SCHEME_BYTE
    scheme = BFV_SCHEME if packed else _SCHEME_OF_BYTE.get(scheme_byte)
    if scheme is None:
        raise FormatError(f"{path}: unknown scheme byte {scheme_byte}")
    is_bfv = scheme == BFV_SCHEME
    if is_bfv and bfv_params is None:
        raise FormatError(
            f"{path}: lattice store needs bfv_params from its key file")

    groups: dict[int, list] = {}
    for _ in range(reader.u32()):
        prefix_len = reader.u8()
        if prefix_len > 32:
            raise FormatError(f"{path}: prefix byte {prefix_len} out of range")
        records = []
        for _ in range(reader.u32()):
            entry_id = reader.u64()
            elements = [reader.element() for _ in range(reader.u32())]
            if is_bfv:
                n = bfv_params.ring_dim
                want = 2 * n + (1 if packed else 0)
                if len(elements) != want:
                    raise FormatError(
                        f"{path}: lattice entry has {len(elements)} elements, "
                        f"expected {want}")
                ct = bfv.BfvCiphertext(bfv.RingPoly(tuple(elements[:n])),
                                       bfv.RingPoly(tuple(elements[n:2 * n])),
                                       bfv_params)
                if packed:
                    fill = elements[-1]
                    if not 1 <= fill <= n:
                        raise FormatError(
                            f"{path}: packed entry fill {fill} is outside "
                            f"[1, {n}]")
                    records.append((entry_id, fill, ct))
                else:
                    records.append((entry_id, ct))
            else:
                sid = SchemeId(scheme)
                if sid is SchemeId.GOLDWASSER_MICALI:
                    if len(elements) != GM_WIDTH:
                        raise FormatError(
                            f"{path}: {scheme} entry has {len(elements)} "
                            f"elements, expected {GM_WIDTH}")
                    payload: int | tuple[int, ...] = tuple(elements)
                elif len(elements) == 1:
                    payload = elements[0]
                else:
                    raise FormatError(
                        f"{path}: {scheme} entry must hold one element")
                records.append((entry_id, PheCiphertext(sid, payload)))
        if prefix_len in groups:
            raise FormatError(f"{path}: duplicate group for prefix {prefix_len}")
        groups[prefix_len] = records
    if reader.pos != len(reader.data):
        raise FormatError(f"{path}: trailing bytes after the last group")
    return EncryptedStore(scheme, groups, packed)

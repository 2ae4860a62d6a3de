"""Test-only helpers: independent oracles and frozen small parameter sets.

The oracles here deliberately avoid the library's own code paths: trial
division instead of Miller-Rabin, square enumeration instead of
reciprocity, plain masking instead of encrypted matching, quadratic
convolution instead of the Kronecker product.  A network is a (network,
prefix length) pair, as `ipmatch` gives it.
"""

import contextlib
import hashlib
import io
import random
import struct
from typing import NamedTuple

from helb import bfv, cli
from helb.ipmatch import prefix_to_mask

# Small lattice profiles for protocol-level tests.  Plaintext moduli are
# primes above 2^32 (so masked addresses are distinct residues) congruent
# to 1 mod 2n; ciphertext moduli are primes congruent to 1 mod both 2n and
# t, exceeding t * 2^20.
SMALL_PARAMS = bfv.BfvParams(64, 4_294_967_681, 4_507_448_322_114_433, 3.2)
SCALE_PARAMS = bfv.BfvParams(1024, 4_294_991_873, 4_573_994_545_070_081, 3.2)

# n = 16 pair: one ciphertext modulus congruent to 1 mod 2n and one with
# (q - 1) % 2n != 0; the ring product must not depend on that congruence.
TINY_PARAMS = bfv.BfvParams(16, 65_537, 68_724_719_681, 3.2)
TINY_PARAMS_NO_NTT = bfv.BfvParams(16, 65_537, 68_720_656_387, 3.2)


def trial_division_is_prime(n: int) -> bool:
    """Primality by exhaustive trial division (oracle for the MR test)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def legendre_by_squares(a: int, p: int) -> int:
    """Legendre symbol by enumerating all squares mod p (oracle for jacobi)."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def inverse_by_search(a: int, m: int):
    """Exhaustive modular-inverse search (oracle for mod_inv)."""
    for x in range(m):
        if a * x % m == 1:
            return x
    return None


def dlog_by_enumeration(base: int, target: int, modulus: int, bound: int):
    """Exhaustive exponent search (oracle for brute_force_dlog)."""
    for e in range(bound):
        if pow(base, e, modulus) == target % modulus:
            return e
    return None


def format_ipv4(value: int) -> str:
    """A 32-bit integer as a dotted quad, first octet most significant."""
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def plain_member(ip: int, entries) -> bool:
    """Plaintext membership oracle: any entry whose masked form equals the
    masked target."""
    return any((ip & prefix_to_mask(plen)) == network for network, plen in entries)


def random_entries(rnd, count: int, prefixes=(8, 16, 24, 32)) -> list[tuple[int, int]]:
    """Random CIDR entries from a plain `random.Random` (not library code)."""
    out = []
    for _ in range(count):
        plen = rnd.choice(prefixes)
        network = rnd.getrandbits(32) & prefix_to_mask(plen)
        out.append((network, plen))
    return out


def biased_address(rnd, entries) -> int:
    """Random target that hits an entry about half the time."""
    if entries and rnd.random() < 0.5:
        network, plen = rnd.choice(entries)
        host = rnd.getrandbits(32) & ~prefix_to_mask(plen) & 0xFFFFFFFF
        return network | host
    return rnd.getrandbits(32)


# ---------------------------------------------------------------------------
# lattice oracles


def schoolbook_negacyclic_mul(a, b, q: int) -> list[int]:
    """Quadratic negacyclic convolution (oracle for `bfv.negacyclic_mul`)."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] -= ai * bj
    return [c % q for c in out]


def eval_add(ct1, ct2):
    """Componentwise sum of two BFV ciphertexts of one parameter set;
    decrypts to m1 + m2 mod t."""
    q = ct1.params.ciphertext_mod
    return bfv.BfvCiphertext(tuple((a + b) % q for a, b in zip(ct1.c0, ct2.c0)),
                             tuple((a + b) % q for a, b in zip(ct1.c1, ct2.c1)),
                             ct1.params)


def forge_uniform_secret(keys):
    """A lattice key pair with a uniform s and a public key that fits it:
    pk1 = a and pk0 = -(a*s + e) for small e.  A public-key encryption's
    noise holds e2*s, which no bound covers for such an s, so a store
    built from its `.pub` can read a listed address as not listed."""
    q, n = keys.params.ciphertext_mod, keys.params.ring_dim
    rnd = random.Random("uniform-secret")
    secret = tuple(rnd.randrange(q) for _ in range(n))
    a_s = bfv.negacyclic_mul(keys.public.pk1, secret, q)
    pk0 = tuple((-x - rnd.randint(-3, 3)) % q for x in a_s)
    return bfv.BfvKeyPair(replace(keys.public, pk0=pk0), secret)


def measure_noise(keys, ct, expected_pt, params) -> int:
    """Largest centred residue of c0 + c1*s - delta*m; must stay below
    params.noise_threshold for decryption to be exact."""
    q, t = params.ciphertext_mod, params.plaintext_mod
    c1_s = bfv.negacyclic_mul(ct.c1, keys.packed_secret, q)
    worst = 0
    for c0, x, m in zip(ct.c0, c1_s, expected_pt):
        v = (c0 + x - params.delta * (m % t)) % q
        worst = max(worst, min(v, q - v))
    return worst


def replace(obj, **changes):
    """A copy of the value object `obj` with the fields named in `changes`
    set to their new values; an unknown field name raises TypeError."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.FIELDS},
                        **changes})


def reseal(path) -> None:
    """Recompute the SHA-256 that ends a store file, so that a damaged file
    reaches the reader's other checks."""
    with open(path, "rb") as fh:
        data = fh.read()[:-32]
    with open(path, "wb") as fh:
        fh.write(data + hashlib.sha256(data).digest())


def set_header_runs(path, runs) -> None:
    """Replace the (prefix length, network count) runs in a store file's
    header, keep its records, and reseal it."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = data[:38] + bytes([len(runs)])
    header += b"".join(struct.pack(">BI", *run) for run in runs)
    with open(path, "wb") as fh:
        fh.write(header + data[39 + 5 * data[38]:])
    reseal(path)


class CliResult(NamedTuple):
    exit_code: int
    output: str


def run_cli(*args) -> CliResult:
    """Run `helb` with `args` in this process, as `perfbench/traced_helb.py`
    does: its exit status from `SystemExit`, and its stdout and stderr
    together."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            cli.main(args=[str(a) for a in args], prog_name="helb")
        except SystemExit as exc:
            return CliResult(exc.code, output.getvalue())
    raise AssertionError("cli.main returned instead of raising SystemExit")

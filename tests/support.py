"""Test-only helpers: independent oracles and frozen small parameter sets.

The oracles here deliberately avoid the library's own code paths: trial
division instead of Miller-Rabin, square enumeration instead of
reciprocity, plain masking instead of encrypted matching, quadratic
convolution instead of the transform.
"""

from helb import bfv
from helb.ipmatch import CidrEntry, prefix_to_mask

# Small lattice profiles for protocol-level tests.  Plaintext moduli are
# primes above 2^32 (so masked addresses are distinct residues) congruent
# to 1 mod 2n; ciphertext moduli are primes congruent to 1 mod both 2n and
# t, exceeding t * 2^20.
SMALL_PARAMS = bfv.BfvParams(64, 4_294_967_681, 4_507_448_322_114_433, 3.2)
SCALE_PARAMS = bfv.BfvParams(1024, 4_294_991_873, 4_573_994_545_070_081, 3.2)

# n = 16 pair for exercising both multiplication paths: one NTT-friendly
# modulus and one with (q - 1) % 2n != 0 that forces schoolbook convolution.
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


def plain_member(ip: int, entries) -> bool:
    """Plaintext membership oracle: any entry whose masked form equals the
    masked target."""
    return any((ip & prefix_to_mask(e.prefix_len)) == e.network for e in entries)


def random_entries(rnd, count: int, prefixes=(8, 16, 24, 32)) -> list[CidrEntry]:
    """Random CIDR entries from a plain `random.Random` (not library code)."""
    out = []
    for _ in range(count):
        plen = rnd.choice(prefixes)
        network = rnd.getrandbits(32) & prefix_to_mask(plen)
        out.append(CidrEntry(network, plen))
    return out


def biased_address(rnd, entries) -> int:
    """Random target that hits an entry about half the time."""
    if entries and rnd.random() < 0.5:
        entry = rnd.choice(entries)
        host = rnd.getrandbits(32) & ~prefix_to_mask(entry.prefix_len) & 0xFFFFFFFF
        return entry.network | host
    return rnd.getrandbits(32)


def set_packed_fill(path, fill: int) -> None:
    """Rewrite the fill count of a one-network packed store file.  The count
    is the file's last element: a u32 length of 1, then the byte 0x01."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert data[-5:] == bytes([0, 0, 0, 1, 1])
    blob = fill.to_bytes((fill.bit_length() + 7) // 8, "big")
    with open(path, "wb") as fh:
        fh.write(data[:-5] + len(blob).to_bytes(4, "big") + blob)

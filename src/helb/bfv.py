"""Minimal BFV over Z_q[x]/(x^n + 1) at multiplicative depth 0.

Plaintexts are polynomials mod t packed one value per coefficient;
ciphertexts are (c0, c1) pairs mod q.  Only addition and subtraction are
evaluated homomorphically, so no relinearization or modulus switching is
needed.  Polynomial products (a*s in key generation and in the key
holder's encryption, pk*u in public-key encryption, c1*s in decryption)
are one exact libmpdec multiplication each, by Kronecker substitution, for
any q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
)

from .errors import InvalidParams, ParamMismatch, TooManyValues
from .numtheory import RandomSource, is_probable_prime

# Enforced floor on q/t: plenty of rounding headroom at depth 0.
MIN_MOD_RATIO = 1 << 20

DEFAULT_SIGMA = 3.2

# Shared plaintext modulus: prime, above 2^32, and 1 mod 32768 so both
# profile ring dimensions divide (t - 1) / 2.
_T_DEFAULT = 35_184_372_744_193

# 80-bit prime, congruent to 1 mod t (so the scaling factor q/t is exact
# and wraps of the plaintext sum cost only one unit of noise).  It is also
# 1 mod 32768, which the ring product does not need; the value is kept so
# that existing key files and stores remain valid.
_Q_DEFAULT = 604_490_591_182_956_796_837_889

# integer arithmetic on decimals of any length; a rounded result would raise
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, InvalidOperation])


@dataclass(frozen=True)
class BfvParams:
    FILE_FIELDS = (("ring_dim", "ring_dim", int),
                   ("plaintext_mod", "plaintext_mod", int),
                   ("ciphertext_mod", "ciphertext_mod", int),
                   ("sigma", "err_stddev", float))

    ring_dim: int
    plaintext_mod: int
    ciphertext_mod: int
    err_stddev: float = DEFAULT_SIGMA

    @property
    def delta(self) -> int:
        """Plaintext scaling factor floor(q / t)."""
        return self.ciphertext_mod // self.plaintext_mod

    @property
    def noise_threshold(self) -> int:
        """Decryption succeeds while the noise magnitude stays below this."""
        return self.ciphertext_mod // (2 * self.plaintext_mod)


def desk_params() -> BfvParams:
    """Default profile: n = 4096, sized for a workstation."""
    return BfvParams(4096, _T_DEFAULT, _Q_DEFAULT, DEFAULT_SIGMA)


def wide_params() -> BfvParams:
    """n = 16384 profile matching common production library defaults."""
    return BfvParams(16384, _T_DEFAULT, _Q_DEFAULT, DEFAULT_SIGMA)


PROFILES = {"desk": desk_params, "wide": wide_params}


def param_violations(params: BfvParams) -> list[str]:
    """List of violated parameter constraints (empty when valid)."""
    out = []
    n = params.ring_dim
    t = params.plaintext_mod
    q = params.ciphertext_mod
    if n < 2 or n & (n - 1):
        out.append(f"ring_dim must be a power of two >= 2, got {n}")
    if t < 2 or not is_probable_prime(t):
        out.append(f"plaintext_mod must be prime, got {t}")
    if n >= 2 and (t - 1) % (2 * n):
        out.append(f"plaintext_mod must be congruent to 1 mod 2*ring_dim "
                   f"({t} - 1 is not divisible by {2 * n})")
    if q < 2 or not is_probable_prime(q):
        out.append(f"ciphertext_mod must be prime, got {q}")
    if t >= 2 and q <= t * MIN_MOD_RATIO:
        out.append(f"ciphertext_mod / plaintext_mod must exceed {MIN_MOD_RATIO}")
    if not 0 < params.err_stddev < math.inf:
        out.append(f"err_stddev must be positive and finite, got {params.err_stddev}")
    return out


def validate_params(params: BfvParams) -> bool:
    return not param_violations(params)


def _check_params(params: BfvParams) -> None:
    violations = param_violations(params)
    if violations:
        raise InvalidParams("; ".join(violations))


@dataclass(frozen=True)
class RingPoly:
    """Degree-bounded polynomial; coefficients canonical in [0, modulus)."""

    coeffs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def centered(self, modulus: int) -> tuple[int, ...]:
        """Coefficients mapped to (-modulus/2, modulus/2]."""
        half = modulus // 2
        return tuple(c - modulus if c > half else c for c in self.coeffs)


def ring_zero(n: int) -> RingPoly:
    return RingPoly((0,) * n)


@dataclass(frozen=True)
class BfvPublicKey:
    SCHEME = "bfv"
    FILE_FIELDS = ((None, "params", BfvParams), ("pk0", "pk0", RingPoly),
                   ("pk1", "pk1", RingPoly))

    params: BfvParams
    pk0: RingPoly
    pk1: RingPoly

    def violations(self) -> list[str]:
        """Parameter violations, plus key polynomials that are not ring elements."""
        out = param_violations(self.params)
        n, q = self.params.ring_dim, self.params.ciphertext_mod
        for name, attr, kind in self.FILE_FIELDS:
            poly = getattr(self, attr)
            if kind is RingPoly and (len(poly) != n or min(poly.coeffs) < 0
                                     or max(poly.coeffs) >= q):
                out.append(f"{name} is not {n} coefficients below ciphertext_mod")
        return out


@dataclass(frozen=True)
class BfvKeyPair:
    SCHEME = "bfv"
    FILE_FIELDS = BfvPublicKey.FILE_FIELDS + (("s", "secret", RingPoly),)

    params: BfvParams
    secret: RingPoly
    pk0: RingPoly
    pk1: RingPoly

    @property
    def public(self) -> BfvPublicKey:
        return BfvPublicKey(self.params, self.pk0, self.pk1)

    violations = BfvPublicKey.violations


@dataclass(frozen=True)
class BfvCiphertext:
    c0: RingPoly
    c1: RingPoly
    params: BfvParams


# ---------------------------------------------------------------------------
# negacyclic polynomial arithmetic


def schoolbook_negacyclic_mul(a, b, q: int) -> list[int]:
    """Quadratic negacyclic convolution; the test reference."""
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


def negacyclic_mul(a, b, q: int) -> list[int]:
    """Product of two length-n coefficient vectors in Z_q[x]/(x^n + 1).

    Kronecker substitution in decimal: each centred operand becomes one
    decimal integer whose d-digit slots are its coefficients, and one exact
    libmpdec product holds every coefficient c[k] of the plain product a*b.
    The slot bound exceeds both every |c[k]| <= n * max|a_i| * max|b_j| and
    every operand coefficient; d is one digit wider than the bound, so each
    coefficient offset by 5 * 10^(d-1) is exactly d digits long.  The
    offsets cancel in the negacyclic fold c[k] - c[k+n].  Only single slots
    pass through int and str, which refuse whole operands of more than
    4300 digits.
    """
    n = len(a)
    half = q // 2
    ca = [x - q if x > half else x for x in a]
    cb = [x - q if x > half else x for x in b]
    max_a, max_b = max(map(abs, ca)), max(map(abs, cb))
    d = len(str(max(n * max_a * max_b, max_a, max_b))) + 1
    off = 5 * 10 ** (d - 1)
    slot = str(off)
    off_n = Decimal(slot * n)

    def pack(coeffs):
        return _EXACT.subtract(
            Decimal("".join([str(x + off) for x in reversed(coeffs)])), off_n)

    text = str(_EXACT.add(_EXACT.multiply(pack(ca), pack(cb)),
                          Decimal(slot * (2 * n))))
    # slots are big-endian: c[2n-1] first, c[0] last
    digits = [int(text[i:i + d]) for i in range(len(text) - d, -1, -d)]
    return [(lo - hi) % q for lo, hi in zip(digits[:n], digits[n:])]


# ---------------------------------------------------------------------------
# sampling


def _sample_ternary(n: int, q: int, rng: RandomSource) -> list[int]:
    out = []
    for _ in range(n):
        v = rng.randrange(3) - 1
        out.append(v % q)
    return out


def _sample_gauss(n: int, sigma: float, q: int, rng: RandomSource) -> list[int]:
    # centered discrete Gaussian, tail cut at 6 sigma
    bound = int(6 * sigma)
    out = []
    while len(out) < n:
        v = round(rng.gauss(sigma))
        if abs(v) <= bound:
            out.append(v % q)
    return out


def _sample_uniform(n: int, q: int, rng: RandomSource) -> list[int]:
    return [rng.randrange(q) for _ in range(n)]


# ---------------------------------------------------------------------------
# scheme operations


def keygen(params: BfvParams, rng: RandomSource) -> BfvKeyPair:
    """Ternary secret plus the matching noisy public pair.

    pk0 = -(a*s + e) and pk1 = a, so pk0 + pk1*s is just the small noise e.
    """
    _check_params(params)
    n, q = params.ring_dim, params.ciphertext_mod
    secret = _sample_ternary(n, q, rng)
    a = _sample_uniform(n, q, rng)
    e = _sample_gauss(n, params.err_stddev, q, rng)
    a_s = negacyclic_mul(a, secret, q)
    pk0 = [(-(x + y)) % q for x, y in zip(a_s, e)]
    return BfvKeyPair(params, RingPoly(tuple(secret)), RingPoly(tuple(pk0)),
                      RingPoly(tuple(a)))


def encode(values, params: BfvParams) -> RingPoly:
    """Pack integers into plaintext coefficients (value i at coefficient i)."""
    n = params.ring_dim
    if len(values) > n:
        raise TooManyValues(f"{len(values)} values exceed ring dimension {n}")
    t = params.plaintext_mod
    coeffs = [v % t for v in values]
    coeffs.extend([0] * (n - len(coeffs)))
    return RingPoly(tuple(coeffs))


def decode(pt: RingPoly) -> list[int]:
    return list(pt.coeffs)


def encrypt(keys: BfvKeyPair | BfvPublicKey, pt: RingPoly, params: BfvParams,
            rng: RandomSource) -> BfvCiphertext:
    """Encrypt a plaintext polynomial.

    Under a public key: (pk0*u + e1 + delta*m, pk1*u + e2) for fresh ternary
    u and noise e1, e2.  Under a key pair, as the key holder: (-a*s + e +
    delta*m, a) for fresh uniform a and noise e, one ring product instead
    of two.  Both decrypt alike, with less noise from the key pair.
    """
    if keys.params != params:
        raise ParamMismatch("key pair was generated under different parameters")
    n, q, t = params.ring_dim, params.ciphertext_mod, params.plaintext_mod
    if len(pt) != n:
        raise ParamMismatch(f"plaintext has {len(pt)} coefficients, ring needs {n}")
    delta = params.delta
    scaled = [delta * (c % t) % q for c in pt.coeffs]
    if isinstance(keys, BfvKeyPair):
        a = _sample_uniform(n, q, rng)
        e = _sample_gauss(n, params.err_stddev, q, rng)
        a_s = negacyclic_mul(a, keys.secret.coeffs, q)
        c0 = [(y + z - x) % q for x, y, z in zip(a_s, e, scaled)]
        return BfvCiphertext(RingPoly(tuple(c0)), RingPoly(tuple(a)), params)
    u = _sample_ternary(n, q, rng)
    e1 = _sample_gauss(n, params.err_stddev, q, rng)
    e2 = _sample_gauss(n, params.err_stddev, q, rng)
    pk0_u = negacyclic_mul(keys.pk0.coeffs, u, q)
    pk1_u = negacyclic_mul(keys.pk1.coeffs, u, q)
    c0 = [(x + y + z) % q for x, y, z in zip(pk0_u, e1, scaled)]
    c1 = [(x + y) % q for x, y in zip(pk1_u, e2)]
    return BfvCiphertext(RingPoly(tuple(c0)), RingPoly(tuple(c1)), params)


def decrypt(keys: BfvKeyPair, ct: BfvCiphertext, params: BfvParams) -> RingPoly:
    """Recover the plaintext: round(t * (c0 + c1*s) / q) mod t, per coefficient.

    Rounding on the canonical representative and reducing mod t agrees with
    rounding the centered value; q odd means no exact ties exist.
    """
    if keys.params != params or ct.params != params:
        raise ParamMismatch("keys, ciphertext and parameters do not agree")
    q, t = params.ciphertext_mod, params.plaintext_mod
    c1_s = negacyclic_mul(ct.c1.coeffs, keys.secret.coeffs, q)
    half = q // 2
    out = [((c0 + x) % q * t + half) // q % t for c0, x in zip(ct.c0.coeffs, c1_s)]
    return RingPoly(tuple(out))


def _combine(ct1: BfvCiphertext, ct2: BfvCiphertext, op) -> BfvCiphertext:
    if ct1.params != ct2.params:
        raise ParamMismatch("ciphertexts come from different parameter sets")
    q = ct1.params.ciphertext_mod
    c0 = tuple(op(a, b) % q for a, b in zip(ct1.c0.coeffs, ct2.c0.coeffs))
    c1 = tuple(op(a, b) % q for a, b in zip(ct1.c1.coeffs, ct2.c1.coeffs))
    return BfvCiphertext(RingPoly(c0), RingPoly(c1), ct1.params)


def eval_add(ct1: BfvCiphertext, ct2: BfvCiphertext) -> BfvCiphertext:
    """Componentwise sum; decrypts to m1 + m2 mod t."""
    return _combine(ct1, ct2, lambda a, b: a + b)


def eval_sub(ct1: BfvCiphertext, ct2: BfvCiphertext) -> BfvCiphertext:
    """Componentwise difference; decrypts to m1 - m2 mod t."""
    return _combine(ct1, ct2, lambda a, b: a - b)


# ---------------------------------------------------------------------------
# noise accounting


def measure_noise(keys: BfvKeyPair, ct: BfvCiphertext, expected_pt: RingPoly,
                  params: BfvParams) -> int:
    """Largest centered residue of c0 + c1*s - delta*m; must stay below
    params.noise_threshold for decryption to be exact."""
    q, t = params.ciphertext_mod, params.plaintext_mod
    delta = params.delta
    c1_s = negacyclic_mul(ct.c1.coeffs, keys.secret.coeffs, q)
    half = q // 2
    worst = 0
    for c0, x, m in zip(ct.c0.coeffs, c1_s, expected_pt.coeffs):
        v = (c0 + x - delta * (m % t)) % q
        if v > half:
            v = q - v
        if v > worst:
            worst = v
    return worst


def fresh_noise_bound(params: BfvParams) -> int:
    """Worst-case noise of one fresh encryption.

    That is e1 + u*e_pk + e2*s with ternary u, s and 6-sigma noise under a
    public key; the key holder's encryption has only its e.  The
    trailing (q mod t) term covers scaling slack and one plaintext wrap
    per accumulated ciphertext.
    """
    tail = math.ceil(6 * params.err_stddev)
    slack = params.ciphertext_mod % params.plaintext_mod
    return tail * (2 * params.ring_dim + 1) + slack


def additive_noise_budget(params: BfvParams, ops: int) -> int:
    """Noise bound after `ops` additions or subtractions of fresh inputs."""
    return (ops + 1) * fresh_noise_bound(params)

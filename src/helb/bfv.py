"""Minimal BFV over Z_q[x]/(x^n + 1) at multiplicative depth 0.

Plaintexts are polynomials mod t packed one value per coefficient;
ciphertexts are (c0, c1) pairs mod q.  Only addition and subtraction are
evaluated homomorphically, so no relinearization or modulus switching is
needed.  Polynomial products (a*s in key generation, pk*u in encryption,
c1*s in decryption) run through a negacyclic NTT when q = 1 mod 2n and
fall back to schoolbook convolution otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import InvalidParams, ParamMismatch, TooManyValues
from .numtheory import RandomSource, is_probable_prime

# Enforced floor on q/t: plenty of rounding headroom at depth 0.
MIN_MOD_RATIO = 1 << 20

DEFAULT_SIGMA = 3.2

# Shared plaintext modulus: prime, above 2^32, and 1 mod 32768 so both
# profile ring dimensions divide (t - 1) / 2.
_T_DEFAULT = 35_184_372_744_193

# 80-bit prime, congruent to 1 both mod 32768 (NTT-friendly for either
# profile) and mod t (so the scaling factor q/t is exact and wraps of the
# plaintext sum cost only one unit of noise).
_Q_DEFAULT = 604_490_591_182_956_796_837_889


@dataclass(frozen=True)
class BfvParams:
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
    if not params.err_stddev > 0:
        out.append(f"err_stddev must be positive, got {params.err_stddev}")
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
    params: BfvParams
    pk0: RingPoly
    pk1: RingPoly


@dataclass(frozen=True)
class BfvKeyPair:
    params: BfvParams
    secret: RingPoly
    pk0: RingPoly
    pk1: RingPoly

    @property
    def public(self) -> BfvPublicKey:
        return BfvPublicKey(self.params, self.pk0, self.pk1)


@dataclass(frozen=True)
class BfvCiphertext:
    c0: RingPoly
    c1: RingPoly
    params: BfvParams


# ---------------------------------------------------------------------------
# negacyclic polynomial arithmetic


class _NttContext:
    """Precomputed tables for the negacyclic NTT at one (n, q)."""

    __slots__ = ("n", "q", "psi_pows", "untwist", "rev", "stages", "inv_stages")

    def __init__(self, n: int, q: int, psi: int):
        self.n = n
        self.q = q
        omega = psi * psi % q
        self.psi_pows = _power_table(psi, n, q)
        inv_psi = pow(psi, q - 2, q)
        n_inv = pow(n, q - 2, q)
        # fold the 1/n scaling into the untwist pass
        self.untwist = tuple(p * n_inv % q for p in _power_table(inv_psi, n, q))
        bits = n.bit_length() - 1
        self.rev = tuple(int(format(i, f"0{bits}b")[::-1], 2) for i in range(n))
        self.stages = _stage_tables(n, q, omega)
        self.inv_stages = _stage_tables(n, q, pow(omega, q - 2, q))

    def _cyclic(self, x: list[int], stages) -> list[int]:
        n, q = self.n, self.q
        size = 2
        for tab in stages:
            half = size >> 1
            for start in range(0, n, size):
                mid = start + half
                u = x[start:mid]
                t = [v * w % q for v, w in zip(x[mid:start + size], tab)]
                x[start:mid] = [(a + b) % q for a, b in zip(u, t)]
                x[mid:start + size] = [(a - b) % q for a, b in zip(u, t)]
            size <<= 1
        return x

    def forward(self, coeffs) -> list[int]:
        q = self.q
        twisted = [c * p % q for c, p in zip(coeffs, self.psi_pows)]
        return self._cyclic([twisted[r] for r in self.rev], self.stages)

    def inverse(self, values) -> list[int]:
        x = self._cyclic([values[r] for r in self.rev], self.inv_stages)
        return [c * p % self.q for c, p in zip(x, self.untwist)]


def _power_table(base: int, count: int, q: int) -> tuple[int, ...]:
    out = [1] * count
    for i in range(1, count):
        out[i] = out[i - 1] * base % q
    return tuple(out)


def _stage_tables(n: int, q: int, omega: int) -> tuple[tuple[int, ...], ...]:
    stages = []
    size = 2
    while size <= n:
        w = pow(omega, n // size, q)
        stages.append(_power_table(w, size // 2, q))
        size <<= 1
    return tuple(stages)


def _find_2n_root(q: int, n: int) -> int:
    """A primitive 2n-th root of unity mod q (psi with psi^n = -1)."""
    exp = (q - 1) // (2 * n)
    g = 2
    while True:
        psi = pow(g, exp, q)
        if pow(psi, n, q) == q - 1:
            return psi
        g += 1


@functools.lru_cache(maxsize=None)
def _ntt_context(q: int, n: int) -> _NttContext | None:
    if n < 2 or n & (n - 1) or (q - 1) % (2 * n) or not is_probable_prime(q):
        return None
    return _NttContext(n, q, _find_2n_root(q, n))


def schoolbook_negacyclic_mul(a, b, q: int) -> list[int]:
    """Quadratic negacyclic convolution; reference path and NTT fallback."""
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
    """Product of two length-n coefficient vectors in Z_q[x]/(x^n + 1)."""
    ctx = _ntt_context(q, len(a))
    if ctx is None:
        return schoolbook_negacyclic_mul(a, b, q)
    fa = ctx.forward(a)
    fb = ctx.forward(b)
    return ctx.inverse([x * y % q for x, y in zip(fa, fb)])


@functools.lru_cache(maxsize=64)
def _key_ntt(coeffs: tuple[int, ...], q: int) -> tuple[int, ...] | None:
    """Cached forward transform of long-lived key polynomials."""
    ctx = _ntt_context(q, len(coeffs))
    if ctx is None:
        return None
    return tuple(ctx.forward(coeffs))


def _mul_with_key(poly: list[int], key: RingPoly, q: int) -> list[int]:
    key_hat = _key_ntt(key.coeffs, q)
    if key_hat is None:
        return schoolbook_negacyclic_mul(poly, key.coeffs, q)
    ctx = _ntt_context(q, len(poly))
    fp = ctx.forward(poly)
    return ctx.inverse([x * y % q for x, y in zip(fp, key_hat)])


def _mul_one_with_keys(poly: list[int], keys: list[RingPoly], q: int) -> list[list[int]]:
    """poly * k for each key polynomial, sharing one forward transform."""
    ctx = _ntt_context(q, len(poly))
    if ctx is None:
        return [schoolbook_negacyclic_mul(poly, k.coeffs, q) for k in keys]
    fp = ctx.forward(poly)
    out = []
    for k in keys:
        key_hat = _key_ntt(k.coeffs, q)
        out.append(ctx.inverse([x * y % q for x, y in zip(fp, key_hat)]))
    return out


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
            rng: RandomSource, *, use_public_key: bool = True) -> BfvCiphertext:
    """Encrypt a plaintext polynomial.

    The default path combines the public pair with fresh small u, e1, e2
    and works with just a :class:`BfvPublicKey`; the secret-key path
    computes (delta*m + a*s + e, -a) for uniform a.
    """
    if keys.params != params:
        raise ParamMismatch("key pair was generated under different parameters")
    n, q, t = params.ring_dim, params.ciphertext_mod, params.plaintext_mod
    if len(pt) != n:
        raise ParamMismatch(f"plaintext has {len(pt)} coefficients, ring needs {n}")
    delta = params.delta
    scaled = [delta * (c % t) % q for c in pt.coeffs]
    if use_public_key:
        u = _sample_ternary(n, q, rng)
        e1 = _sample_gauss(n, params.err_stddev, q, rng)
        e2 = _sample_gauss(n, params.err_stddev, q, rng)
        pk0_u, pk1_u = _mul_one_with_keys(u, [keys.pk0, keys.pk1], q)
        c0 = [(x + y + z) % q for x, y, z in zip(pk0_u, e1, scaled)]
        c1 = [(x + y) % q for x, y in zip(pk1_u, e2)]
    else:
        if not isinstance(keys, BfvKeyPair):
            raise ParamMismatch("secret-key encryption needs the full key pair")
        a = _sample_uniform(n, q, rng)
        e = _sample_gauss(n, params.err_stddev, q, rng)
        a_s = _mul_with_key(a, keys.secret, q)
        c0 = [(m + x + y) % q for m, x, y in zip(scaled, a_s, e)]
        c1 = [(-x) % q for x in a]
    return BfvCiphertext(RingPoly(tuple(c0)), RingPoly(tuple(c1)), params)


def decrypt(keys: BfvKeyPair, ct: BfvCiphertext, params: BfvParams) -> RingPoly:
    """Recover the plaintext: round(t * (c0 + c1*s) / q) mod t, per coefficient.

    Rounding on the canonical representative and reducing mod t agrees with
    rounding the centered value; q odd means no exact ties exist.
    """
    if keys.params != params or ct.params != params:
        raise ParamMismatch("keys, ciphertext and parameters do not agree")
    q, t = params.ciphertext_mod, params.plaintext_mod
    c1_s = _mul_with_key(list(ct.c1.coeffs), keys.secret, q)
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
    c1_s = _mul_with_key(list(ct.c1.coeffs), keys.secret, q)
    half = q // 2
    worst = 0
    for c0, x, m in zip(ct.c0.coeffs, c1_s, expected_pt.coeffs):
        v = (c0 + x - delta * (m % t)) % q
        if v > half:
            v = q - v
        if v > worst:
            worst = v
    return worst


def fresh_noise_bound(params: BfvParams, *, public_path: bool = True) -> int:
    """Worst-case noise of one fresh encryption.

    Public path: e1 + u*e_pk + e2*s with ternary u, s and 6-sigma noise.
    The trailing (q mod t) term covers scaling slack and one plaintext wrap
    per accumulated ciphertext.
    """
    tail = math.ceil(6 * params.err_stddev)
    slack = params.ciphertext_mod % params.plaintext_mod
    if public_path:
        return tail * (2 * params.ring_dim + 1) + slack
    return tail + slack


def additive_noise_budget(params: BfvParams, ops: int, *,
                          public_path: bool = True) -> int:
    """Noise bound after `ops` additions or subtractions of fresh inputs."""
    return (ops + 1) * fresh_noise_bound(params, public_path=public_path)

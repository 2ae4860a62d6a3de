"""Minimal BFV over Z_q[x]/(x^n + 1) at multiplicative depth 0.

Every ring element is a plain tuple of its n coefficients, lowest first,
each in [0, modulus).  A plaintext holds one value mod t per coefficient;
a ciphertext (c0, c1), the public key (pk0, pk1) and the secret are
tuples mod q.  Only addition and subtraction are evaluated
homomorphically, so no relinearization or modulus switching is needed.
Polynomial products (a*s in key generation and in the key holder's
encryption, pk*u in public-key encryption, c1*s in decryption) are one
exact libmpdec multiplication each, by Kronecker substitution, for any q.
A key pair packs its secret for that product once, and a public-key
encryption packs its u once for both of its products.

In cryptographic mode, each sampler draws one byte block per polynomial;
a seeded source keeps its stream of one draw per coefficient, so seeded
keys and ciphertexts repeat from release to release.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_right
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_DOWN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
)

from .errors import InvalidParams, ParamMismatch, TooManyValues
from .numtheory import RandomSource, is_probable_prime
from .value import Value

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

# Widest Gaussian tail, floor(6 sigma), that crypto mode samples by table;
# a wider one draws one normal variate per coefficient, as seeded mode does.
_CDT_MAX_TAIL = 64


class BfvParams(Value, frozen=True):
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
    if not out:  # the noise bounds need t >= 2 and a finite sigma
        budget = additive_noise_budget(params, 1)
        if budget >= params.noise_threshold:
            out.append(f"err_stddev leaves no noise headroom: the bound after "
                       f"one subtraction, {budget}, reaches the decryption "
                       f"threshold {params.noise_threshold}")
    return out


def _check_params(params: BfvParams) -> None:
    violations = param_violations(params)
    if violations:
        raise InvalidParams("; ".join(violations))


def _ring_violation(name: str, coeffs, params: BfvParams) -> list[str]:
    """Why `coeffs` is not a ring element mod q, as a list of one message."""
    n, q = params.ring_dim, params.ciphertext_mod
    if len(coeffs) == n and min(coeffs) >= 0 and max(coeffs) < q:
        return []
    return [f"{name} is not {n} coefficients below ciphertext_mod"]


class BfvPublicKey(Value, frozen=True):
    SCHEME = "bfv"
    FILE_FIELDS = ((None, "params", BfvParams), ("pk0", "pk0", tuple),
                   ("pk1", "pk1", tuple))

    params: BfvParams
    pk0: tuple[int, ...]
    pk1: tuple[int, ...]

    def violations(self) -> list[str]:
        """Parameter violations, plus key polynomials that are not ring elements."""
        return (param_violations(self.params)
                + _ring_violation("pk0", self.pk0, self.params)
                + _ring_violation("pk1", self.pk1, self.params))


class BfvKeyPair(Value, frozen=True):
    SCHEME = "bfv"
    FILE_FIELDS = ((None, "public", BfvPublicKey), ("s", "secret", tuple))

    public: BfvPublicKey
    secret: tuple[int, ...]

    @property
    def params(self) -> BfvParams:
        return self.public.params

    @functools.cached_property
    def packed_secret(self) -> "_Operand":
        """The secret as a ring-product operand, packed once at the slot
        width of its product with any polynomial mod q."""
        q = self.params.ciphertext_mod
        return _Operand(self.secret, q, q // 2)

    def violations(self) -> list[str]:
        """A secret that is not ternary, or does not fit the public key.

        Every coefficient of s must be 0, 1 or q - 1: a public-key
        encryption's noise holds e2*s, which `fresh_noise_bound` bounds
        for a ternary s only.  pk0 + pk1*s is the key's noise, at most 6
        sigma in every slot: that noise takes each of its slots, times u.
        The product packs the secret that `decrypt` reuses.
        """
        out = _ring_violation("s", self.secret, self.params)
        if not out:
            q, bound = self.params.ciphertext_mod, int(6 * self.params.err_stddev)
            if not {0, 1, q - 1}.issuperset(self.secret):
                out.append("s is not ternary: a coefficient is not 0, 1 or "
                           "ciphertext_mod - 1")
            a_s = negacyclic_mul(self.public.pk1, self.packed_secret, q)
            # small noise lies within `bound` of 0 or of q
            if any(bound < (x + y) % q < q - bound
                   for x, y in zip(self.public.pk0, a_s)):
                out.append("s does not fit the public key: pk0 + pk1*s is "
                           "not small noise")
        return out


class BfvCiphertext(Value, frozen=True):
    c0: tuple[int, ...]
    c1: tuple[int, ...]
    params: BfvParams


# ---------------------------------------------------------------------------
# negacyclic polynomial arithmetic


def _centred(coeffs, q: int) -> list[int]:
    half = q // 2
    return [x - q if x > half else x for x in coeffs]


@functools.lru_cache(maxsize=8)
def _slot_offsets(n: int, digits: int) -> tuple[Decimal, Decimal]:
    """Half of 10^digits in each of n slots, and in each of 2n slots: the
    n-slot value shifted up by n slots, plus itself."""
    slots_n = Decimal(str(5 * 10 ** (digits - 1)) * n)
    return slots_n, _EXACT.add(slots_n.scaleb(n * digits, _EXACT), slots_n)


def _pack(centred: list[int], digits: int) -> Decimal:
    """The decimal whose `digits`-digit slots, lowest last, hold `centred`."""
    off = 5 * 10 ** (digits - 1)
    text = "".join([str(x + off) for x in reversed(centred)])
    if len(text) != len(centred) * digits:  # a slot below 10^(digits-1)
        text = "".join([f"{x + off:0{digits}}" for x in reversed(centred)])
    return _EXACT.subtract(Decimal(text), _slot_offsets(len(centred), digits)[0])


class _Operand:
    """Coefficients packed once for `negacyclic_mul`, at the slot width of
    a product with any polynomial whose centred coefficients are at most
    `reach` in magnitude."""

    __slots__ = ("centred", "reach", "digits", "value")

    def __init__(self, coeffs, q: int, reach: int):
        self.centred = _centred(coeffs, q)
        self.reach = reach
        top = max(map(abs, self.centred))
        # the smallest d with 2 * max(n * reach * top, reach, top) < 10^d
        self.digits = len(str(2 * max(len(self.centred) * reach * top, reach, top)))
        self.value = _pack(self.centred, self.digits)


def negacyclic_mul(a, b, q: int) -> list[int]:
    """Product of two length-n coefficient vectors in Z_q[x]/(x^n + 1).

    `b` may also be a key pair's `packed_secret`.  Kronecker substitution
    in decimal: each centred operand becomes one decimal integer whose
    d-digit slots are its coefficients, and one exact libmpdec product
    holds every coefficient c[k] of the plain product a*b.  d is the
    narrowest width with 2 * max(n * max|a_i| * max|b_j|, max|a_i|,
    max|b_j|) < 10^d, so every operand coefficient, every |c[k]| and every
    folded |c[k] - c[k+n]| is below half of 10^d, and each sits in its
    slot offset by that half.  The fold subtracts the high n slots from
    the low n in one decimal subtraction; only its n slots pass through
    int and str, which refuse whole operands of more than 4300 digits.
    """
    ca = _centred(a, q)
    top_a = max(map(abs, ca))
    if not (isinstance(b, _Operand) and top_a <= b.reach):
        b = _Operand(getattr(b, "centred", b), q, top_a)
    n, d = len(ca), b.digits
    width = n * d
    slots_n, slots_2n = _slot_offsets(n, d)
    product = _EXACT.add(_EXACT.multiply(_pack(ca, d), b.value), slots_2n)
    high = product.scaleb(-width, _EXACT).to_integral_value(ROUND_DOWN, _EXACT)
    low = _EXACT.subtract(product, high.scaleb(width, _EXACT))
    text = str(_EXACT.add(_EXACT.subtract(low, high), slots_n)).zfill(width)
    # slots are big-endian: c[n-1] - c[2n-1] first, c[0] - c[n] last
    off = 5 * 10 ** (d - 1)
    return [(int(text[i:i + d]) - off) % q for i in range(width - d, -1, -d)]


# ---------------------------------------------------------------------------
# sampling


def _sample_ternary(n: int, q: int, rng: RandomSource) -> list[int]:
    if rng.is_seeded:
        return [(rng.randrange(3) - 1) % q for _ in range(n)]
    value_of = [(b % 3 - 1) % q for b in range(255)]
    out = []
    while len(out) < n:
        # bytes below 255 are uniform modulo 3
        block = rng.randbytes(n - len(out) + 16).translate(None, b"\xff")
        out += [value_of[b] for b in block]
    del out[n:]
    return out


@functools.lru_cache(maxsize=8)
def _gauss_cdt(sigma: float) -> tuple[int, ...]:
    """Inverse CDT of a normal variate of deviation sigma, rounded to the
    nearest integer v and kept when |v| <= floor(6 sigma): a uniform 64-bit
    word w stands for v = -floor(6 sigma) + bisect_right(table, w)."""
    tail = int(6 * sigma)
    scale = sigma * math.sqrt(2)
    # twice P(v - 1/2 < X < v + 1/2), from the upper tail for accuracy
    mass = [math.erfc((abs(v) - 0.5) / scale) - math.erfc((abs(v) + 0.5) / scale)
            for v in range(-tail, tail + 1)]
    total, acc, table = sum(mass), 0.0, []
    for m in mass[:-1]:
        acc += m
        table.append(round(acc / total * 2**64))
    return tuple(table)


def _sample_gauss(n: int, sigma: float, q: int, rng: RandomSource) -> list[int]:
    # centered discrete Gaussian, tail cut at 6 sigma
    bound = int(6 * sigma)
    if rng.is_seeded or bound > _CDT_MAX_TAIL:
        out = []
        while len(out) < n:
            v = round(rng.gauss(sigma))
            if abs(v) <= bound:
                out.append(v % q)
        return out
    value_of = [v % q for v in range(-bound, bound + 1)]
    table = _gauss_cdt(sigma)
    return [value_of[bisect_right(table, w)]
            for w in struct.unpack(f"<{n}Q", rng.randbytes(8 * n))]


def _sample_uniform(n: int, q: int, rng: RandomSource) -> list[int]:
    if rng.is_seeded:
        return [rng.randrange(q) for _ in range(n)]
    bits = q.bit_length()
    size, mask = (bits + 7) // 8, (1 << bits) - 1
    out = []
    while len(out) < n:
        # a bits-bit word lies below q with probability q / 2^bits > 1/2
        need = n - len(out)
        count = ((need + need // 32 + 16) << bits) // q
        block = rng.randbytes(count * size)
        words = map(int.from_bytes,
                    [block[i:i + size] for i in range(0, len(block), size)],
                    ["little"] * count)
        out += [x for w in words if (x := w & mask) < q]
    del out[n:]
    return out


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
    pk0 = tuple((-(x + y)) % q for x, y in zip(a_s, e))
    return BfvKeyPair(BfvPublicKey(params, pk0, tuple(a)), tuple(secret))


def encode(values, params: BfvParams) -> tuple[int, ...]:
    """Pack integers into plaintext coefficients (value i at coefficient i)."""
    n = params.ring_dim
    if len(values) > n:
        raise TooManyValues(f"{len(values)} values exceed ring dimension {n}")
    t = params.plaintext_mod
    return tuple(v % t for v in values) + (0,) * (n - len(values))


def encrypt(keys: BfvKeyPair | BfvPublicKey, pt, params: BfvParams,
            rng: RandomSource) -> BfvCiphertext:
    """Encrypt a plaintext polynomial.

    Under a public key: (pk0*u + e1 + delta*m, pk1*u + e2) for fresh ternary
    u and noise e1, e2.  Under a key pair, as the key holder: (-a*s + e +
    delta*m, a) for fresh uniform a and noise e, one ring product instead
    of two.  Both decrypt alike, with less noise from the key pair.
    """
    if keys.params != params:
        raise ParamMismatch("key pair was generated under different parameters")
    n, q = params.ring_dim, params.ciphertext_mod
    if isinstance(keys, BfvKeyPair):
        a = _sample_uniform(n, q, rng)
        e = _sample_gauss(n, params.err_stddev, q, rng)
        a_s = negacyclic_mul(a, keys.packed_secret, q)
        c0 = tuple((y - x) % q for x, y in zip(a_s, e))
        return add_plain(BfvCiphertext(c0, tuple(a), params), pt)
    # u is packed once, at the slot width of its product with any key polynomial
    u = _Operand(_sample_ternary(n, q, rng), q, q // 2)
    e1 = _sample_gauss(n, params.err_stddev, q, rng)
    e2 = _sample_gauss(n, params.err_stddev, q, rng)
    pk0_u = negacyclic_mul(keys.pk0, u, q)
    pk1_u = negacyclic_mul(keys.pk1, u, q)
    c0 = tuple((x + y) % q for x, y in zip(pk0_u, e1))
    c1 = tuple((x + y) % q for x, y in zip(pk1_u, e2))
    return add_plain(BfvCiphertext(c0, c1, params), pt)


def add_plain(ct: BfvCiphertext, pt) -> BfvCiphertext:
    """ct plus the plaintext polynomial pt: delta*pt added to c0, c1 kept.
    It adds no noise, and `encrypt` of pt is the encryption of zero from
    the same draws plus pt."""
    params = ct.params
    n, q, t = params.ring_dim, params.ciphertext_mod, params.plaintext_mod
    if len(pt) != n:
        raise ParamMismatch(f"plaintext has {len(pt)} coefficients, ring needs {n}")
    delta = params.delta
    c0 = tuple((c + delta * (m % t)) % q for c, m in zip(ct.c0, pt))
    return BfvCiphertext(c0, ct.c1, params)


def decrypt(keys: BfvKeyPair, ct: BfvCiphertext,
            params: BfvParams) -> tuple[int, ...]:
    """Recover the plaintext: round(t * (c0 + c1*s) / q) mod t, per coefficient.

    Rounding on the canonical representative and reducing mod t agrees with
    rounding the centered value; q odd means no exact ties exist.
    """
    if keys.params != params or ct.params != params:
        raise ParamMismatch("keys, ciphertext and parameters do not agree")
    q, t = params.ciphertext_mod, params.plaintext_mod
    c1_s = negacyclic_mul(ct.c1, keys.packed_secret, q)
    half = q // 2
    return tuple(((c0 + x) % q * t + half) // q % t for c0, x in zip(ct.c0, c1_s))


def eval_sub(ct1: BfvCiphertext, ct2: BfvCiphertext) -> BfvCiphertext:
    """Componentwise difference; decrypts to m1 - m2 mod t."""
    if ct1.params != ct2.params:
        raise ParamMismatch("ciphertexts come from different parameter sets")
    q = ct1.params.ciphertext_mod
    c0 = tuple((a - b) % q for a, b in zip(ct1.c0, ct2.c0))
    c1 = tuple((a - b) % q for a, b in zip(ct1.c1, ct2.c1))
    return BfvCiphertext(c0, c1, ct1.params)


# ---------------------------------------------------------------------------
# noise accounting


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

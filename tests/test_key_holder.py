"""The key holder's arithmetic for Paillier and Damgard-Jurik.

With the key pair, `is_zero` tests a ciphertext modulo p^(s+1) and
q^(s+1), and `encrypt` computes r^(n^s) by CRT.  The zero test must give
the boolean of `decrypt(c) == 0` for every integer c, or raise the same
exception type; encryption must give the same integer as under the
public key for the same randomness.  Key files whose private fields do
not fit the public key are refused on load.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helb import ipmatch, phe, serial
from helb.errors import FormatError
from helb.numtheory import RandomSource
from helb.phe import SchemeId, damgard_jurik, paillier

RNG = RandomSource.seeded
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

# (scheme module, s); Paillier is the case s = 1 with its own module
CASES = [(paillier, 1), (damgard_jurik, 1), (damgard_jurik, 2), (damgard_jurik, 3)]
CASE_IDS = ["paillier", "dj-s1", "dj-s2", "dj-s3"]


def _keygen(module, s, bits, seed, **opts):
    if module is paillier:
        return phe.keygen(SchemeId.PAILLIER, bits, RNG(seed), test_mode=True, **opts)
    return phe.keygen(SchemeId.DAMGARD_JURIK, bits, RNG(seed), test_mode=True,
                      s=s, **opts)


def _outcome(fn, keys, c):
    """fn(keys, c), or the type of the exception it raised."""
    try:
        return fn(keys, c)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _decrypts_to_zero(module):
    return lambda keys, c: module.decrypt(keys, c) == 0


def _crafted(keys, rng_seed=0) -> list[int]:
    """Edge values, multiples of the factors, and encrypted differences of
    0, +-1 and +-2^32, plain and blinded."""
    pub = keys.public
    n, modulus = pub.n, pub.cipher_modulus
    p, q = keys.crt.p, keys.crt.q
    values = [-1, 0, 1, 2, n, modulus - 1, modulus, modulus + 1]
    values += [k * f for f in (p, q) for k in (1, 2, 3, q + 1, p + 1)]
    rng = RNG(rng_seed)
    base = 2**32 + 7
    for delta in (0, 1, -1, 2**32, -(2**32)):
        diff = phe.sub_encrypted(keys, phe.encrypt(keys, base, rng),
                                 phe.encrypt(keys, base - delta, rng))
        values.append(diff.payload)
        values.append(phe.blind(keys, diff, rng).payload)
    return values


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def case(request):
    module, s = request.param
    return module, _keygen(module, s, 64, 20 + s)


def test_zero_test_agrees_with_decryption(case):
    module, keys = case
    crafted = _crafted(keys)
    top = keys.public.cipher_modulus + 1

    @EXAMPLES
    @given(st.integers(-1, top) | st.sampled_from(crafted))
    def check(c):
        assert _outcome(module.is_zero, keys, c) == \
            _outcome(_decrypts_to_zero(module), keys, c)

    check()
    # and every crafted value, not only those the search drew
    for c in crafted:
        assert _outcome(module.is_zero, keys, c) == \
            _outcome(_decrypts_to_zero(module), keys, c)


def test_crafted_values_cover_both_verdicts_and_refusals(case):
    module, keys = case
    outcomes = {_outcome(module.is_zero, keys, c) for c in _crafted(keys)}
    assert {True, False} <= outcomes
    assert any(isinstance(o, type) for o in outcomes)


@pytest.mark.parametrize("module, s", CASES[:3], ids=CASE_IDS[:3])
def test_zero_test_agrees_on_every_value_of_a_toy_key(module, s):
    keys = _keygen(module, s, 32, 1, p=5, q=7)
    is_zero = [_outcome(module.is_zero, keys, c)
               for c in range(-1, keys.public.cipher_modulus + 2)]
    decrypts = [_outcome(_decrypts_to_zero(module), keys, c)
                for c in range(-1, keys.public.cipher_modulus + 2)]
    assert is_zero == decrypts
    # the n^s-th residues are the units with m = 0: phi(n) of them
    assert is_zero.count(True) == 4 * 6


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def wide_case(request, paillier_keys, dj_keys):
    module, s = request.param
    if module is paillier:
        return paillier_keys
    if s == 1:
        return dj_keys
    return _keygen(module, s, 256, 30 + s)


def test_pair_and_public_key_encrypt_to_the_same_integer(wide_case):
    keys = wide_case
    for seed in range(10):
        for m in (0, 1, 2**32 - 1):
            assert phe.encrypt(keys, m, RNG(seed)) == \
                phe.encrypt(keys.public, m, RNG(seed))


def test_store_built_with_the_pair_is_byte_identical(paillier_keys, tmp_path):
    entries = [ipmatch.parse_cidr(text) for text in
               ("2.3.4.0/24", "10.0.0.0/8", "192.168.0.10/24", "8.8.8.8/32")]
    blobs = []
    for keys in (paillier_keys, paillier_keys.public):
        path = tmp_path / f"{type(keys).__name__}.bin"
        serial.write_store(ipmatch.build_store(entries, keys, RNG(5)), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("fixture, field, change", [
    ("paillier_keys", "lam", lambda v: v + 2),
    ("paillier_keys", "lam", lambda v: v // 2),
    ("paillier_keys", "mu", lambda v: v + 1),
    ("dj_keys", "lam", lambda v: v + 2),
    ("dj_keys", "d", lambda v: v + 1),
])
def test_tampered_private_field_is_a_violation(fixture, field, change, request):
    keys = request.getfixturevalue(fixture)
    assert keys.violations() == []
    bad = dataclasses.replace(keys, **{field: change(getattr(keys, field))})
    assert bad.violations()


def test_dj_s_out_of_range_is_refused_on_load(dj_keys, tmp_path):
    pub_path, _ = serial.write_key_files(dj_keys, str(tmp_path / "dj"))
    text = open(pub_path).read().replace("s = 1\n", "s = 400\n")
    with open(pub_path, "w") as fh:
        fh.write(text)
    with pytest.raises(FormatError, match="s is outside"):
        serial.read_key_file(pub_path)

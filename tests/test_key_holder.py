"""The key holder's arithmetic for Paillier and Damgard-Jurik.

With the key pair, `is_zero` tests a ciphertext modulo p^(s+1) and
q^(s+1), and `encrypt` computes r^(n^s) by CRT.  The zero test must give
the boolean of `decrypt(c) == 0` for every integer c, or raise the same
exception type; encryption must give the same integer as under the
public key for the same randomness.  Key files whose private fields do
not fit the public key are refused on load.
"""

import dataclasses
import hashlib
import json
import random

import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from helb import ipmatch, numtheory, phe, serial
from helb.errors import DecryptionFailure, FormatError, NotInvertible
from helb.numtheory import PrimePowerCrt, RandomSource
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


def _decrypt_by_formula(keys, c) -> int:
    """Decryption as each scheme defines it: L(c^lam)*mu mod n for
    Paillier, the exponent of 1 + n in c^d for Damgard-Jurik."""
    pub, c = keys.public, int(c)
    modulus = pub.cipher_modulus
    if not 0 < c < modulus:
        raise DecryptionFailure("ciphertext outside Z*_{n^(s+1)}")
    if pub.SCHEME == "damgard_jurik":
        return damgard_jurik._extract_exponent(pow(c, keys.d, modulus), pub.n, pub.s)
    x = pow(c, keys.lam, modulus)
    if (x - 1) % pub.n:
        raise DecryptionFailure("value is not congruent to 1 modulo n")
    return (x - 1) // pub.n * keys.mu % pub.n


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
        values.append(diff)
        values.append(phe.blind(keys, diff, rng))
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


def test_decryption_agrees_with_the_scheme_formula(case):
    # one decryption, extract(c^lam) * mu mod n^s, serves both formats
    module, keys = case
    crafted = _crafted(keys)

    @EXAMPLES
    @given(st.integers(-1, keys.public.cipher_modulus + 1) | st.sampled_from(crafted))
    def check(c):
        assert _outcome(module.decrypt, keys, c) == _outcome(_decrypt_by_formula, keys, c)

    check()
    for c in crafted:
        assert _outcome(module.decrypt, keys, c) == _outcome(_decrypt_by_formula, keys, c)


def test_paillier_key_with_another_g_decrypts_by_its_mu(paillier_keys):
    # a Paillier key file may carry any g of order a multiple of n; its mu
    # inverts L(g^lam), and decryption still returns the message
    n, lam = paillier_keys.public.n, paillier_keys.lam
    g = pow(n + 1, 12345, n * n) * pow(7, n, n * n) % (n * n)
    mu = numtheory.mod_inv((pow(g, lam, n * n) - 1) // n, n)
    keys = paillier.PaillierKeyPair(paillier.PaillierPublicKey(n, g), lam, mu)
    assert keys.violations() == []
    for seed, m in enumerate((0, 1, 2**32 - 1, n - 1)):
        c = paillier.encrypt(keys.public, m, RNG(seed))
        assert c == paillier.encrypt(keys, m, RNG(seed))
        assert paillier.decrypt(keys, c) == _decrypt_by_formula(keys, c) == m


def test_crafted_values_cover_both_verdicts_and_refusals(case):
    module, keys = case
    outcomes = {_outcome(module.is_zero, keys, c) for c in _crafted(keys)}
    assert {True, False} <= outcomes
    assert any(isinstance(o, type) for o in outcomes)


def test_record_subtraction_agrees_with_full_inverse(case):
    # a stored record is a plain integer: the key holder inverts it modulo
    # p^(s+1) and defers q^(s+1), for the integer the inverse modulo
    # n^(s+1) gives, or refuses it with the same exception
    module, keys = case
    modulus = keys.public.cipher_modulus
    query = phe.encrypt(keys, 2**32 + 7, RNG(5))

    def subtract(keys, record):
        return int(phe.sub_encrypted(keys, query, record))

    def full_inverse(keys, record):
        return int(query) * numtheory.mod_inv(record, modulus) % modulus

    crafted = [int(c) for c in _crafted(keys)]

    @EXAMPLES
    @given(st.integers(-1, modulus + 1) | st.sampled_from(crafted))
    def check(record):
        assert _outcome(subtract, keys, record) == \
            _outcome(full_inverse, keys, record)

    check()
    p, q = keys.crt.p, keys.crt.q
    for record in (p, 2 * q, modulus, 0):
        assert _outcome(subtract, keys, record) is NotInvertible
    assert subtract(keys, -1) == full_inverse(keys, -1)


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


# ---------------------------------------------------------------------------
# the deferred residue mod q^(s+1)

def test_deferred_arithmetic_converts_to_the_eager_integer(case):
    """A key holder's encryption, and what the group law of `phe` makes
    of it, is the integer that the arithmetic modulo n^(s+1) gives."""
    module, keys = case
    pub = keys.public
    modulus = pub.cipher_modulus
    top = min(module.message_modulus(keys), 2**40) - 1

    @EXAMPLES
    @given(st.integers(0, 2**32), st.integers(0, top), st.integers(0, top),
           st.integers(-(2**80), 2**80))
    def check(seed, m1, m2, k):
        lazy1 = module.encrypt(keys, m1, RNG(seed))
        lazy2 = module.encrypt(keys, m2, RNG(seed + 1))
        eager1 = module.encrypt(pub, m1, RNG(seed))
        eager2 = module.encrypt(pub, m2, RNG(seed + 1))
        assert not isinstance(lazy1, int)
        assert int(lazy1) == eager1 and lazy1 == eager1
        assert hash(lazy1) == hash(eager1)
        diff = phe.sub_encrypted(pub, lazy1, lazy2)
        assert int(diff) == eager1 * pow(eager2, -1, modulus) % modulus
        assert int(phe.add_encrypted(pub, eager2, lazy1)) == eager1 * eager2 % modulus
        assert int(phe.add_encrypted(pub, lazy1, eager2)) == eager1 * eager2 % modulus
        assert int(phe.sub_encrypted(pub, eager2, lazy1)) \
            == eager2 * pow(eager1, -1, modulus) % modulus
        assert int(phe.scalar_mul(pub, lazy1, k)) == pow(eager1, k, modulus)
        blinded = phe.scalar_mul(pub, diff, k)
        assert int(blinded) == pow(int(diff), k, modulus)
        assert module.is_zero(keys, blinded) == \
            (module.decrypt(keys, blinded) == 0) == module.is_zero(keys, int(blinded))
        assert module.decrypt(keys, diff) == (m1 - m2) % module.message_modulus(keys)

    check()


def test_non_unit_operand_leaves_the_deferral(case):
    """Combined with a multiple of p or q, a deferred value becomes the
    plain product, whose zero test refuses it as decryption does."""
    module, keys = case
    pub = keys.public
    lazy = module.encrypt(keys, 7, RNG(1))
    for factor in (keys.crt.p, keys.crt.q):
        product = phe.add_encrypted(pub, lazy, 3 * factor)
        assert isinstance(product, int)
        assert product == int(lazy) * 3 * factor % pub.cipher_modulus
        assert _outcome(module.is_zero, keys, product) == \
            _outcome(_decrypts_to_zero(module), keys, product)


@pytest.fixture(scope="module", params=["paillier", "dj-s2"])
def listed_store(request):
    """A 512-bit key pair, a seeded 24-network store of mixed prefixes
    built under its public key, a miss and a hit address."""
    module, s = (paillier, 1) if request.param == "paillier" else (damgard_jurik, 2)
    keys = _keygen(module, s, 512, 40 + s)
    rnd = random.Random(41)
    entries = []
    for _ in range(24):
        prefix_len = rnd.choice((8, 16, 20, 24, 28, 32))
        network = rnd.getrandbits(32) & ipmatch.prefix_to_mask(prefix_len)
        entries.append(ipmatch.CidrEntry(network, prefix_len))
    store = ipmatch.build_store(entries, keys.public, RNG(42))
    hit = entries[len(entries) // 2].network
    miss = next(ip for ip in range(0x04040404, 0x04040504)
                if not support.plain_member(ip, entries))
    return keys, store, miss, hit


@pytest.fixture
def q_residues(monkeypatch):
    """Counts the queries whose residue mod q^(s+1) gets computed."""
    calls = []
    deferred = PrimePowerCrt.nth_power_mod_q

    def spy(self, r):
        calls.append(r)
        return deferred(self, r)

    monkeypatch.setattr(PrimePowerCrt, "nth_power_mod_q", spy)
    return calls


@pytest.mark.parametrize("blind", [False, True], ids=["plain", "blind"])
def test_a_miss_computes_no_q_residue_and_a_hit_one(listed_store, q_residues,
                                                    blind):
    keys, store, miss, hit = listed_store
    result = ipmatch.match(miss, store, keys, RNG(43), blind=blind)
    assert not result.matched and result.stats["encryptions"] > 1
    assert q_residues == []
    result = ipmatch.match(hit, store, keys, RNG(44), blind=blind)
    assert result.matched
    assert len(q_residues) == 1


# SHA-256 of the `helb match --blind --exhaustive --debug --json` output,
# less its wall-clock "seconds", taken before the deferral: the draws of
# the randomness and the decrypted differences did not move
DEBUG_JSON_SHA256 = {
    ("paillier", "2.3.4.77"):
        "7ed1f38442bc008ec9e840bbf393ca7e8fd209ddfb3bcb3f208501b266c59ba7",
    ("paillier", "4.4.4.4"):
        "13c4f3994fbea3ca093f52f521454c5ec941fb2e02968a71a5c7fbc474a12be9",
    ("damgard_jurik", "2.3.4.77"):
        "82a8fc6466bcaa1952a85b64cfb3c55b3ac2ef3530d34d95600956116f11011c",
    ("damgard_jurik", "4.4.4.4"):
        "7fe73b1140f98619a38c44b6d096309d27cc83fb59f77a5c40c1c25747ad64c1",
}


@pytest.mark.parametrize("scheme", ["paillier", "damgard_jurik"])
def test_seeded_debug_json_is_pinned(scheme, tmp_path):
    def run(*args):
        result = support.run_cli(*args)
        assert result.exit_code in (0, 1), result.output
        return result

    cidrs, base = tmp_path / "list.txt", tmp_path / scheme
    cidrs.write_text("2.3.4.0/24\n10.0.0.0/8\n192.168.0.10/24\n8.8.8.8/32\n")
    extra = ["--dj-s", 2] if scheme == "damgard_jurik" else []
    run("keygen", "--scheme", scheme, "--bits", 256, "--out", base,
        "--seed", 1, *extra)
    store = tmp_path / "store.bin"
    # built from the secret key file: its deferred values are written whole
    run("blacklist", "encrypt", "--key", f"{base}.sec", "--cidr-file", cidrs,
        "--out", store, "--seed", 3)
    for ip in ("2.3.4.77", "4.4.4.4"):
        result = run("match", "--keys", f"{base}.sec", "--store", store,
                     "--ip", ip, "--blind", "--exhaustive", "--debug",
                     "--json", "--seed", 17)
        payload = json.loads(result.output)
        del payload["seconds"]
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            DEBUG_JSON_SHA256[scheme, ip]

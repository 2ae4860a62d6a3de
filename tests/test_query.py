"""Queries derived from one encryption of zero.

A lookup encrypts zero once, and each slot layout's query is that
ciphertext with the layout's masked addresses added as a known plaintext
(`record_handler(...).query`).  A derived query must read as those
addresses: it decrypts to them, or, where full decryption is infeasible,
zero-tests equal against a fresh encryption of them.  From a seeded
source it must be the very ciphertext that encrypting the addresses
directly gives with the same draws.
"""

import random

import pytest

from helb import bfv, ipmatch, phe
from helb.ipmatch import build_store, prefix_to_mask
from helb.numtheory import RandomSource

RNG = RandomSource.seeded
PREFIXES = (0, 1, 8, 16, 20, 24, 31, 32)
# Benaloh's default block cannot be decrypted by search: zero-tested only
DECRYPTABLE = ["paillier_keys", "dj_keys", "ou_keys", "ns_keys", "gm_keys"]
PHE = DECRYPTABLE + ["benaloh_wide_keys"]


def _addresses(seed: int, count: int = 6) -> list[int]:
    rnd = random.Random(seed)
    return [0, 0xFFFFFFFF] + [rnd.getrandbits(32) for _ in range(count - 2)]


def _queries(keys, rng):
    """(masked address, derived query) of every prefix length and address,
    all from one encryption of zero."""
    handler = ipmatch.record_handler(keys)
    zero = handler.zero(rng)
    for ip in _addresses(7):
        for prefix_len in PREFIXES:
            yield (ip & prefix_to_mask(prefix_len),
                   handler.query(zero, ip, ((prefix_len, 1),)))


def _equal(keys, ct1, ct2) -> bool:
    """Whether two ciphertexts hold the same message, by the zero test of
    their difference (their XOR for Goldwasser-Micali)."""
    if phe.scheme_of(keys) is phe.SchemeId.GOLDWASSER_MICALI:
        return phe.is_zero(keys, phe.xor_encrypted(keys, ct1, ct2))
    return phe.is_zero(keys, phe.sub_encrypted(keys, ct1, ct2))


@pytest.mark.parametrize("fixture", DECRYPTABLE)
def test_phe_query_decrypts_to_the_masked_address(fixture, request):
    keys = request.getfixturevalue(fixture)
    for masked, query in _queries(keys, RandomSource.crypto()):
        assert phe.decrypt(keys, query) == masked


@pytest.mark.parametrize("fixture", PHE)
def test_phe_query_zero_tests_equal_to_a_fresh_encryption(fixture, request):
    keys = request.getfixturevalue(fixture)
    rng = RandomSource.crypto()
    for masked, query in _queries(keys, rng):
        assert _equal(keys, query, phe.encrypt(keys, masked, rng))
        other = masked ^ (1 << rng.randrange(32))
        assert not _equal(keys, query, phe.encrypt(keys, other, rng))


@pytest.mark.parametrize("fixture", PHE)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_phe_query_is_the_encryption_from_the_same_draws(fixture, seed,
                                                                request):
    keys = request.getfixturevalue(fixture)
    handler = ipmatch.record_handler(keys)
    for ip in _addresses(seed):
        for prefix_len in PREFIXES:
            masked = ip & prefix_to_mask(prefix_len)
            query = handler.query(handler.zero(RNG(seed)), ip, ((prefix_len, 1),))
            assert query == phe.encrypt(keys, masked, RNG(seed))


def _lattice_layouts(keys, packed: bool):
    """The (slot layout, masked address of each slot) pairs of every
    record of a store of networks of several prefix lengths."""
    rnd = random.Random(11)
    entries = [(rnd.getrandbits(32) & prefix_to_mask(p), p)
               for p in (32, 24, 24, 16, 8) for _ in range(30)]
    store = build_store(entries, keys, RNG(12), packed=packed)
    ip = rnd.getrandbits(32)
    for runs in store.layout():
        layout = tuple((p, count) for p, _, count in runs)
        yield ip, layout, [ip & prefix_to_mask(p)
                           for p, count in layout for _ in range(count)]


@pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
def test_lattice_query_decrypts_to_the_masked_addresses(bfv_small_keys, packed):
    keys, params = bfv_small_keys, bfv_small_keys.params
    handler = ipmatch.record_handler(keys, packed)
    zero = handler.zero(RandomSource.crypto())
    layouts = list(_lattice_layouts(keys, packed))
    assert len(layouts) > 1
    for ip, layout, values in layouts:
        query = handler.query(zero, ip, layout)
        assert bfv.decrypt(keys, query, params) == bfv.encode(values, params)


@pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
def test_seeded_lattice_query_is_the_encryption_from_the_same_draws(
        bfv_small_keys, packed):
    keys, params = bfv_small_keys, bfv_small_keys.params
    handler = ipmatch.record_handler(keys, packed)
    for ip, layout, values in _lattice_layouts(keys, packed):
        query = handler.query(handler.zero(RNG(5)), ip, layout)
        assert query == bfv.encrypt(keys, bfv.encode(values, params), params, RNG(5))


def test_desk_query_decrypts_to_the_masked_addresses(desk_keys):
    params = desk_keys.params
    handler = ipmatch.record_handler(desk_keys, packed=True)
    zero = handler.zero(RandomSource.crypto())
    layout = ((32, 1000), (24, 3000), (8, 96))
    ip = 0x0A0B0C0D
    values = [ip & prefix_to_mask(p) for p, count in layout for _ in range(count)]
    query = handler.query(zero, ip, layout)
    assert bfv.decrypt(desk_keys, query, params) == bfv.encode(values, params)

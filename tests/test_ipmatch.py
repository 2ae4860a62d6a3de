import ipaddress
import random
import re

import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from helb import bfv, ipmatch, phe
from helb.errors import (
    InvalidAddress,
    InvalidOptions,
    InvalidPrefix,
    MessageOutOfRange,
    SchemeMismatch,
)
from helb.ipmatch import (
    build_store,
    load_cidr_file,
    match,
    parse_cidr,
    parse_ipv4,
    prefix_to_mask,
)
from helb.numtheory import RandomSource

RNG = RandomSource.seeded
SMALL = support.SMALL_PARAMS
EXAMPLES = settings(max_examples=500, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# parsing


class TestParseIpv4:
    def test_big_endian_packing(self):
        # 192*2^24 + 168*2^16 + 0*2^8 + 10
        assert parse_ipv4("192.168.0.10") == 3_232_235_530

    def test_zero_address(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_octet_bound(self):
        with pytest.raises(InvalidAddress):
            parse_ipv4("1.2.3.256")

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d",
                                     "1,2,3,4", "1.2.3.-4", ""])
    def test_malformed(self, bad):
        with pytest.raises(InvalidAddress):
            parse_ipv4(bad)

    def test_format_round_trip(self):
        for text in ("0.0.0.0", "255.255.255.255", "2.3.4.5"):
            assert support.format_ipv4(parse_ipv4(text)) == text


class TestParserAgreesWithIpaddress:
    """`parse_ipv4` reads exactly the strings that `ipaddress.IPv4Address`
    reads, to the same value, and `parse_cidr` reads a prefix length
    exactly as `ipaddress.ip_network` does."""

    @EXAMPLES
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip(self, value):
        text = support.format_ipv4(value)
        assert text == str(ipaddress.IPv4Address(value))
        assert parse_ipv4(text) == value == int(ipaddress.IPv4Address(text))

    # octets that are mostly numbers, some above 255, or odd digit strings
    @EXAMPLES
    @given(st.lists(st.one_of(st.integers(0, 299).map(str),
                              st.text("0123456789\u0661_+- \n", max_size=4)),
                    min_size=3, max_size=5).map(".".join))
    def test_near_quads(self, text):
        try:
            expected = int(ipaddress.IPv4Address(text))
        except ipaddress.AddressValueError:
            with pytest.raises(InvalidAddress):
                parse_ipv4(text)
        else:
            assert parse_ipv4(text) == expected

    @pytest.mark.parametrize("bad", [
        "01.2.3.4", "1.2.3.256", "1.2.3", "1.2.3.4.5", "1..2.3", "+1.2.3.4",
        "1_0.0.0.1", "\u0661.2.3.4", "1.2.3.4\n", " 1.2.3.4"])
    def test_refusals_name_the_text(self, bad):
        with pytest.raises(ipaddress.AddressValueError):
            ipaddress.IPv4Address(bad)
        with pytest.raises(InvalidAddress, match=re.escape(repr(bad))):
            parse_ipv4(bad)

    @staticmethod
    def _cidr_agrees(text):
        """`parse_cidr(text)` is the masked network and length that
        `ipaddress.ip_network` reads, or InvalidPrefix where it refuses."""
        try:
            network = ipaddress.ip_network(text, strict=False)
        except ValueError:
            with pytest.raises(InvalidPrefix):
                parse_cidr(text)
        else:
            assert parse_cidr(text) == (int(network.network_address),
                                        network.prefixlen)

    # prefix texts that `int()` reads; `ipaddress` takes only those of
    # ASCII digits
    @pytest.mark.parametrize("prefix, length", [
        ("24", 24), ("024", 24), ("08", 8), ("+24", 24), ("2_4", 24),
        (" 24", 24), ("\u0662\u0664", 24), ("-0", 0), ("0", 0), ("32", 32)])
    def test_prefix_texts_int_reads(self, prefix, length):
        assert int(prefix) == length
        self._cidr_agrees(f"10.1.2.3/{prefix}")
        if prefix.isascii() and prefix.isdigit():
            assert parse_cidr(f"10.1.2.3/{prefix}") == (
                0x0A010203 & prefix_to_mask(length), length)

    @pytest.mark.parametrize("prefix", [
        "", "2 4", "0x18", "24.0", "-1", "33", "+8", " 8", "0_8", "\u0668",
        pytest.param("9" * 5000, id="5000-digits")])
    def test_prefix_texts_refused(self, prefix):
        with pytest.raises(ValueError):
            ipaddress.ip_network(f"10.1.2.3/{prefix}", strict=False)
        with pytest.raises(InvalidPrefix):
            parse_cidr(f"10.1.2.3/{prefix}")

    # prefix texts of digits, signs, separators and other scripts' digits,
    # in a line stripped as `load_cidr_file` strips it
    @EXAMPLES
    @given(st.one_of(st.integers(0, 40).map(str),
                     st.text("0123456789\u0668\u0662_+-/ \n", max_size=4)))
    def test_prefix_lengths(self, prefix):
        self._cidr_agrees(f"10.1.2.3/{prefix}".strip())


class TestPrefixToMask:
    def test_slash_24(self):
        assert prefix_to_mask(24) == 0xFFFFFF00

    def test_extremes(self):
        assert prefix_to_mask(0) == 0x00000000
        assert prefix_to_mask(32) == 0xFFFFFFFF

    def test_bounds(self):
        with pytest.raises(InvalidPrefix):
            prefix_to_mask(33)
        with pytest.raises(InvalidPrefix):
            prefix_to_mask(-1)

    def test_masking_is_idempotent(self):
        rnd = random.Random("mask")
        for _ in range(200):
            value = rnd.getrandbits(32)
            plen = rnd.randrange(33)
            mask = prefix_to_mask(plen)
            assert (value & mask) & mask == value & mask


class TestParseCidr:
    def test_host_bits_cleared(self):
        assert parse_cidr("192.168.0.10/24") == (parse_ipv4("192.168.0.0"), 24)

    def test_already_normalized(self):
        assert parse_cidr("10.0.0.0/8") == (parse_ipv4("10.0.0.0"), 8)

    def test_prefix_out_of_range(self):
        with pytest.raises(InvalidPrefix):
            parse_cidr("1.2.3.4/33")

    def test_missing_prefix(self):
        with pytest.raises(InvalidPrefix):
            parse_cidr("1.2.3.4")

    def test_bad_address(self):
        with pytest.raises(InvalidAddress):
            parse_cidr("1.2.3.260/8")


class TestLoadCidrFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text(
            "# blacklist\n"
            "\n"
            "2.3.4.0/24\n"
            "10.0.0.0/8   # corporate\n"
            "   \n"
            "192.168.0.10/24\n")
        entries = load_cidr_file(path)
        assert len(entries) == 3
        assert entries == [(parse_ipv4("2.3.4.0"), 24), (parse_ipv4("10.0.0.0"), 8),
                           (parse_ipv4("192.168.0.0"), 24)]

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2.3.4.0/24\n999.1.1.1/8\n")
        with pytest.raises(InvalidAddress, match="line 2"):
            load_cidr_file(path)


# ---------------------------------------------------------------------------
# store construction


class TestBuildStore:
    def test_single_entry_single_group(self, paillier_keys):
        store = build_store([parse_cidr("2.3.4.0/24")], paillier_keys, RNG(1))
        assert store.counts == [(24, 1)]
        assert len(store.records) == 1
        assert store.entry_count == 1

    def test_grouping_by_prefix(self, paillier_keys):
        entries = [parse_cidr("2.3.4.0/24"), parse_cidr("9.9.9.0/24"),
                   parse_cidr("10.0.0.0/16")]
        store = build_store(entries, paillier_keys, RNG(2))
        assert store.counts == [(24, 2), (16, 1)]
        assert store.layout() == [((24, 0, 1),), ((24, 1, 1),), ((16, 2, 1),)]
        assert len(store.records) == 3

    def test_duplicates_removed(self, paillier_keys):
        entries = [parse_cidr("2.3.4.0/24"), parse_cidr("2.3.4.7/24"),
                   parse_cidr("2.3.4.0/16")]
        store = build_store(entries, paillier_keys, RNG(3))
        assert store.entry_count == 2
        # the duplicate leaves no trace in the store
        assert store == build_store(entries[::2], paillier_keys, RNG(3))

    def test_store_holds_what_its_file_holds(self):
        assert ipmatch.EncryptedStore.FIELDS == (
            "pub", "counts", "records", "packed")

    def test_empty_list_rejected(self, paillier_keys):
        with pytest.raises(InvalidOptions):
            build_store([], paillier_keys, RNG(4))

    def test_group_ciphertexts_have_clear_host_bits(self, paillier_keys):
        # every ciphertext in group l decrypts to a value with 32-l zero bits
        rnd = random.Random("store")
        entries = support.random_entries(rnd, 30)
        store = build_store(entries, paillier_keys, RNG(5))
        for runs, ct in zip(store.layout(), store.records):
            mask = prefix_to_mask(runs[0][0])
            value = phe.decrypt(paillier_keys, ct)
            assert value & mask == value

    def test_packed_needs_bfv(self, paillier_keys):
        with pytest.raises(InvalidOptions):
            build_store([parse_cidr("1.2.3.0/24")], paillier_keys, RNG(6),
                        packed=True)

    def test_bfv_plaintext_modulus_must_cover_addresses(self):
        keys = bfv.keygen(support.TINY_PARAMS, RNG(7))  # t = 65537 < 2^32
        with pytest.raises(MessageOutOfRange):
            build_store([parse_cidr("1.2.3.0/24")], keys, RNG(8))

    def test_packed_chunking(self, bfv_small_keys):
        rnd = random.Random("pack")
        entries = support.random_entries(rnd, 150, prefixes=(24,))
        entries = list(dict.fromkeys(entries))
        store = build_store(entries, bfv_small_keys, RNG(9), packed=True)
        packs = store.layout()
        n = SMALL.ring_dim
        expected_packs = (len(entries) + n - 1) // n
        assert len(packs) == len(store.records) == expected_packs
        assert store.entry_count == len(entries)
        assert packs[0] == ((24, 0, n),)  # first pack is full

    def test_packs_mix_prefixes_longest_first(self, bfv_small_keys):
        rnd = random.Random("mix")
        entries = support.random_entries(rnd, 150)
        entries = list(dict.fromkeys(entries))
        store = build_store(entries, bfv_small_keys, RNG(9), packed=True)
        packs = store.layout()
        n = SMALL.ring_dim
        assert len(packs) == len(store.records) == (len(entries) + n - 1) // n
        assert store.entry_count == len(entries)
        assert sum(count for _, _, count in packs[0]) == n
        # the groups view files each pack under its first slot's prefix
        groups = {}
        for runs, ct in zip(packs, store.records):
            groups.setdefault(runs[0][0], []).append(ct)
        assert store.groups == groups
        slots = [(p, first + i) for runs in packs for p, first, count in runs
                 for i in range(count)]
        # ids still count the networks group by group in first-appearance order
        by_prefix = {}
        for network, prefix_len in entries:
            by_prefix.setdefault(prefix_len, []).append(network)
        starts, next_id = {}, 0
        for p, group in by_prefix.items():
            starts[p] = next_id
            next_id += len(group)
        want = [(p, starts[p] + i) for p in sorted(by_prefix, reverse=True)
                for i in range(len(by_prefix[p]))]
        assert slots == want

    def test_build_with_public_key_only(self, paillier_keys):
        store = build_store([parse_cidr("2.3.4.0/24")], paillier_keys.public, RNG(10))
        assert store.entry_count == 1


# ---------------------------------------------------------------------------
# matching protocols


class TestMatchSubtract:
    def test_masked_pair_from_same_net_matches(self, paillier_keys):
        # 2.3.4.5 and 2.3.4.7 mask to the same /24 network
        assert parse_ipv4("2.3.4.5") & 0xFFFFFF00 == \
               parse_ipv4("2.3.4.7") & 0xFFFFFF00
        store = build_store([parse_cidr("2.3.4.7/24")], paillier_keys, RNG(11))
        result = match(parse_ipv4("2.3.4.5"), store, paillier_keys, RNG(12))
        assert result.matched

    def test_exact_slash_32(self, paillier_keys):
        ip = parse_ipv4("8.8.8.8")
        store = build_store([parse_cidr("8.8.8.8/32")], paillier_keys, RNG(13))
        assert match(ip, store, paillier_keys, RNG(14)).matched

    def test_miss(self, paillier_keys):
        store = build_store([parse_cidr("2.3.4.0/24")], paillier_keys, RNG(15))
        result = match(parse_ipv4("9.9.9.9"), store, paillier_keys, RNG(16))
        assert not result.matched
        assert result.entry_id is None

    def test_prefix_zero_matches_everything(self, paillier_keys):
        store = build_store([parse_cidr("0.0.0.0/0")], paillier_keys, RNG(17))
        rnd = random.Random("any")
        for _ in range(10):
            ip = rnd.getrandbits(32)
            assert match(ip, store, paillier_keys, RNG(18)).matched

    def test_prefix_32_matches_only_exact_address(self, paillier_keys):
        ip = parse_ipv4("8.8.8.8")
        store = build_store([parse_cidr("8.8.8.8/32")], paillier_keys, RNG(17))
        assert match(ip, store, paillier_keys, RNG(18)).matched
        for other in (ip + 1, ip - 1, ip ^ 0x80000000):
            assert not match(other, store, paillier_keys, RNG(18)).matched

    def test_longest_prefix_group_scanned_first(self, paillier_keys):
        entries = [parse_cidr("2.0.0.0/8"), parse_cidr("2.3.4.0/24")]
        store = build_store(entries, paillier_keys, RNG(19))
        result = match(parse_ipv4("2.3.4.9"), store, paillier_keys, RNG(20))
        # both groups contain the address; the /24 entry must win
        group24_ids = [runs[0][1] for runs in store.layout() if runs[0][0] == 24]
        assert result.entry_id in group24_ids

    def test_exhaustive_scans_all(self, paillier_keys):
        entries = [parse_cidr("2.3.4.0/24"), parse_cidr("9.9.9.0/24")]
        store = build_store(entries, paillier_keys, RNG(21))
        lazy = match(parse_ipv4("2.3.4.1"), store, paillier_keys, RNG(22))
        full = match(parse_ipv4("2.3.4.1"), store, paillier_keys, RNG(23),
                     exhaustive=True)
        assert lazy.matched and full.matched
        assert lazy.entry_id == full.entry_id
        assert full.stats["zero_tests"] == 2
        assert lazy.stats["zero_tests"] == 1
        assert full.stats["encryptions"] == lazy.stats["encryptions"] == 1
        assert full.stats["sub_calls"] == 2
        assert lazy.stats["sub_calls"] == 1

    @pytest.mark.parametrize("fixture, packed", [
        ("paillier_keys", False), ("gm_keys", False),
        ("bfv_small_keys", False), ("bfv_small_keys", True)],
        ids=["paillier", "gm", "bfv", "bfv-packed"])
    def test_debug_differences(self, fixture, packed, request):
        keys = request.getfixturevalue(fixture)
        # ids count group by group: 0 and 1 in the /24 group, 2 in the /8
        entries = [parse_cidr("2.3.4.0/24"), parse_cidr("9.9.9.0/24"),
                   parse_cidr("3.0.0.0/8")]
        store = build_store(entries, keys, RNG(24), packed=packed)
        ip = parse_ipv4("2.3.4.1")
        hit = match(ip, store, keys, RNG(25), exhaustive=True, debug=True)
        miss = match(parse_ipv4("1.1.1.1"), store, keys, RNG(25), debug=True)
        assert (hit.matched, hit.entry_id, miss.matched) == (True, 0, False)
        no_debug = match(ip, store, keys, RNG(26))
        assert no_debug.differences is None
        if packed:  # a packed record holds many entries and reports none
            assert hit.differences is miss.differences is None
            return
        scanned = {runs[0][1] for runs in store.layout()}
        assert set(hit.differences) == set(miss.differences) == scanned == {0, 1, 2}
        assert [i for i, d in hit.differences.items() if d == 0] == [0]
        assert 0 not in miss.differences.values()
        if fixture == "bfv_small_keys":
            t = SMALL.plaintext_mod
            assert hit.differences == {
                i: ((ip & prefix_to_mask(prefix_len)) - network) % t
                for i, (network, prefix_len) in enumerate(entries)}

    def test_blind_keeps_verdicts(self, paillier_keys):
        rnd = random.Random("blind")
        entries = support.random_entries(rnd, 12)
        store = build_store(entries, paillier_keys, RNG(27))
        for _ in range(20):
            ip = support.biased_address(rnd, entries)
            plain = match(ip, store, paillier_keys, RNG(28))
            blinded = match(ip, store, paillier_keys, RNG(29), blind=True)
            assert plain.matched == blinded.matched == support.plain_member(ip, entries)

    def test_blind_refused_before_any_encryption_without_one_message_modulus(
            self, ns_keys, monkeypatch):
        # Naccache-Stern's message space is a product of small primes
        store = build_store([parse_cidr("1.2.3.0/24")], ns_keys, RNG(30))

        def refuse(*args, **kwargs):
            raise AssertionError("phe.encrypt called")

        monkeypatch.setattr(phe, "encrypt", refuse)
        with pytest.raises(InvalidOptions, match="additive"):
            match(parse_ipv4("1.2.3.4"), store, ns_keys, RNG(31), blind=True)

    def test_wrong_keys_rejected(self, paillier_keys, dj_keys):
        store = build_store([parse_cidr("1.2.3.0/24")], paillier_keys, RNG(34))
        with pytest.raises(SchemeMismatch):
            match(parse_ipv4("1.2.3.4"), store, dj_keys, RNG(35))

    def test_same_scheme_different_keys_rejected(self, paillier_keys):
        other = phe.keygen(phe.SchemeId.PAILLIER, 128, RNG(98), test_mode=True)
        store = build_store([parse_cidr("1.2.3.0/24")], paillier_keys, RNG(34))
        assert store.pub == paillier_keys.public
        with pytest.raises(SchemeMismatch):
            match(parse_ipv4("1.2.3.4"), store, other, RNG(35))

    def test_public_key_cannot_match(self, paillier_keys):
        store = build_store([parse_cidr("1.2.3.0/24")], paillier_keys, RNG(36))
        with pytest.raises(SchemeMismatch):
            match(parse_ipv4("1.2.3.4"), store, paillier_keys.public, RNG(37))


@pytest.mark.parametrize("fixture", ["paillier_keys", "dj_keys", "ou_keys",
                                     "benaloh_wide_keys", "ns_keys"])
def test_subtract_agrees_with_plain_oracle(fixture, request):
    keys = request.getfixturevalue(fixture)
    rnd = random.Random(fixture + "oracle")
    entries = support.random_entries(rnd, 8)
    store = build_store(entries, keys, RNG(38))
    rng = RNG(39)
    for _ in range(25):
        ip = support.biased_address(rnd, entries)
        got = match(ip, store, keys, rng).matched
        assert got == support.plain_member(ip, entries)


def test_bfv_subtract_agrees_with_plain_oracle(bfv_small_keys):
    rnd = random.Random("bfvoracle")
    entries = support.random_entries(rnd, 10)
    store = build_store(entries, bfv_small_keys, RNG(40))
    rng = RNG(41)
    for _ in range(25):
        ip = support.biased_address(rnd, entries)
        got = match(ip, store, bfv_small_keys, rng).matched
        assert got == support.plain_member(ip, entries)


class TestMatchXor:
    def test_store_width_is_the_encryption_width(self, gm_keys):
        store = build_store([parse_cidr("2.3.4.0/24")], gm_keys, RNG(41))
        record, = store.records
        assert len(record) == ipmatch.record_handler(gm_keys).width

    def test_equal_masked_pair(self, gm_keys):
        store = build_store([parse_cidr("2.3.4.7/24")], gm_keys, RNG(42))
        assert match(parse_ipv4("2.3.4.5"), store, gm_keys, RNG(43)).matched

    def test_single_bit_difference(self, gm_keys):
        # 2.3.4.0/24 and 2.3.5.x differ in exactly one network bit
        store = build_store([parse_cidr("2.3.4.0/24")], gm_keys, RNG(44))
        assert not match(parse_ipv4("2.3.5.1"), store, gm_keys, RNG(45)).matched

    def test_agrees_with_subtract_verdicts(self, gm_keys, paillier_keys):
        # cross-protocol oracle: parallel stores over the same entries
        rnd = random.Random("xp")
        entries = support.random_entries(rnd, 8)
        gm_store = build_store(entries, gm_keys, RNG(48))
        pa_store = build_store(entries, paillier_keys, RNG(49))
        rng = RNG(50)
        records = len(gm_store.records)
        for _ in range(25):
            ip = support.biased_address(rnd, entries)
            via_xor = match(ip, gm_store, gm_keys, rng)
            via_sub = match(ip, pa_store, paillier_keys, rng)
            assert via_xor.matched == via_sub.matched == support.plain_member(ip, entries)
            # same entries in the same order get the same ids
            assert via_xor.entry_id == via_sub.entry_id
            if not via_xor.matched:
                # one encryption of zero per lookup, whatever the groups
                assert via_xor.stats == {"encryptions": 1,
                                         "xor_calls": records,
                                         "zero_tests": records}


class TestMatchBatch:
    def test_single_entry_pack_equals_unpacked(self, bfv_small_keys):
        entries = [parse_cidr("2.3.4.0/24")]
        packed = build_store(entries, bfv_small_keys, RNG(51), packed=True)
        unpacked = build_store(entries, bfv_small_keys, RNG(52))
        for text in ("2.3.4.200", "9.9.9.9"):
            ip = parse_ipv4(text)
            a = match(ip, packed, bfv_small_keys, RNG(53))
            b = match(ip, unpacked, bfv_small_keys, RNG(54))
            assert a.matched == b.matched

    def test_verdicts_equal_subtract_on_random_stores(self, bfv_small_keys):
        rnd = random.Random("batch")
        rng = RNG(55)
        for _ in range(15):
            entries = support.random_entries(rnd, rnd.randrange(1, 120))
            entries = list(dict.fromkeys(entries))
            packed = build_store(entries, bfv_small_keys, rng, packed=True)
            unpacked = build_store(entries, bfv_small_keys, rng)
            ip = support.biased_address(rnd, entries)
            a = match(ip, packed, bfv_small_keys, rng)
            b = match(ip, unpacked, bfv_small_keys, rng)
            assert a.matched == b.matched == support.plain_member(ip, entries)
            if a.matched:
                assert a.entry_id == b.entry_id

    def test_sub_call_count_is_ceiling(self, bfv_small_keys):
        rnd = random.Random("ceil")
        n = SMALL.ring_dim
        for count in (1, n, n + 1, 150):
            entries = support.random_entries(rnd, count, prefixes=(24,))
            entries = list(dict.fromkeys(entries))
            store = build_store(entries, bfv_small_keys, RNG(56), packed=True)
            result = match(parse_ipv4("200.1.2.3"), store,
                           bfv_small_keys, RNG(57), exhaustive=True)
            assert result.stats["sub_calls"] == (len(entries) + n - 1) // n

    def test_padding_never_matches(self, bfv_small_keys):
        # a partially filled pack must not produce phantom hits
        rnd = random.Random("padd")
        rng = RNG(58)
        for _ in range(10):
            entries = support.random_entries(rnd, 5, prefixes=(24,))
            entries = list(dict.fromkeys(entries))
            store = build_store(entries, bfv_small_keys, rng, packed=True)
            ip = rnd.getrandbits(32)
            got = match(ip, store, bfv_small_keys, rng).matched
            assert got == support.plain_member(ip, entries)

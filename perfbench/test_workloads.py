"""Tests of the benchmark's own inputs, oracle and span arithmetic.

Run from the repository root with:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import ipaddress
import itertools
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from traced_helb import SpanRecorder  # noqa: E402


def covering_index(networks, ip: int):
    """Reference answer from the standard library: the position of the
    longest listed network that contains `ip`, or None."""
    address = ipaddress.IPv4Address(ip)
    best = None
    for index, (net, prefix_len) in enumerate(networks):
        network = ipaddress.ip_network(f"{wl.format_ipv4(net)}/{prefix_len}")
        if address in network and (best is None or prefix_len > networks[best][1]):
            best = index
    return best


class OracleTest(unittest.TestCase):
    def test_matches_ipaddress_on_random_lists(self):
        rng = random.Random(20240601)
        for case in range(200):
            networks, seen = [], set()
            for _ in range(rng.randrange(1, 30)):
                prefix_len = rng.choice((0, 1, 4, 8, 12, 16, 20, 23, 24, 25, 30, 31, 32))
                if networks and rng.random() < 0.3:
                    # nest inside an earlier network to exercise longest match
                    parent = rng.choice(networks)[0]
                    net = (parent | rng.getrandbits(32)) & wl.prefix_mask(prefix_len)
                else:
                    net = rng.getrandbits(32) & wl.prefix_mask(prefix_len)
                if (net, prefix_len) not in seen:
                    seen.add((net, prefix_len))
                    networks.append((net, prefix_len))
            oracle = wl.Oracle(networks)
            for _ in range(40):
                if rng.random() < 0.5:
                    net, prefix_len = rng.choice(networks)
                    ip = net | (rng.getrandbits(32) & ~wl.prefix_mask(prefix_len) & 0xFFFFFFFF)
                else:
                    ip = rng.getrandbits(32)
                self.assertEqual(oracle.lookup(ip), covering_index(networks, ip),
                                 f"case {case}, ip {wl.format_ipv4(ip)}")


class ListTest(unittest.TestCase):
    def test_quotas(self):
        for count in (len(wl.PREFIX_MIX), 24, 4096, 5000):
            q = wl.quotas(count)
            self.assertEqual(sum(q.values()), count)
            self.assertGreaterEqual(len(q), 12)
            self.assertEqual((min(q), max(q)), (8, 32))
            self.assertEqual(list(q), sorted(q, reverse=True))
        big = wl.quotas(4096)
        self.assertEqual(sorted(big, key=big.get)[-2:], [24, 32])
        with self.assertRaises(ValueError):
            wl.quotas(len(wl.PREFIX_MIX) - 1)

    def test_list_is_seeded_distinct_and_grouped(self):
        for count in (24, 4096):
            networks = wl.make_list(count, seed=5)
            self.assertEqual(networks, wl.make_list(count, seed=5))
            self.assertNotEqual(networks, wl.make_list(count, seed=6))
            self.assertEqual(len(set(networks)), count)
            prefixes = [p for _, p in networks]
            self.assertEqual(prefixes, sorted(prefixes, reverse=True))
            for net, prefix_len in networks:
                self.assertEqual(net & wl.prefix_mask(prefix_len), net)
            lines = wl.cidr_text(networks).splitlines()
            self.assertEqual(len(lines), count)
            self.assertEqual(ipaddress.ip_network(lines[0]).prefixlen, 32)

    def test_lookups_agree_with_the_reference(self):
        networks = wl.make_list(24, seed=9)
        stream = wl.LookupStream(networks, seed=9)
        again = wl.LookupStream(networks, seed=9)
        for _ in range(5):
            batch = stream.next_round()
            self.assertEqual(batch, again.next_round())
            self.assertEqual([x.expected for x in batch],
                             [None, wl.hit_position(len(networks))])
            for item in batch:
                self.assertEqual(item.expected, covering_index(networks, item.ip))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "ipmatch.match", "parent": 0, "start": 1.0, "end": 9.0},
            {"id": 2, "name": "bfv.encrypt", "parent": 1, "start": 2.0, "end": 5.0},
            {"id": 3, "name": "ipmatch.prefix_to_mask", "parent": 1, "start": 5.0, "end": 6.0},
            {"id": 4, "name": "bfv.decrypt", "parent": 1, "start": 6.0, "end": 8.5},
        ]
        self.assertEqual(run.self_seconds(spans),
                         {"cli": 2.0, "ipmatch": 1.5 + 1.0, "bfv": 5.5})
        self.assertEqual(run.total_seconds(spans, "bfv.encrypt"), 3.0)

    def test_overhead_pairs_each_lookup_with_its_traced_twin(self):
        # misses near 5 s and hits near 3 s: the difference of the pooled
        # medians would be 4.3 - 4.0 s, set by one slow traced hit
        untraced = [5.0, 3.0, 5.4, 2.6]
        traced = [5.1, 3.5, 5.2, 2.7]
        self.assertAlmostEqual(run.tracing_overhead_ms(untraced, traced), 100.0)

    def test_rounds_within_keeps_the_minimum(self):
        self.assertEqual(list(run.rounds_within(0, 2)), [0, 1])
        self.assertEqual(list(itertools.islice(run.rounds_within(60, 1), 3)),
                         [0, 1, 2])

    def test_recorder_nests_spans_and_keeps_counts(self):
        class Result:
            stats = {"zero_tests": 3}

        recorder = SpanRecorder()
        inner = recorder.wrap("bfv.inner", lambda: Result())
        outer = recorder.wrap("ipmatch.outer", lambda: inner())
        outer()
        by_name = {s["name"]: s for s in recorder.spans}
        self.assertIsNone(by_name["ipmatch.outer"]["parent"])
        self.assertEqual(by_name["bfv.inner"]["parent"], by_name["ipmatch.outer"]["id"])
        self.assertEqual(by_name["bfv.inner"]["stats"], {"zero_tests": 3})
        self.assertEqual(run.match_stats(recorder.spans), {"zero_tests": 3})


if __name__ == "__main__":
    unittest.main()

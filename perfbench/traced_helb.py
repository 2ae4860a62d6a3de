"""Run the `helb` CLI with a span recorded around every public layer call.

Usage: python3 traced_helb.py SPANS_JSON LOOKUP_ID HELB_ARGS...

Before the CLI entry runs, every public function defined in `helb.serial`,
`helb.ipmatch`, `helb.bfv` and `helb.phe` is replaced at module level by a
wrapper that records one span per call: name, start, end and parent span.
Calls between layers go through module attributes, so they are all seen; a
layer's private helpers run inside the span of the public function that
called them.  Spans stay in memory and are written to SPANS_JSON when the
CLI exits, with the exit status unchanged.

Besides times, a span keeps the counts the call returned: the `stats` of a
`MatchResult`, and the number of ciphertexts of an `EncryptedStore`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

TRACED_MODULES = ("helb.serial", "helb.ipmatch", "helb.bfv", "helb.phe")


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            _note_counts(span, result)
            return result

        return traced


def _note_counts(span: dict, result) -> None:
    stats = getattr(result, "stats", None)
    if isinstance(stats, dict):
        span["stats"] = dict(stats)
    groups = getattr(result, "groups", None)
    if isinstance(groups, dict):
        span["ciphertexts"] = sum(len(records) for records in groups.values())


def instrument(recorder: SpanRecorder) -> int:
    """Wrap the public functions of every traced module; returns how many."""
    count = 0
    for module_name in TRACED_MODULES:
        module = importlib.import_module(module_name)
        layer = module_name.rsplit(".", 1)[1]
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module_name):
                continue
            setattr(module, attr, recorder.wrap(f"{layer}.{attr}", value))
            count += 1
    return count


def main(argv: list[str]) -> int:
    spans_path, lookup_id, helb_args = argv[0], argv[1], argv[2:]
    recorder = SpanRecorder()
    instrument(recorder)
    from helb import cli

    status = 0
    try:
        recorder.wrap("cli.main", cli.main)(args=helb_args, prog_name="helb")
    except SystemExit as exc:
        status = exc.code
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"lookup_id": lookup_id, "spans": recorder.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

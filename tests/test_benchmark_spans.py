"""The benchmark's per-layer metrics stay reachable from the package.

perfbench/run.py emits a span metric only while one of its spans is bound
in cubisect.cli or cubisect.construct, and drops it silently otherwise; a
renamed function would leave the traced result without a key that
BENCHMARK.json lists. This reads perfbench and changes nothing there.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import loop  # noqa: E402
import run  # noqa: E402


def test_every_span_metric_has_a_bound_span():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    bound = {loop.span_name(fn) for _, _, fn in loop.traced_functions()} | {loop.ROOT_SPAN}
    spans = {**run.SPAN_TIME, **run.SPAN_CALLS, **{k: [v] for k, v in run.SPAN_SELF.items()}}
    unbound = [m for m in listed if m in spans and not bound.intersection(spans[m])]
    assert unbound == []


"""Smoke tests for scripts/: each runs end to end on a small input."""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from cubisect import format_graph, generate

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parity", [0, 1], ids=["even-k", "odd-k"])
def test_bench_stages_pipeline_runs_every_stage(parity):
    bench = load("bench_stages")
    r = bench.recipe(100, parity)
    assert r.k % 2 == parity
    names = []
    for name, stage in bench.pipeline(format_graph(generate(r))):
        stage()
        names.append(name)
    assert names == [
        "parse", "validate", "find_blocks", "cover", "construct", "certify", "desired", "serialize",
    ]


def test_loading_bench_stages_leaves_sys_path_alone():
    before = list(sys.path)
    load("bench_stages")
    assert sys.path == before


def test_fixture_report(capsys):
    assert load("fixture_report").main() == 0
    out = capsys.readouterr().out
    assert out.startswith("name") and "ring3" in out


def test_corpus_sweep_small_grid(capsys, monkeypatch):
    sweep = load("corpus_sweep")
    monkeypatch.setattr(sweep, "MAX_N", 10)
    monkeypatch.setattr(sweep, "SEEDS", 1)
    monkeypatch.setattr(sweep, "LIMIT", 10)
    assert sweep.main() == 0
    assert " 0 mismatches" in capsys.readouterr().out

"""Smoke tests for scripts/: each runs end to end on a small input."""

from __future__ import annotations

import sys

import pytest

from cubisect import find_blocks, format_graph, generate, parse_graph, validate
from helpers import load_script


STAGES = ["parse", "find_blocks", "validate", "cover", "construct", "certify", "desired", "serialize"]


def run_stages(bench, text: str) -> list[str]:
    names = []
    for name, stage in bench.pipeline(text):
        stage()
        names.append(name)
    return names


@pytest.mark.parametrize("parity", [0, 1], ids=["even-k", "odd-k"])
def test_bench_stages_pipeline_runs_every_stage(parity):
    bench = load_script("bench_stages")
    r = bench.recipe(100, parity)
    assert r.k % 2 == parity
    assert run_stages(bench, format_graph(generate(r))) == STAGES


@pytest.mark.parametrize("parity", [0, 1], ids=["even-k", "odd-k"])
@pytest.mark.parametrize("shape", ["mix", "shuffled", "diamond-ring", "digon-ring", "triangle-tree", "triangles"])
def test_bench_stages_shapes_run_every_stage(shape, parity):
    bench = load_script("bench_stages")
    assert shape in bench.SHAPES
    text = bench.shape_text(shape, 100, parity)
    g = parse_graph(text)
    assert abs(g.n - 100) <= 4 and validate(g).in_class and find_blocks(g).k % 2 == parity
    if shape == "mix":
        assert text == format_graph(generate(bench.recipe(100, parity)))
    assert run_stages(bench, text) == STAGES


def test_bench_stages_shuffled_is_the_mix_out_of_order():
    bench = load_script("bench_stages")
    mix, text = bench.shape_text("mix", 100, 0), bench.shape_text("shuffled", 100, 0)
    counts = [(p.k, p.t, p.p) for p in map(find_blocks, map(parse_graph, (mix, text)))]
    assert counts[0] == counts[1] and text != format_graph(parse_graph(text))


def test_loading_bench_stages_leaves_sys_path_alone():
    before = list(sys.path)
    load_script("bench_stages")
    assert sys.path == before


def test_fixture_report(capsys):
    assert load_script("fixture_report").main() == 0
    out = capsys.readouterr().out
    assert out.startswith("name") and "ring3" in out


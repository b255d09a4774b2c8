from __future__ import annotations

import io
import json

import pytest

import cubisect.cli as cli
from cubisect import SearchExhausted, format_graph, min_bisection, ring_of_diamonds


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["prism"])
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == 0
    assert "cubic: yes" in out
    assert "in-class: yes" in out


def test_check_k4_exits_2(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["k4"])
    code, out, _ = run_cli(capsys, ["check", path, "--format", "json"])
    assert code == 2
    assert json.loads(out)["is_k4"] is True


def test_check_claw_witness_shown(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["q3"])
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == 2
    assert "claw witness:" in out


def test_partition_json(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["ring2"])
    code, out, _ = run_cli(capsys, ["partition", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 2 and obj["t"] == 0 and obj["p"] == 0


def test_partition_rejects_k4(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["k4"])
    code, _, err = run_cli(capsys, ["partition", path])
    assert code == 2
    assert "error:" in err


def test_bisect_json(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["diamond_digon"])
    code, out, _ = run_cli(capsys, ["bisect", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["epsilon"] == 2
    assert obj["certificate"]["parity"] == "odd"
    assert sorted(obj["bisection"]["black"] + obj["bisection"]["white"]) == list(range(6))


def test_bisect_k4_exits_2(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["k4"])
    code, out, err = run_cli(capsys, ["bisect", path])
    assert code == 2
    assert out == ""
    assert "excluded" in err
    assert '"is_k4": true' in err


def test_bisect_dot(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["triple_edge"])
    code, out, _ = run_cli(capsys, ["bisect", path, "--format", "dot"])
    assert code == 0
    assert out.count("0 -- 1;") == 3
    assert "fillcolor=black" in out and "fillcolor=white" in out


def test_oracle(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["prism"])
    code, out, _ = run_cli(capsys, ["oracle", path])
    assert code == 0
    assert json.loads(out) == {
        "min_epsilon": 2,
        "optima": 3,
        "desired_exists": True,
        "enumerated": 20,
    }


def test_oracle_limit(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["big40"])
    code, _, err = run_cli(capsys, ["oracle", path])
    assert code == 2 and "budget" in err
    code, _, err = run_cli(capsys, ["oracle", path, "--oracle-limit", "25"])
    assert code == 2 and "hard cap" in err


def test_gen_text_deterministic(capsys):
    code, first, _ = run_cli(capsys, ["gen", "2", "2", "1", "--seed", "5"])
    assert code == 0
    code, second, _ = run_cli(capsys, ["gen", "2", "2", "1", "--seed", "5"])
    assert first == second
    n, m = map(int, first.splitlines()[0].split())
    assert n == 16 and m == 24


def test_gen_unsatisfiable(capsys):
    code, _, err = run_cli(capsys, ["gen", "1", "0", "0"])
    assert code == 2
    assert "no connected wiring" in err


def test_gen_dot(capsys):
    code, out, _ = run_cli(capsys, ["gen", "0", "0", "1", "--format", "dot"])
    assert code == 0
    assert out.count("0 -- 1;") == 3
    assert "fillcolor" not in out


def test_verify_roundtrip(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["ring3"])
    code, out, _ = run_cli(capsys, ["bisect", gpath])
    bpath = tmp_path / "b.json"
    bpath.write_text(json.dumps(json.loads(out)["bisection"]))
    code, out, _ = run_cli(capsys, ["verify", gpath, str(bpath), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["is_2bisection"] is True
    assert obj["epsilon"] == 4
    assert obj["is_desired"] is False  # odd-k colorings double up one diamond
    assert obj["violations"][0][0] == "diamond_one_mono"


def test_verify_text_flags_bad_coloring(tmp_path, capsys, fixtures):
    g = fixtures["prism"]
    gpath = write_graph(tmp_path, g)
    bpath = tmp_path / "bad.json"
    bpath.write_text(json.dumps({"black": [0, 1, 2], "white": [3, 4, 5]}))
    code, out, _ = run_cli(capsys, ["verify", gpath, str(bpath)])
    assert code == 0
    assert "2-bisection: no" in out
    assert "violated triangle_one_mono" in out


def test_verify_bad_json_exits_1(tmp_path, capsys, fixtures):
    for name, bad in (("prism", "{not json"), ("triple_edge", '{"black": [true], "white": [false]}')):
        gpath = write_graph(tmp_path, fixtures[name])
        bpath = tmp_path / "broken.json"
        bpath.write_text(bad)
        code, out, err = run_cli(capsys, ["verify", gpath, str(bpath)])
        assert code == 1
        assert out == ""
        assert "error:" in err


def test_stdin_input(capsys, monkeypatch, fixtures):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(fixtures["prism"])))
    code, out, _ = run_cli(capsys, ["check", "-"])
    assert code == 0 and "in-class: yes" in out


def test_output_flag(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["prism"])
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, ["oracle", gpath, "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["min_epsilon"] == 2


def test_unwritable_output_exits_1(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["prism"])
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, ["bisect", gpath, "--output", str(target)])
    assert code == 1
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("bogus\n")
    code, _, err = run_cli(capsys, ["check", str(path)])
    assert code == 1
    assert "error:" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, ["check", "/nonexistent/graph.txt"])
    assert code == 1


def test_usage_error_exits_1(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["prism"])
    # partition and oracle print JSON only, so they take no --format
    for argv in (["frobnicate"], ["partition", gpath, "--format", "json"], ["oracle", gpath, "--format", "json"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, fixtures):
    def boom(_):
        raise SearchExhausted("forced for the test")

    monkeypatch.setattr(cli, "min_bisection", boom)
    gpath = write_graph(tmp_path, fixtures["prism"])
    code, _, err = run_cli(capsys, ["bisect", gpath])
    assert code == 3
    assert "internal error: SearchExhausted: forced for the test" in err
    assert f"input: {gpath}" in err


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch, fixtures):
    def boom(_):
        raise RuntimeError("forced for the test")

    monkeypatch.setattr(cli, "min_bisection", boom)
    gpath = write_graph(tmp_path, fixtures["prism"])
    code, out, err = run_cli(capsys, ["bisect", gpath])
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: forced for the test" in err
    assert gpath in err


def test_gen_internal_error_reports_recipe(capsys, monkeypatch):
    def boom(_):
        raise RuntimeError("forced for the test")

    monkeypatch.setattr(cli, "generate", boom)
    code, out, err = run_cli(capsys, ["gen", "2", "2", "1", "--seed", "5"])
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: forced for the test" in err
    assert "input: recipe k=2 t=2 p=1 seed=5" in err


def test_verify_large_ring_is_desired(tmp_path, capsys):
    g = ring_of_diamonds(1250)
    bis, _ = min_bisection(g)
    gpath = write_graph(tmp_path, g)
    bpath = tmp_path / "b.json"
    bpath.write_text(json.dumps({"black": bis.black(), "white": bis.white()}))
    code, out, _ = run_cli(capsys, ["verify", gpath, str(bpath), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["is_2bisection"] is True
    assert obj["is_desired"] is True
    assert obj["epsilon"] == 1250


def test_json_output_stable(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["ring2"])
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, ["bisect", gpath])
        outputs.add(out)
    assert len(outputs) == 1

import json
import math
from dataclasses import replace

import pytest

from reachavoid import UNBOUNDED, Ball, SolverFailure, random_scenario
from reachavoid.cli import (
    main,
    scenario_from_json,
    scenario_to_json,
    trace_to_csv,
    trace_to_jsonl,
)
from reachavoid.matching import graph_to_json

from test_matching import fig3_graph

COLLINEAR_WIN = {
    "pursuers": [{"pos": [0, 0, 1], "speed": 2.0, "radius": 0.0}],
    "evaders": [{"pos": [0, 0, 3], "speed": 1.0, "policy": "straight"}],
    "region": "unbounded",
    "dt": 0.01,
    "seed": 0,
    "max_time": 10.0,
}

COLLINEAR_TIE = {
    "pursuers": [{"pos": [0, 0, 2], "speed": 2.0}],
    "evaders": [{"pos": [0, 0, 1], "speed": 1.0}],
}

CAPTURE_RUN = {
    "pursuers": [{"pos": [0, 0, 1], "speed": 2.0, "radius": 0.2}],
    "evaders": [{"pos": [0, 0, 3], "speed": 1.0, "policy": "straight"}],
    "dt": 0.01,
    "max_time": 10.0,
}

ESCAPE_RUN = {
    "pursuers": [{"pos": [0, 0, 4], "speed": 2.0, "radius": 0.1}],
    "evaders": [{"pos": [0, 0, 1], "speed": 1.0, "policy": "straight"}],
    "dt": 0.01,
    "max_time": 10.0,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_scenario_round_trip():
    for region in (UNBOUNDED, Ball((0.0, 0.0, 1.0), 4.5)):
        scenario = replace(random_scenario(3, max_pursuers=4, max_evaders=4,
                                           region=region), rematch_every=3)
        rebuilt = scenario_from_json(scenario_to_json(scenario))
        assert rebuilt.pursuers == scenario.pursuers
        assert rebuilt.evaders == scenario.evaders
        assert rebuilt.region == scenario.region == region
        assert rebuilt.dt == scenario.dt
        assert rebuilt.seed == scenario.seed
        assert rebuilt.max_time == scenario.max_time
        assert rebuilt.evader_policies == scenario.evader_policies
        assert rebuilt.matcher == scenario.matcher
        assert rebuilt.rematch_every == 3


def test_scenario_schema_errors():
    with pytest.raises(Exception, match="pursuers"):
        scenario_from_json(json.dumps({
            "pursuers": [{"pos": [0, 0, 1]}],
            "evaders": [],
        }))
    with pytest.raises(Exception, match="region"):
        scenario_from_json(json.dumps({
            "pursuers": [], "evaders": [], "region": "donut",
        }))
    with pytest.raises(Exception, match="region.ball: expected an object"):
        scenario_from_json(json.dumps({
            "pursuers": [], "evaders": [], "region": {"ball": 3},
        }))
    with pytest.raises(Exception, match="region.ball: .*exit plane"):
        scenario_from_json(json.dumps({
            "pursuers": [], "evaders": [],
            "region": {"ball": {"center": [0, 0, 5], "radius": 1.0}},
        }))
    with pytest.raises(Exception, match="speed"):
        scenario_from_json(json.dumps({
            "pursuers": [{"pos": [0, 0, 1], "speed": 1.0}],
            "evaders": [{"pos": [0, 0, 3], "speed": 1.0}],
        }))


def test_cmd_kind_win(tmp_path, capsys):
    path = write(tmp_path, "win.json", COLLINEAR_WIN)
    assert main(["kind", "--scenario", path, "--coalition", "0", "--evader", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PursuitWins z=2.33333333")


def test_cmd_kind_tie(tmp_path, capsys):
    path = write(tmp_path, "tie.json", COLLINEAR_TIE)
    assert main(["kind", "--scenario", path, "--coalition", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Tie z=")
    z = float(out.split("z=")[1].split()[0])
    assert abs(z) <= 1e-7


def test_cmd_kind_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["kind", "--scenario", str(path), "--coalition", "0"]) == 2


def test_cmd_kind_missing_file():
    assert main(["kind", "--scenario", "/nonexistent.json", "--coalition", "0"]) == 2


def test_cmd_kind_bad_evader_index(tmp_path, capsys):
    path = write(tmp_path, "win.json", COLLINEAR_WIN)
    for index in ("5", "-1"):
        assert main(["kind", "--scenario", path, "--coalition", "0",
                     "--evader", index]) == 2
        assert "--evader" in capsys.readouterr().err


ONE_PURSUER = [{"pos": [0, 0, 1], "speed": 2.0}]


@pytest.mark.parametrize("doc, message", [
    ({"pursuers": [{"pos": [0, 1], "speed": 2.0}], "evaders": []},
     "input error: pursuers[0].pos: expected [x, y, z]\n"),
    ({"pursuers": ONE_PURSUER, "evaders": [{"speed": 1.0}]},
     "input error: evaders[0].pos: missing required field\n"),
    ([COLLINEAR_WIN], "top level: expected an object"),
    ({"pursuers": [[0, 0, 1]], "evaders": []},
     "pursuers[0]: expected an object"),
    ({"pursuers": ONE_PURSUER, "evaders": [[0, 0, 3]]},
     "evaders[0]: expected an object"),
    ({"pursuers": ONE_PURSUER,
      "evaders": [{"pos": [0, 0, 3], "speed": math.inf}]},
     "evaders[0]: evader speed must be finite"),
    ({"pursuers": [{"pos": [0, 0, 1], "speed": None}], "evaders": []},
     "input error: pursuers[0].speed: expected a number\n"),
    ({"pursuers": [{"pos": [0, None, 1], "speed": 2.0}], "evaders": []},
     "input error: pursuers[0].pos[1]: expected a number\n"),
    ({"pursuers": [{"pos": [0, 0, 1], "speed": 2.0, "radius": {}}],
      "evaders": []},
     "input error: pursuers[0].radius: expected a number\n"),
    ({"pursuers": ONE_PURSUER, "evaders": [], "dt": [0.01]},
     "input error: dt: expected a number\n"),
    ({"pursuers": ONE_PURSUER, "evaders": [],
      "region": {"ball": {"center": [0, 0, 1], "radius": None}}},
     "input error: region.ball.radius: expected a number\n"),
    ({"pursuers": ONE_PURSUER, "evaders": [], "seed": "x"},
     "input error: seed: expected a number\n"),
    ({"pursuers": ONE_PURSUER, "evaders": [], "rematch_every": 2.9},
     "input error: rematch_every: expected an integer, got 2.9\n"),
    ({"pursuers": ONE_PURSUER, "evaders": [], "seed": True},
     "input error: seed: expected an integer, got True\n"),
    ({"pursuers": [{"pos": [0, 0, 1], "speed": 2.0, "radius": True}],
      "evaders": []},
     "input error: pursuers[0].radius: expected a number, got True\n"),
    ({"pursuers": ONE_PURSUER, "evaders": [], "dt": True},
     "input error: dt: expected a number, got True\n"),
    ({"pursuers": ONE_PURSUER,
      "evaders": [{"pos": [0, True, 3], "speed": 1.0}]},
     "input error: evaders[0].pos[1]: expected a number, got True\n"),
    ({"pursuers": 5, "evaders": []},
     "input error: pursuers: expected a list, got 5\n"),
    ({"pursuers": None, "evaders": []},
     "input error: pursuers: expected a list, got None\n"),
    ({"pursuers": "ab", "evaders": []},
     "input error: pursuers: expected a list, got 'ab'\n"),
    ({"pursuers": ONE_PURSUER, "evaders": None},
     "input error: evaders: expected a list, got None\n"),
], ids=["position", "missing-position", "top-level", "pursuer-entry",
        "evader-entry", "evader-speed", "null-speed", "null-component",
        "object-radius", "list-dt", "null-ball-radius", "text-seed",
        "fractional-rematch", "boolean-seed", "boolean-radius", "boolean-dt",
        "boolean-component", "number-pursuers", "null-pursuers",
        "string-pursuers", "null-evaders"])
def test_cmd_kind_scenario_input_errors(tmp_path, capsys, doc, message):
    path = write(tmp_path, "bad.json", doc)
    assert main(["kind", "--scenario", path, "--coalition", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert message in err


def test_cmd_kind_non_integer_coalition(tmp_path, capsys):
    path = write(tmp_path, "win.json", COLLINEAR_WIN)
    assert main(["kind", "--scenario", path, "--coalition", "0,x"]) == 2
    assert "input error: --coalition:" in capsys.readouterr().err


def test_cmd_match_unreadable_graph_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["match", "--graph-file", missing]) == 2
    assert "input error: --graph-file:" in capsys.readouterr().err


def test_cmd_match_fractional_graph_file(tmp_path, capsys):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps({"coalitions": [[0], [1]], "evaders": [0],
                                "edges": [[1.9, 0]]}))
    assert main(["match", "--graph-file", str(path)]) == 2
    assert "input error: --graph-file: edges[0]: expected integers, got 1.9" \
        in capsys.readouterr().err


def test_cmd_match_string_graph_file(tmp_path, capsys):
    # Strings where integer lists belong would read as lists of digits.
    path = tmp_path / "strings.json"
    path.write_text(json.dumps({"coalitions": ["01", "2"], "evaders": "01",
                                "edges": ["00", [1, 1]]}))
    assert main(["match", "--graph-file", str(path)]) == 2
    assert ("input error: --graph-file: coalitions[0]: expected a list, "
            "got '01'") in capsys.readouterr().err


def test_cmd_intercept(tmp_path, capsys):
    path = write(tmp_path, "win.json", COLLINEAR_WIN)
    assert main(["intercept", "--scenario", path, "--coalition", "0"]) == 0
    out = capsys.readouterr().out
    assert "z=2.33333333" in out
    assert "active=[0]" in out


def test_cmd_match_graph_file(tmp_path, capsys):
    path = tmp_path / "fig3.json"
    path.write_text(graph_to_json(fig3_graph()))
    assert main(["match", "--graph-file", str(path), "--matcher", "both"]) == 0
    out = capsys.readouterr().out
    assert "sma size=3" in out
    assert "exact size=3" in out
    assert "ratio=1" in out


def test_cmd_match_scenario(tmp_path, capsys):
    path = write(tmp_path, "win.json", COLLINEAR_WIN)
    assert main(["match", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "sma size=1" in out


def test_cmd_match_requires_input(capsys):
    assert main(["match"]) == 2


def test_cmd_match_size_guard(tmp_path, capsys):
    # 5 x 30 grid of single-pursuer edges exceeds the exact-search guard.
    coalitions = [[i] for i in range(5)]
    edges = [[i, j] for i in range(5) for j in range(30)]
    doc = {"coalitions": coalitions, "evaders": list(range(30)), "edges": edges}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["match", "--graph-file", str(path), "--matcher", "exact"]) == 4


def test_cmd_simulate_capture_and_escape(tmp_path, capsys):
    capture = write(tmp_path, "capture.json", CAPTURE_RUN)
    out_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "positions.csv"
    code = main([
        "simulate", "--scenario", capture,
        "--out", str(out_path), "--csv", str(csv_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "captured=1" in printed
    assert "escaped=0" in printed

    lines = out_path.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"]["captured"] == 1
    assert len(summary["events"]) == 1
    frames = [json.loads(line) for line in lines[:-1]]
    times = [frame["t"] for frame in frames]
    assert times == sorted(times)

    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == "time,player,x,y,z"
    assert any(line.split(",")[1] == "E0" for line in csv_lines[1:])

    escape = write(tmp_path, "escape.json", ESCAPE_RUN)
    assert main(["simulate", "--scenario", escape]) == 0
    assert "reached_goal=1" in capsys.readouterr().out


def test_cmd_simulate_solver_failure_writes_partial_trace(tmp_path, monkeypatch,
                                                         capsys):
    # A failing solve aborts the game: the trace up to the failing frame goes
    # to --out with an empty summary, no --csv is written, and the exit code
    # is 3.
    import reachavoid.engine as engine

    # The build runs only in frame 0 of this one-on-one game, while the
    # adopted single is solved in every frame, so the third such solve is
    # frame 2's.
    original = engine.solve_interception
    calls = []

    def failing_third_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise SolverFailure("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_interception", failing_third_call)
    capture = write(tmp_path, "capture.json", CAPTURE_RUN)
    out_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "positions.csv"
    code = main(["simulate", "--scenario", capture,
                 "--out", str(out_path), "--csv", str(csv_path)])
    assert code == 3
    assert "solver failure: frame 2" in capsys.readouterr().err
    lines = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [frame["t"] for frame in lines[:-1]] == [0.0, 0.01]
    assert lines[-1] == {"summary": {}, "events": []}
    assert not csv_path.exists()


def test_cmd_simulate_grazing_evader_is_captured(tmp_path, capsys):
    # The evader starts 3.4e-9 outside the capture sphere.  No direct
    # candidate certifies its single, and the polish from the member's own
    # lowest point does, so the game runs to the capture.
    scenario = write(tmp_path, "grazing.json", {
        "pursuers": [{"pos": [-1.5818969052004106, 2.47670087514601,
                              3.0922631503086793],
                      "speed": 2.9922231120232143,
                      "radius": 1.9093227707935416}],
        "evaders": [{"pos": [-0.6539106332197921, 0.9146254987274798,
                             2.505513243376262], "speed": 1.0}],
    })
    out_path = tmp_path / "trace.jsonl"
    assert main(["simulate", "--scenario", scenario, "--out", str(out_path)]) == 0
    assert "captured=1" in capsys.readouterr().out
    summary = json.loads(out_path.read_text().splitlines()[-1])
    assert summary["summary"]["captured"] == 1


def test_cmd_simulate_zero_evaders(tmp_path, capsys):
    doc = {"pursuers": [{"pos": [0, 0, 1], "speed": 2.0}], "evaders": []}
    path = write(tmp_path, "empty.json", doc)
    assert main(["simulate", "--scenario", path]) == 0
    assert "captured=0" in capsys.readouterr().out


def test_cmd_simulate_trace_bytes_deterministic(tmp_path):
    scenario = write(tmp_path, "game.json", {
        "pursuers": [
            {"pos": [0.4, 0.1, 0.8], "speed": 2.0, "radius": 0.2},
            {"pos": [-0.6, 0.3, 0.7], "speed": 2.2, "radius": 0.15},
        ],
        "evaders": [
            {"pos": [0, 0, 2.2], "speed": 1.0, "policy": "random-walk"},
            {"pos": [0.5, -0.4, 2.0], "speed": 0.9, "policy": "optimal"},
        ],
        "dt": 0.01, "seed": 42, "max_time": 4.0,
    })
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(["simulate", "--scenario", scenario, "--out", str(first)]) == 0
    assert main(["simulate", "--scenario", scenario, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cmd_simulate_overrides(tmp_path, capsys):
    path = write(tmp_path, "capture.json", CAPTURE_RUN)
    assert main(["simulate", "--scenario", path, "--dt", "0.005",
                 "--max-time", "5.0", "--seed", "9"]) == 0
    assert "captured=1" in capsys.readouterr().out


def test_cmd_reduce3dm(tmp_path, capsys):
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({
        "m": 2, "triples": [[0, 0, 0], [1, 1, 1], [0, 1, 1]],
    }))
    out = tmp_path / "graph.json"
    assert main(["reduce3dm", "--instance", str(instance), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["match", "--graph-file", str(out), "--matcher", "exact"]) == 0
    assert "exact size=2" in capsys.readouterr().out


def test_cmd_reduce3dm_bad_instance(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 2}))
    assert main(["reduce3dm", "--instance", str(path)]) == 2


def test_cmd_reduce3dm_fractional_instance(tmp_path, capsys):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps({"m": 2, "triples": [[0, 1.2, 0]]}))
    assert main(["reduce3dm", "--instance", str(path)]) == 2
    assert "input error: --instance: triples[0]: expected an integer, got 1.2" \
        in capsys.readouterr().err


def test_cmd_bench_empty(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--instances", "0", "--out", str(out)]) == 0
    assert out.read_text() == "instance,opt,sma,ratio,opt_ms,sma_ms\n"


def test_cmd_bench_small(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--instances", "12", "--seed", "5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 13
    for row in rows[1:]:
        fields = row.split(",")
        opt, sma, ratio = int(fields[1]), int(fields[2]), float(fields[3])
        assert sma * 3 >= opt
        if opt:
            assert ratio >= 1.0 / 3.0


def test_trace_serialization_helpers():
    from reachavoid import run

    trace = run(scenario_from_json(json.dumps(CAPTURE_RUN)))
    jsonl = trace_to_jsonl(trace)
    assert jsonl.endswith("\n")
    csv = trace_to_csv(trace)
    assert csv.startswith("time,player,x,y,z\n")

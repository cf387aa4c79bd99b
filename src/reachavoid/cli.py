"""Command-line surface: scenario files, single queries, simulations, benchmarks.

Exit codes: 0 success, 2 input error, 3 solver failure, 4 exact-matcher
size-guard refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .engine import (
    Scenario,
    ScenarioError,
    Trace,
    random_scenario,
    run,
    validate_scenario,
)
from .geometry import EvaderSpec, PursuerSpec
from .interception import (
    Ball,
    Region,
    SolverFailure,
    UNBOUNDED,
    Unbounded,
    classify_result,
    solve_interception,
)
from .matching import (
    SizeGuardExceeded,
    ThreeDMInstance,
    _whole,
    build_graph,
    exact_mbmc,
    graph_from_json,
    graph_to_json,
    reduce_3dm,
    sequential_matching,
)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _fmt_vec(v) -> str:
    return "[" + " ".join(_fmt(c) for c in v) + "]"


# --------------------------------------------------------------------------
# scenario documents


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ScenarioError(f"{context}.{key}: missing required field")
    return doc[key]


def _number(value, context: str, kind=float):
    """``value`` converted by ``kind``; a JSON null, boolean, list, object
    or unparsable string is an input error naming the field, and so is a
    fractional number when ``kind`` is ``int``."""
    if kind is int and not _whole(value):
        raise ScenarioError(f"{context}: expected an integer, got {value!r}")
    if isinstance(value, bool):
        raise ScenarioError(f"{context}: expected a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{context}: expected a number") from None


def _as_pos(value, context: str):
    if not isinstance(value, list) or len(value) != 3:
        raise ScenarioError(f"{context}: expected [x, y, z]")
    return tuple(_number(c, f"{context}[{k}]") for k, c in enumerate(value))


def region_from_json(value) -> Region:
    if value == "unbounded" or value is None:
        return UNBOUNDED
    if isinstance(value, dict) and set(value) == {"ball"}:
        spec = value["ball"]
        if not isinstance(spec, dict):
            raise ScenarioError("region.ball: expected an object")
        center = _as_pos(_require(spec, "center", "region.ball"), "region.ball.center")
        radius = _number(_require(spec, "radius", "region.ball"), "region.ball.radius")
        try:
            return Ball(center=center, radius=radius)
        except ValueError as exc:
            raise ScenarioError(f"region.ball: {exc}") from exc
    raise ScenarioError(
        "region: expected \"unbounded\" or {\"ball\": {\"center\", \"radius\"}}"
    )


def region_to_json(region: Region):
    if isinstance(region, Unbounded):
        return "unbounded"
    return {"ball": {"center": list(region.center), "radius": region.radius}}


def _players(doc: dict, field: str, make) -> list:
    """``make(entry, context)`` for each entry of the list ``doc[field]``
    (none when absent); a non-list, a non-object entry or a ``ValueError``
    from ``make`` is an input error naming the field or the entry."""
    items = doc.get(field, [])
    if not isinstance(items, list):
        raise ScenarioError(f"{field}: expected a list, got {items!r}")
    specs = []
    for k, item in enumerate(items):
        context = f"{field}[{k}]"
        if not isinstance(item, dict):
            raise ScenarioError(f"{context}: expected an object")
        try:
            specs.append(make(item, context))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
    return specs


def scenario_from_json(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")

    pursuers = _players(doc, "pursuers", lambda item, context: PursuerSpec(
        position=_as_pos(_require(item, "pos", context), f"{context}.pos"),
        speed=_number(_require(item, "speed", context), f"{context}.speed"),
        capture_radius=_number(item.get("radius", 0.0), f"{context}.radius"),
    ))
    evaders = _players(doc, "evaders", lambda item, context: EvaderSpec(
        position=_as_pos(_require(item, "pos", context), f"{context}.pos"),
        speed=_number(_require(item, "speed", context), f"{context}.speed"),
    ))
    policies = [str(item.get("policy", "straight"))
                for item in doc.get("evaders", [])]

    scenario = Scenario(
        pursuers=tuple(pursuers),
        evaders=tuple(evaders),
        region=region_from_json(doc.get("region")),
        dt=_number(doc.get("dt", 0.01), "dt"),
        seed=_number(doc.get("seed", 0), "seed", int),
        max_time=_number(doc.get("max_time", 20.0), "max_time"),
        evader_policies=tuple(policies),
        matcher=str(doc.get("matcher", "sma")),
        rematch_every=_number(doc.get("rematch_every", 1), "rematch_every", int),
    )
    validate_scenario(scenario)
    return scenario


def scenario_to_json(scenario: Scenario) -> str:
    doc = {
        "pursuers": [
            {"pos": list(p.position), "speed": p.speed, "radius": p.capture_radius}
            for p in scenario.pursuers
        ],
        "evaders": [
            {"pos": list(e.position), "speed": e.speed, "policy": policy}
            for e, policy in zip(scenario.evaders, scenario.evader_policies)
        ],
        "region": region_to_json(scenario.region),
        "dt": scenario.dt,
        "seed": scenario.seed,
        "max_time": scenario.max_time,
        "matcher": scenario.matcher,
        "rematch_every": scenario.rematch_every,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


# --------------------------------------------------------------------------
# trace documents


def trace_to_jsonl(trace: Trace) -> str:
    lines = []
    for frame in trace.frames:
        lines.append(json.dumps({
            "t": frame.time,
            "pursuers": frame.pursuer_positions,
            "evaders": frame.evader_positions,
            "matching": frame.matching,
            "pursuer_headings": frame.pursuer_headings,
            "evader_headings": frame.evader_headings,
        }, sort_keys=True))
    lines.append(json.dumps({
        "summary": trace.summary,
        "events": [{
            "time": event.time,
            "kind": event.kind,
            "evader": event.evader,
            "pursuer": event.pursuer,
            "position": event.position,
        } for event in trace.events],
    }, sort_keys=True))
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: Trace) -> str:
    rows = ["time,player,x,y,z"]
    for frame in trace.frames:
        for i, pos in enumerate(frame.pursuer_positions):
            rows.append(f"{frame.time!r},P{i},{pos[0]!r},{pos[1]!r},{pos[2]!r}")
        for j, pos in frame.evader_positions:
            rows.append(f"{frame.time!r},E{j},{pos[0]!r},{pos[1]!r},{pos[2]!r}")
    return "\n".join(rows) + "\n"


# --------------------------------------------------------------------------
# subcommands


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    return scenario_from_json(text)


def _parse_coalition(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ScenarioError(f"--coalition: expected comma-separated indices: {exc}") from exc


def _pick_evader(scenario: Scenario, index: int) -> EvaderSpec:
    if not 0 <= index < len(scenario.evaders):
        raise ScenarioError(
            f"--evader: index {index} out of range for "
            f"{len(scenario.evaders)} evaders"
        )
    return scenario.evaders[index]


def cmd_kind(args) -> int:
    scenario = _load_scenario(args.scenario)
    members = _parse_coalition(args.coalition)
    evader = _pick_evader(scenario, args.evader)
    result = solve_interception(members, evader, scenario.pursuers, scenario.region)
    kind = classify_result(result, evader, scenario.pursuers, scenario.region)
    print(f"{kind.value} z={_fmt(result.value)} point={_fmt_vec(result.point)}")
    return 0


def cmd_intercept(args) -> int:
    scenario = _load_scenario(args.scenario)
    members = _parse_coalition(args.coalition)
    evader = _pick_evader(scenario, args.evader)
    result = solve_interception(members, evader, scenario.pursuers, scenario.region)
    print(f"z={_fmt(result.value)} point={_fmt_vec(result.point)}")
    print(f"active={list(result.active_set)} region_active={result.region_active}")
    print(f"multipliers={_fmt_vec(result.multipliers)} "
          f"kkt_residual={_fmt(result.kkt_residual)}")
    return 0


def cmd_match(args) -> int:
    if args.graph_file:
        try:
            graph = graph_from_json(Path(args.graph_file).read_text())
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"--graph-file: {exc}") from exc
    else:
        scenario = _load_scenario(args.scenario)
        graph = build_graph(
            list(scenario.pursuers), list(scenario.evaders), scenario.region
        )

    def show(label: str, pairs) -> None:
        print(f"{label} size={len(pairs)}")
        for ci, ej in pairs:
            members = ",".join(str(i) for i in graph.coalitions[ci])
            print(f"  P[{members}] -> E{ej}")

    sizes = {}
    if args.matcher in ("sma", "both"):
        pairs = sequential_matching(graph)
        sizes["sma"] = len(pairs)
        show("sma", pairs)
    if args.matcher in ("exact", "both"):
        pairs = exact_mbmc(graph)
        sizes["exact"] = len(pairs)
        show("exact", pairs)
    if args.matcher == "both":
        opt = sizes["exact"]
        ratio = sizes["sma"] / opt if opt else 1.0
        print(f"ratio={_fmt(ratio)}")
    return 0


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_time is not None:
        overrides["max_time"] = args.max_time
    if overrides:
        scenario = replace(scenario, **overrides)
        validate_scenario(scenario)
    try:
        trace = run(scenario)
    except SolverFailure as exc:
        if exc.partial_trace is not None and args.out:
            Path(args.out).write_text(trace_to_jsonl(exc.partial_trace))
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(trace_to_jsonl(trace))
    if args.csv:
        Path(args.csv).write_text(trace_to_csv(trace))
    print(
        f"captured={trace.summary['captured']} "
        f"reached_goal={trace.summary['reached_goal']} "
        f"escaped={trace.summary['escaped']} "
        f"survived={trace.summary['survived']}"
    )
    return 0


def cmd_reduce3dm(args) -> int:
    try:
        doc = json.loads(Path(args.instance).read_text())
        instance = ThreeDMInstance(
            m=_number(doc["m"], "m", int),
            triples=tuple(tuple(_number(v, f"triples[{i}]", int) for v in t)
                          for i, t in enumerate(doc["triples"])),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"--instance: {exc}") from exc
    graph = reduce_3dm(instance)
    text = graph_to_json(graph)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    print(
        f"pursuers={2 * instance.m} evaders={instance.m} "
        f"coalitions={len(graph.coalitions)} edges={len(graph.edges)}",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args) -> int:
    rows = ["instance,opt,sma,ratio,opt_ms,sma_ms"]
    for k in range(args.instances):
        scenario = random_scenario(
            args.seed + k, max_pursuers=6, max_evaders=6
        )
        graph = build_graph(
            list(scenario.pursuers), list(scenario.evaders), scenario.region
        )
        start = time.perf_counter()
        opt = exact_mbmc(graph, max_edges=4096)
        opt_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        sma = sequential_matching(graph)
        sma_ms = (time.perf_counter() - start) * 1e3
        ratio = len(sma) / len(opt) if opt else 1.0
        rows.append(
            f"{k},{len(opt)},{len(sma)},{_fmt(ratio)},{_fmt(opt_ms)},{_fmt(sma_ms)}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachavoid",
        description="Pursuit-evasion reach-avoid game solvers and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kind = sub.add_parser("kind", help="classify the winner for one coalition/evader")
    kind.add_argument("--scenario", required=True)
    kind.add_argument("--coalition", required=True, help="comma-separated pursuer indices")
    kind.add_argument("--evader", type=int, default=0)
    kind.set_defaults(handler=cmd_kind)

    intercept = sub.add_parser("intercept", help="solve one interception program")
    intercept.add_argument("--scenario", required=True)
    intercept.add_argument("--coalition", required=True)
    intercept.add_argument("--evader", type=int, default=0)
    intercept.set_defaults(handler=cmd_intercept)

    match = sub.add_parser("match", help="build the game graph and match it")
    match.add_argument("--scenario")
    match.add_argument("--graph-file", dest="graph_file")
    match.add_argument("--matcher", choices=("sma", "exact", "both"), default="sma")
    match.set_defaults(handler=cmd_match)

    simulate = sub.add_parser("simulate", help="run a full receding-horizon game")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--out", help="trace output path (JSON lines)")
    simulate.add_argument("--csv", help="positions CSV output path")
    simulate.add_argument("--dt", type=float)
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--max-time", dest="max_time", type=float)
    simulate.set_defaults(handler=cmd_simulate)

    reduce3dm = sub.add_parser(
        "reduce3dm", help="encode a 3-dimensional matching instance as a game graph"
    )
    reduce3dm.add_argument("--instance", required=True)
    reduce3dm.add_argument("--out")
    reduce3dm.set_defaults(handler=cmd_reduce3dm)

    bench = sub.add_parser("bench", help="compare exact and sequential matchers")
    bench.add_argument("--instances", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out")
    bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "match" and not (args.scenario or args.graph_file):
        print("match: one of --scenario or --graph-file is required", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except SizeGuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, ValueError, IndexError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

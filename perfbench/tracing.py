"""Spans around the public calls into each reachavoid module.

The engine and matching modules import their collaborators by name, so a
call is traced by rebinding that name in the caller's namespace (for
example ``reachavoid.engine.build_graph_with_results``).  Nothing inside
the package changes.  Spans stay in memory until the run ends; a span's
self time is its duration minus the durations of the spans it caused.

``geometry``'s public functions run on no game path (the engine's per-frame
``dataclasses.replace`` of the player specs counts as ``engine`` self time),
and the private ``_linalg`` helpers count in their callers.
"""

from __future__ import annotations

import json
import statistics
import time

import reachavoid.cli as cli
import reachavoid.engine as engine
import reachavoid.matching as matching
from reachavoid import GameKind, SizeGuardExceeded, SolverFailure

#: (module, attribute rebound there, span name).  A span name is
#: ``<layer>.<function>`` with the layer named after the defining module.
TARGETS = (
    (engine, "run", "engine.run"),
    (engine, "step", "engine.step"),
    (engine, "capture_check", "engine.capture_check"),
    (engine, "build_graph_with_results", "matching.build_graph"),
    (engine, "sequential_matching", "matching.sma"),
    (engine, "exact_mbmc", "matching.exact"),
    (engine, "solve_interception", "interception.solve"),
    (engine, "pursuer_heading", "strategy.pursuer_heading"),
    (engine, "evader_optimal_heading", "strategy.evader_optimal_heading"),
    (matching, "solve_interception", "interception.solve"),
    (matching, "classify_result", "interception.classify"),
    (cli, "trace_to_jsonl", "cli.trace_to_jsonl"),
)
LAYERS = ("interception", "matching", "strategy", "engine", "cli")

# Span record fields.
NAME, START, END, PARENT, PAYLOAD = range(5)


class Tracer:
    """Context manager that rebinds :data:`TARGETS` and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                span[PAYLOAD] = result = fn(*args, **kwargs)
            except Exception as exc:
                span[PAYLOAD] = exc
                raise
            finally:
                span[END] = clock()
                stack.pop()
            return result

        return traced

    def __enter__(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start and end (s),
        parent index (-1 for a root) and self time (s)."""
        own = self.self_times()
        with open(path, "w") as out:
            for span, self_s in zip(self.spans, own):
                out.write(json.dumps([span[NAME], span[START], span[END],
                                      span[PARENT], self_s]) + "\n")


def _mean_us(durations) -> float:
    return 1e6 * sum(durations) / len(durations) if durations else 0.0


def _p(values, q) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, traced_wall_s: float, frames: int,
                  trace_bytes: int, untraced_fps: float) -> dict:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``.

    ``traced_wall_s`` is the summed wall time of the traced games, ``frames``
    the engine frames they simulated, ``trace_bytes`` the size of their
    JSONL traces and ``untraced_fps`` the frame rate of the same games
    played untraced.
    """
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, ())]

    m: dict[str, tuple[float, str]] = {}
    per_frame = 1.0 / frames if frames else 0.0

    # interception
    solve_us = {1: [], 2: [], 3: []}
    multi = {1: 0, 2: 0, 3: 0}
    region_active = failures = fallback = 0
    kkt_max = slack_max = 0.0
    all_solve_us = []
    for i in by_name.get("interception.solve", ()):
        span = spans[i]
        us = 1e6 * (span[END] - span[START])
        all_solve_us.append(us)
        if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "engine.run":
            fallback += 1
        result = span[PAYLOAD]
        if isinstance(result, Exception):
            failures += 1
            continue
        k = len(result.coalition)
        solve_us[k].append(us)
        if len(result.active_set) > 1 or result.region_active:
            multi[k] += 1
        region_active += result.region_active
        kkt_max = max(kkt_max, result.kkt_residual)
        slack_max = max(slack_max, result.slackness_residual)
    for k in (1, 2, 3):
        m[f"interception.solves.k{k}"] = (len(solve_us[k]), "count")
    m["interception.solves_per_frame"] = (len(all_solve_us) * per_frame, "count/frame")
    for k in (1, 2, 3):
        m[f"interception.solve_us.k{k}"] = (
            sum(solve_us[k]) / len(solve_us[k]) if solve_us[k] else 0.0, "us")
    m["interception.solve_us_p99"] = (_p(all_solve_us, 99), "us")
    for k in (1, 2, 3):
        m[f"interception.multi_active.k{k}"] = (multi[k], "count")
    m["interception.region_active"] = (region_active, "count")
    kinds = {kind: 0 for kind in GameKind}
    for i in by_name.get("interception.classify", ()):
        payload = spans[i][PAYLOAD]
        if isinstance(payload, SolverFailure):
            failures += 1
        else:
            kinds[payload] += 1
    m["interception.kind.pursuit_wins"] = (kinds[GameKind.PURSUIT_WINS], "count")
    m["interception.kind.tie"] = (kinds[GameKind.TIE], "count")
    m["interception.kind.evader_wins"] = (kinds[GameKind.EVADER_WINS], "count")
    m["interception.failures"] = (failures, "count")
    m["interception.kkt_residual_max"] = (kkt_max, "1")
    m["interception.slackness_residual_max"] = (slack_max, "1")

    # matching
    build_ms = [1e3 * d for d in durations("matching.build_graph")]
    m["matching.build_graph.ms_p50"] = (
        statistics.median(build_ms) if build_ms else 0.0, "ms")
    m["matching.build_graph.ms_p99"] = (_p(build_ms, 99), "ms")
    m["matching.build_graph.self_ms_per_frame"] = (
        1e3 * sum(own[i] for i in by_name.get("matching.build_graph", ()))
        * per_frame, "ms/frame")
    edges = {1: 0, 2: 0, 3: 0}
    for i in by_name.get("matching.build_graph", ()):
        payload = spans[i][PAYLOAD]
        if isinstance(payload, Exception):
            continue
        graph = payload[0]
        for ci, _ in graph.edges:
            edges[len(graph.coalitions[ci])] += 1
    m["matching.edges_per_frame"] = (sum(edges.values()) * per_frame, "count/frame")
    for k in (1, 2, 3):
        m[f"matching.edges.k{k}"] = (edges[k], "count")
    m["matching.sma.us_per_call"] = (_mean_us(durations("matching.sma")), "us")
    m["matching.exact.us_per_call"] = (_mean_us(durations("matching.exact")), "us")
    m["matching.exact.guard_refusals"] = (sum(
        isinstance(spans[i][PAYLOAD], SizeGuardExceeded)
        for i in by_name.get("matching.exact", ())), "count")

    # engine
    m["engine.frames"] = (frames, "count")
    m["engine.self_ms_per_frame"] = (
        1e3 * sum(own[i] for i in by_name.get("engine.run", ())) * per_frame,
        "ms/frame")
    m["engine.step.us_per_call"] = (_mean_us(durations("engine.step")), "us")
    m["engine.capture_check.us_per_call"] = (
        _mean_us(durations("engine.capture_check")), "us")
    m["engine.fallback_solves"] = (fallback, "count")
    events = {"captured": 0, "reached_goal": 0, "escaped": 0, "survived": 0}
    for i in by_name.get("engine.run", ()):
        payload = spans[i][PAYLOAD]
        if not isinstance(payload, Exception):
            for kind in events:
                events[kind] += payload.summary[kind]
    for kind, count in events.items():
        m[f"engine.events.{kind}"] = (count, "count")

    # strategy and cli
    for name in ("pursuer_heading", "evader_optimal_heading"):
        m[f"strategy.{name}.us_per_call"] = (
            _mean_us(durations(f"strategy.{name}")), "us")
    games = len(by_name.get("engine.run", ()))
    m["cli.trace_to_jsonl.ms_per_game"] = (
        1e3 * sum(durations("cli.trace_to_jsonl")) / games if games else 0.0, "ms")
    m["cli.trace_bytes_per_frame"] = (trace_bytes * per_frame, "B/frame")

    # shares of the traced wall time
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, self_s in zip(spans, own):
        layer_self[span[NAME].split(".", 1)[0]] += self_s
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self[layer] / traced_wall_s, "ratio")
    m["untimed.share"] = (1.0 - sum(layer_self.values()) / traced_wall_s, "ratio")
    traced_fps = frames / traced_wall_s
    m["trace.overhead_ratio"] = (traced_fps / untraced_fps, "ratio")
    return m

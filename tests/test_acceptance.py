"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import math
import random
import time

import numpy as np

from reachavoid import (
    EvaderSpec,
    GameKind,
    PursuerSpec,
    ThreeDMInstance,
    classify_kind,
    exact_mbmc,
    potential,
    random_scenario,
    reduce_3dm,
    run,
    sequential_matching,
    solve_interception,
)
from reachavoid.cli import trace_to_jsonl
from reachavoid.interception import UNBOUNDED

import minisim
import oracles
from barrier import barrier_reference
from lemmas import (
    CoplanarConfigurationError,
    PolarFrame,
    boundary_point,
    cross_section_curvature,
    reduce_coalition,
    triple_candidates,
)
from test_matching import fig3_graph, random_graph


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_collinear_fixtures():
    evader = EvaderSpec(position=(0, 0, 3), speed=1.0)
    plain = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.0)
    with_radius = PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.5)
    tie_p = PursuerSpec(position=(0, 0, 2), speed=2.0)
    tie_e = EvaderSpec(position=(0, 0, 1), speed=1.0)

    ok = abs(solve_interception((0,), evader, [plain]).value - 7.0 / 3.0) <= 1e-8
    ok &= abs(solve_interception((0,), evader, [with_radius]).value - 2.5) <= 1e-8
    tie = solve_interception((0,), tie_e, [tie_p])
    ok &= classify_kind((0,), tie_e, [tie_p]) is GameKind.TIE
    ok &= abs(tie.value) <= 1e-7

    times = [
        best_time(lambda: solve_interception((0,), evader, [plain])),
        best_time(lambda: solve_interception((0,), evader, [with_radius])),
        best_time(lambda: solve_interception((0,), tie_e, [tie_p])),
    ]
    ok &= max(times) < 1e-3
    report(1, "collinear fixtures", ok,
           f"worst solve {max(times) * 1e3:.3f} ms")


def test_criterion_2_kkt_certificates_and_uniqueness():
    rng = random.Random(2024)
    worst_stationarity = 0.0
    worst_slackness = 0.0
    worst_spread = 0.0
    for k in range(1000):
        n = 1 + k % 3
        pursuers, evader = oracles.random_pose(rng, n)
        members = tuple(range(n))
        result = solve_interception(members, evader, pursuers)
        worst_stationarity = max(worst_stationarity, result.kkt_residual)
        worst_slackness = max(worst_slackness, result.slackness_residual)
        for _ in range(20):
            while True:
                start = tuple(
                    c + rng.uniform(-0.4, 0.4) for c in evader.position
                )
                try:
                    resolved = barrier_reference(
                        members, evader, pursuers, UNBOUNDED, start
                    )
                    break
                except ValueError:
                    continue
            worst_spread = max(
                worst_spread, math.dist(resolved.point, result.point)
            )
    ok = worst_stationarity <= 1e-8 and worst_slackness <= 1e-8
    ok &= worst_spread <= 1e-6
    report(2, "KKT certificates and uniqueness", ok,
           f"stationarity {worst_stationarity:.1e}, "
           f"slackness {worst_slackness:.1e}, spread {worst_spread:.1e}")


def test_criterion_3_convexity_and_curvature():
    rng = random.Random(3)
    ok = True
    pairs = 0
    while pairs < 1000:
        pursuers, evader = oracles.random_pose(rng, 1)
        pursuer = pursuers[0]
        directions = oracles.fibonacci_directions(128)
        a = np.asarray(boundary_point(pursuer, evader, directions[rng.randrange(128)]))
        b = np.asarray(boundary_point(pursuer, evader, directions[rng.randrange(128)]))
        if np.linalg.norm(a - b) <= 1e-3:
            continue
        ok &= potential(pursuer, evader, 0.5 * (a + b)) > 0.0
        pairs += 1

    worst_gap = 0.0
    for _ in range(100):
        pursuers, evader = oracles.random_pose(rng, 1)
        frame = PolarFrame(origin=evader.position,
                           theta0=rng.uniform(0, math.pi),
                           psi0=rng.uniform(0, 2 * math.pi))
        theta = rng.uniform(0, math.pi)
        psi = rng.uniform(0, 2 * math.pi)
        analytic = cross_section_curvature(pursuers[0], evader, frame, theta, psi)
        fd = oracles.fd_curvature(pursuers[0], evader, frame, theta, psi)
        ok &= analytic > 0.0
        worst_gap = max(worst_gap, abs(analytic - fd))
    ok &= worst_gap <= 1e-5
    report(3, "convexity and curvature", ok,
           f"analytic-vs-fd gap {worst_gap:.1e}")


def test_criterion_4_degeneration():
    rng = random.Random(4)
    worst = 0.0
    ok = True
    for k in range(200):
        pool_size = rng.randint(3, 6)
        if k % 2:
            pursuers, evader = oracles.random_pose(rng, pool_size)
        else:
            ring, evader = oracles.ring_pose(rng)
            extras, _ = oracles.random_pose(rng, pool_size - 3)
            pursuers = ring + extras
        members = tuple(sorted(rng.sample(range(pool_size), 3)))
        full = solve_interception(members, evader, pursuers)
        ok &= len(full.active_set) <= 3
        reduced = reduce_coalition(members, evader, pursuers)
        ok &= 1 <= len(reduced) <= 3
        sub = solve_interception(reduced, evader, pursuers)
        worst = max(worst, math.dist(sub.point, full.point))
    ok &= worst <= 1e-7
    report(4, "coalition degeneration", ok, f"worst point gap {worst:.1e}")


def test_criterion_5_quartic_cross_check():
    rng = random.Random(5)
    qualifying = 0
    worst = 0.0
    ok = True
    for _ in range(400):
        pursuers, evader = oracles.ring_pose(rng)
        result = solve_interception((0, 1, 2), evader, pursuers)
        if len(result.active_set) != 3:
            continue
        try:
            candidates = triple_candidates((0, 1, 2), evader, pursuers)
        except CoplanarConfigurationError:
            continue
        qualifying += 1
        ok &= len(candidates) <= 4
        gap = min(
            (math.dist(c, result.point) for c in candidates), default=math.inf
        )
        worst = max(worst, gap)
        if qualifying >= 40:
            break
    ok &= qualifying >= 25
    ok &= worst <= 1e-6
    report(5, "quartic cross-check", ok,
           f"{qualifying} three-active poses, worst gap {worst:.1e}")


def test_criterion_6_drift_monotonicity():
    rng = random.Random(6)
    poses = []
    while len(poses) < 25:
        n = 1 + len(poses) % 3
        pursuers, evader = oracles.random_pose(rng, n, radius_max=0.25)
        if any(
            math.dist(p.position, evader.position) < p.capture_radius + 0.3
            for p in pursuers
        ):
            continue
        poses.append((pursuers, evader))

    slack = {}
    for dt in (1e-2, 1e-3):
        worst = 0.0
        for k, (pursuers, evader) in enumerate(poses):
            for mode in ("random", "optimal"):
                worst = max(worst, minisim.worst_altitude_drop(
                    pursuers, evader, dt, 0.2, mode, seed=900 + k
                ))
        slack[dt] = worst

    # Straight-line frames keep the previous interception point feasible
    # exactly, so the per-frame slack sits at rounding level; the quadratic
    # bound holds outright and the 3.5x reduction check applies whenever the
    # coarse slack is measurable at all.
    floor = 1e-10
    ok = slack[1e-2] <= 10.0 * (1e-2) ** 2
    ok &= slack[1e-3] <= 10.0 * (1e-3) ** 2
    if slack[1e-2] > floor:
        ok &= slack[1e-3] * 3.5 <= slack[1e-2]
    else:
        ok &= slack[1e-3] <= floor
    report(6, "drift monotonicity", ok,
           f"slack {slack[1e-2]:.1e} @ dt=1e-2, {slack[1e-3]:.1e} @ dt=1e-3 "
           f"(50 scenario runs)")


def test_criterion_7_matching_bounds():
    graph = fig3_graph()
    exact_time = best_time(lambda: exact_mbmc(graph))
    sma_time = best_time(lambda: sequential_matching(graph))
    ok = len(exact_mbmc(graph)) == 3
    ok &= len(sequential_matching(graph)) == 3
    ok &= exact_time < 10e-3 and sma_time < 10e-3

    rng = random.Random(7)
    checked = 0
    while checked < 200:
        max_size = (1, 2, 3)[checked % 3]
        instance = random_graph(rng, rng.randint(2, 6), rng.randint(1, 6), max_size)
        if len(instance.edges) > 40:
            continue
        opt = exact_mbmc(instance)
        sma = sequential_matching(instance)
        ok &= 3 * len(sma) >= len(opt)
        sizes = {len(instance.coalitions[ci]) for ci, _ in opt}
        if 3 not in sizes:
            ok &= 2 * len(sma) >= len(opt)
        if sizes <= {1}:
            ok &= len(sma) == len(opt)
        checked += 1
    report(7, "matching correctness and bounds", ok,
           f"fig3 exact {exact_time * 1e3:.2f} ms, sma {sma_time * 1e3:.2f} ms, "
           f"{checked} random instances")


def test_criterion_8_reduction_soundness():
    rng = random.Random(8)
    ok = True
    for _ in range(100):
        m = rng.randint(1, 4)
        triples = {
            (rng.randrange(m), rng.randrange(m), rng.randrange(m))
            for _ in range(rng.randint(1, 2 * m + 2))
        }
        instance = ThreeDMInstance(m=m, triples=tuple(triples))
        complete = len(exact_mbmc(reduce_3dm(instance))) == m
        ok &= complete == oracles.brute_force_3dm(instance)
    report(8, "3-dimensional matching reduction soundness", ok)


def test_criterion_9_end_to_end_guarantee():
    start = time.perf_counter()
    violations = 0
    for seed in range(100):
        trace = run(random_scenario(seed, max_pursuers=5, max_evaders=5))
        matched_history: dict[int, list] = {}
        for frame in trace.frames:
            matching = {ej: members for members, ej in frame.matching}
            for ej in {j for j, _ in frame.evader_positions}:
                matched_history.setdefault(ej, []).append(matching.get(ej))
        for event in trace.events:
            if event.kind in ("reached_goal", "escaped"):
                history = matched_history[event.evader]
                # Matched in its final frame means it stayed matched to one
                # coalition until termination (a suffix of length one).
                if history and history[-1] is not None:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report(9, "end-to-end matched-evader guarantee", ok,
           f"{violations} violations, 100 games in {elapsed:.1f} s")


def test_criterion_10_trace_determinism():
    scenario = random_scenario(99, max_pursuers=4, max_evaders=4)
    first = trace_to_jsonl(run(scenario)).encode()
    second = trace_to_jsonl(run(scenario)).encode()
    ok = first == second
    report(10, "byte-identical trace determinism", ok,
           f"{len(first)} bytes")

import math
import os
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from reachavoid import (
    UNBOUNDED,
    Ball,
    EvaderSpec,
    PursuerSpec,
    Scenario,
    ScenarioError,
    SizeGuardExceeded,
    build_graph,
    capture_check,
    engine,
    evader_optimal_heading,
    exact_mbmc,
    pursuer_heading,
    random_scenario,
    run,
    sequential_matching,
    solve_interception,
    step,
    validate_scenario,
)
from reachavoid.engine import (
    CAPTURED,
    ESCAPED,
    REACHED_GOAL,
    _clamp_to_ball,
    _moved,
    _nearest_exit_point,
)
from reachavoid.matching import EXACT_EDGE_GUARD

import oracles


def simple_scenario(**overrides):
    base = dict(
        pursuers=(PursuerSpec(position=(0, 0, 1), speed=2.0, capture_radius=0.2),),
        evaders=(EvaderSpec(position=(0, 0, 3), speed=1.0),),
        evader_policies=("straight",),
        dt=0.01,
        max_time=10.0,
    )
    base.update(overrides)
    return Scenario(**base)


def test_step_fixtures():
    assert step([(0, 0, 0)], [(0, 0, 1)], [2.0], 0.5) == [(0, 0, 1)]
    assert step([(1, 2, 3)], [(0, 0, 0)], [2.0], 0.5) == [(1, 2, 3)]
    rng = random.Random(1)
    for _ in range(50):
        position = tuple(rng.uniform(-5, 5) for _ in range(3))
        raw = tuple(rng.gauss(0, 1) for _ in range(3))
        norm = math.sqrt(sum(c * c for c in raw))
        heading = tuple(c / norm for c in raw)
        speed = rng.uniform(0.1, 3.0)
        dt = rng.uniform(0.001, 0.1)
        (moved,) = step([position], [heading], [speed], dt)
        assert math.dist(moved, position) == pytest.approx(speed * dt, abs=1e-12)
    with pytest.raises(ValueError):
        step([(0, 0, 0)], [(0, 0, 0.5)], [1.0], 0.1)


def test_capture_check_segment_entry():
    pursuer = PursuerSpec(position=(0, 0, 0), speed=1.0, capture_radius=1.0)
    evader = EvaderSpec(position=(3, 0, 0), speed=1.0)
    events = capture_check(
        ([(0, 0, 0)], [(3, 0, 0)]),
        ([(0, 0, 0)], [(-3, 0, 0)]),
        [pursuer], [evader], frame_time=0.0, dt=1.0,
    )
    assert len(events) == 1
    event = events[0]
    assert event.kind == CAPTURED
    assert event.pursuer == 0
    assert event.time == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert event.position == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_capture_check_goal_crossing():
    evader = EvaderSpec(position=(0, 0, 0.5), speed=1.0)
    events = capture_check(
        ([], [(0, 0, 0.5)]), ([], [(0, 0, -0.5)]), [], [evader],
        frame_time=2.0, dt=0.5,
    )
    assert len(events) == 1
    event = events[0]
    assert event.kind == REACHED_GOAL
    assert event.pursuer is None
    assert event.time == pytest.approx(2.25, abs=1e-12)


def test_capture_check_earlier_event_wins():
    # Capture at parameter 1/3 beats the goal crossing at 1/2.
    pursuer = PursuerSpec(position=(0, 0, 0), speed=1.0, capture_radius=1.0)
    evader = EvaderSpec(position=(3, 0, 0.5), speed=1.0)
    events = capture_check(
        ([(0, 0, 0)], [(3, 0, 0.5)]),
        ([(0, 0, 0)], [(-3, 0, -0.5)]),
        [pursuer], [evader], frame_time=0.0, dt=1.0,
    )
    assert [e.kind for e in events] == [CAPTURED]

    # Remove the pursuer and the same motion exits instead.
    events = capture_check(
        ([], [(3, 0, 0.5)]), ([], [(-3, 0, -0.5)]), [], [evader],
        frame_time=0.0, dt=1.0,
    )
    assert [e.kind for e in events] == [REACHED_GOAL]


def test_capture_check_simultaneous_credit_lowest_index():
    # Both capture spheres are entered at the same sub-frame time.
    radius = math.sqrt(2.0)
    pursuers = [
        PursuerSpec(position=(0, 0, 1.5), speed=1.0, capture_radius=radius),
        PursuerSpec(position=(0, 0, -0.5), speed=1.0, capture_radius=radius),
    ]
    evader = EvaderSpec(position=(3, 0, 0.5), speed=1.0)
    events = capture_check(
        ([(0, 0, 1.5), (0, 0, -0.5)], [(3, 0, 0.5)]),
        ([(0, 0, 1.5), (0, 0, -0.5)], [(-3, 0, 0.5)]),
        pursuers, [evader], frame_time=0.0, dt=1.0,
    )
    assert len(events) == 1
    assert events[0].kind == CAPTURED
    assert events[0].pursuer == 0


def test_ball_region_exit_is_escape():
    ball = Ball(center=(0, 0, 1), radius=3.0)
    evader = EvaderSpec(position=(0, 0, 0.5), speed=1.0)
    events = capture_check(
        ([], [(0, 0, 0.5)]), ([], [(0, 0, -0.5)]), [], [evader],
        region=ball, frame_time=0.0, dt=1.0,
    )
    assert [e.kind for e in events] == [ESCAPED]


def test_capture_check_frame_starting_inside_capture_radius():
    pursuer = PursuerSpec(position=(0, 0, 1), speed=1.0, capture_radius=1.0)
    evader = EvaderSpec(position=(0.5, 0, 1.5), speed=1.0)
    events = capture_check(
        ([(0, 0, 1)], [(0.5, 0, 1.5)]), ([(0, 0, 1)], [(2.0, 0, 1.5)]),
        [pursuer], [evader], frame_time=3.0, dt=0.5,
    )
    assert [(e.kind, e.pursuer, e.time) for e in events] == [(CAPTURED, 0, 3.0)]
    assert events[0].position == (0.5, 0.0, 1.5)


def test_capture_check_zero_relative_motion_never_captures():
    # The pair distance stays 2, above the radius, when both stand still or
    # move by the same step; the quadratic in the frame parameter is then
    # constant and has no root.
    pursuer = PursuerSpec(position=(0, 0, 1), speed=1.0, capture_radius=1.0)
    evader = EvaderSpec(position=(2, 0, 1), speed=1.0)
    for shift in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.1)):
        moved_p = tuple(c + s for c, s in zip((0, 0, 1), shift))
        moved_e = tuple(c + s for c, s in zip((2, 0, 1), shift))
        events = capture_check(
            ([(0, 0, 1)], [(2, 0, 1)]), ([moved_p], [moved_e]),
            [pursuer], [evader], frame_time=0.0, dt=1.0,
        )
        assert events == []


def test_capture_check_refuses_point_lists_of_the_wrong_length():
    pursuer = PursuerSpec((0, 0, 1), 2.0, 0.1)
    evaders = [EvaderSpec((0, 0, 3), 1.0), EvaderSpec((1, 0, 3), 1.0)]
    here, there, other = (0, 0, 1), (0, 0, 3), (1, 0, 3)
    # Two evader points for the one id 5: the second would go unchecked.
    with pytest.raises(ValueError, match=r"^prev_positions\[1\]: expected 1 "):
        capture_check(([here], [there, other]), ([here], [there, other]),
                      [pursuer], evaders, evader_ids=(5,))
    with pytest.raises(ValueError, match=r"^new_positions\[1\]: expected 1 "):
        capture_check(([here], [there]), ([here], [there, other]),
                      [pursuer], evaders, evader_ids=(5,))
    # One evader point for two evaders: formerly a bare IndexError.
    with pytest.raises(ValueError, match=r"^prev_positions\[1\]: expected 2 "):
        capture_check(([here], [there]), ([here], [there]), [pursuer], evaders)
    with pytest.raises(ValueError, match=r"^new_positions\[1\]: expected 2 "):
        capture_check(([here], [there, other]), ([here], [there]),
                      [pursuer], evaders)
    for prev_p, new_p, name in (([], [here], "prev_positions[0]"),
                                ([here], [here, here], "new_positions[0]")):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}: expected 1 "):
            capture_check((prev_p, [there, other]), (new_p, [there, other]),
                          [pursuer], evaders)
    # Matching lengths still resolve a capture, credited to the given id.
    (event,) = capture_check(([here], [(0, 0, 1.05)]), ([here], [(0, 0, 1.05)]),
                             [pursuer], evaders[:1], evader_ids=(5,))
    assert (event.kind, event.evader, event.pursuer) == (CAPTURED, 5, 0)


#: Vectors that no public call accepts.
BAD_VECTORS = {"nan": (0.0, math.nan, 1.0), "inf": (0.0, 0.0, -math.inf),
               "2-vector": (0.0, 1.0)}


@pytest.mark.parametrize("bad", list(BAD_VECTORS))
def test_public_motion_and_heading_calls_reject_bad_vectors(bad):
    vec = BAD_VECTORS[bad]
    here = (0.0, 0.0, 1.0)
    there = (0.0, 0.0, 3.0)
    pursuers = [PursuerSpec(here, 2.0, 0.1)]
    evaders = [EvaderSpec(there, 1.0)]

    def check(prev_p=here, prev_e=there, new_p=here, new_e=there):
        return capture_check(([prev_p], [prev_e]), ([new_p], [new_e]),
                             pursuers, evaders)

    calls = {
        "step position": lambda: step([vec], [(0.0, 0.0, 1.0)], [1.0], 0.1),
        "step heading": lambda: step([here], [vec], [1.0], 0.1),
        "capture_check previous pursuer": lambda: check(prev_p=vec),
        "capture_check previous evader": lambda: check(prev_e=vec),
        "capture_check new pursuer": lambda: check(new_p=vec),
        "capture_check new evader": lambda: check(new_e=vec),
        "pursuer_heading source": lambda: pursuer_heading(vec, there),
        "pursuer_heading target": lambda: pursuer_heading(here, vec),
        "evader_optimal_heading source": lambda: evader_optimal_heading(vec, here),
        "evader_optimal_heading target": lambda: evader_optimal_heading(there, vec),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError):
            call()
            pytest.fail(name)


def test_engine_moves_a_spec_as_replace_does():
    position = (0.5, -0.25, 2.0)
    for spec in (PursuerSpec((0, 0, 1), 2.0, 0.1), EvaderSpec((1, 2, 3), 1.0)):
        moved = _moved(spec, position)
        expected = replace(spec, position=position)
        assert type(moved) is type(expected)
        assert moved == expected and hash(moved) == hash(expected)
        assert spec.position != position


def test_run_builds_frames_as_init_does():
    trace = run(random_scenario(4, max_pursuers=3, max_evaders=3))
    assert any(frame.matching for frame in trace.frames)
    for frame in (trace.frames[0], trace.frames[1], trace.frames[-1]):
        oracles.assert_same_as_init(frame)


def test_unmatched_pursuer_chases_the_lowest_id_among_equidistant_evaders():
    # The lone pursuer loses alone to either evader, so it is unmatched and
    # chases the nearest live evader; both are exactly as near.
    pursuer = PursuerSpec((0.0, 10.0, 0.5), 1.1, 0.1)
    for left_first in (True, False):
        spots = [(-1.0, 0.0, 0.5), (1.0, 0.0, 0.5)]
        if not left_first:
            spots.reverse()
        scenario = simple_scenario(
            pursuers=(pursuer,),
            evaders=tuple(EvaderSpec(spot, 1.0) for spot in spots),
            evader_policies=("straight", "straight"),
        )
        first = run(scenario).frames[0]
        assert first.matching == ()
        assert first.pursuer_headings == (
            pursuer_heading(pursuer.position, spots[0]),)


def test_clamp_to_ball_pulls_a_leaving_step_back_inside():
    ball = Ball(center=(0, 0, 1), radius=4.5)
    inside = (1.0, 2.0, 0.5)
    kept, pulled = _clamp_to_ball(ball, [inside, (3.0, 4.0, 1.0)])
    assert kept == inside
    # Pulled back along its ray from the centre, just inside the sphere.
    assert pulled == pytest.approx((2.7, 3.6, 1.0), rel=1e-11)
    assert math.dist(pulled, ball.center) == pytest.approx(
        4.5 * (1.0 - 1e-12), rel=1e-15)
    assert ball.g(pulled) > 0.0


def test_nearest_exit_point_outside_the_exit_disk():
    ball = Ball(center=(0, 0, 1), radius=4.5)
    disk_radius = math.sqrt(4.5 * 4.5 - 1.0)
    # Outside the exit disk's cylinder the nearest exit point is on its rim.
    assert _nearest_exit_point(ball, (4.45, 0.0, 1.0)) == pytest.approx(
        (disk_radius, 0.0, 0.0), abs=1e-15)
    rim = _nearest_exit_point(ball, (3.0, 4.0, 2.0))
    assert rim == pytest.approx((0.6 * disk_radius, 0.8 * disk_radius, 0.0),
                                abs=1e-15)
    # Inside it, and in the unbounded region, it lies straight below.
    assert _nearest_exit_point(ball, (1.0, 2.0, 3.0)) == (1.0, 2.0, 0.0)
    assert _nearest_exit_point(UNBOUNDED, (4.45, 0.0, 1.0)) == (4.45, 0.0, 0.0)


def test_run_capture_closed_form():
    # Gap of 2 closes at combined speed 3 down to the 0.2 capture radius.
    trace = run(simple_scenario())
    assert trace.summary == {
        "captured": 1, "reached_goal": 0, "escaped": 0, "survived": 0,
    }
    event = trace.events[0]
    assert event.kind == CAPTURED
    assert event.time == pytest.approx(0.6, abs=1e-9)
    assert event.position[2] == pytest.approx(2.4, abs=1e-9)
    assert event.position[2] > 0.0


def test_run_escape_closed_form():
    # The evader needs one time unit to the plane; the pursuer cannot close
    # its 3-length gap to 0.1 at closing speed 1 in that time.
    scenario = simple_scenario(
        pursuers=(PursuerSpec(position=(0, 0, 4), speed=2.0, capture_radius=0.1),),
        evaders=(EvaderSpec(position=(0, 0, 1), speed=1.0),),
    )
    trace = run(scenario)
    assert trace.summary["reached_goal"] == 1
    assert trace.summary["captured"] == 0
    assert trace.events[0].time == pytest.approx(1.0, abs=1e-9)


def test_run_zero_evaders():
    scenario = Scenario(
        pursuers=(PursuerSpec(position=(0, 0, 1), speed=2.0),),
        evaders=(),
        dt=0.01,
        max_time=1.0,
    )
    trace = run(scenario)
    assert trace.events == []
    assert trace.summary == {
        "captured": 0, "reached_goal": 0, "escaped": 0, "survived": 0,
    }
    assert len(trace.frames) == 1  # terminal snapshot only


def test_random_scenario_redraws_until_valid_and_gives_up(monkeypatch):
    draws = []

    def counted(scenario):
        draws.append(scenario.seed)
        validate_scenario(scenario)

    monkeypatch.setattr(engine, "validate_scenario", counted)
    # No draw puts its players inside a ball this small.
    with pytest.raises(RuntimeError, match="for seed 3$"):
        random_scenario(3, region=Ball((0, 0, 0.05), 0.1))
    assert len(draws) == 1000
    # Some draws put a pursuer within 0.1 of this ball's sphere, or a player
    # outside it; the scenario returned is a later draw of the same seed.
    ball = Ball((0, 0, 1), 3.0)
    draws.clear()
    for seed in range(50):
        scenario = random_scenario(seed, region=ball)
        validate_scenario(scenario)
        assert all(ball.g(p.position) >= 0.1 for p in scenario.pursuers)
    redrawn = {seed for seed in draws if draws.count(seed) > 1}
    assert len(redrawn) == 11, sorted(redrawn)


def test_run_deterministic():
    for seed in (0, 5):
        scenario = random_scenario(seed)
        first = run(scenario)
        second = run(scenario)
        assert first.frames == second.frames
        assert first.events == second.events
        assert first.summary == second.summary


def test_run_stickiness_and_event_invariants():
    for seed in range(6):
        scenario = random_scenario(seed, max_pursuers=4, max_evaders=4)
        trace = run(scenario)
        # Adopted matching size is non-decreasing between captures.
        capture_times = [e.time for e in trace.events if e.kind == CAPTURED]
        previous_size = 0
        for frame in trace.frames[:-1]:
            size = len(frame.matching)
            if any(frame.time >= t > frame.time - scenario.dt for t in capture_times):
                previous_size = size
                continue
            assert size >= previous_size
            previous_size = size
        # Events are time-ordered, one terminal event per evader.
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        terminal = [e.evader for e in trace.events]
        assert len(terminal) == len(set(terminal))
        for event in trace.events:
            if event.kind == CAPTURED:
                assert event.position[2] > -1e-9
        counted = trace.summary["captured"] + trace.summary["reached_goal"]
        counted += trace.summary["escaped"] + trace.summary["survived"]
        assert counted == len(scenario.evaders)


def test_matched_evaders_never_reach_goal():
    # An evader continuously matched to one coalition up to its terminal
    # frame can only end in capture.
    for seed in range(8):
        trace = run(random_scenario(seed, max_pursuers=4, max_evaders=4))
        matched_history: dict[int, list] = {}
        for frame in trace.frames:
            matching = dict((ej, members) for members, ej in frame.matching)
            for ej in {j for j, _ in frame.evader_positions}:
                matched_history.setdefault(ej, []).append(matching.get(ej))
        for event in trace.events:
            if event.kind in (REACHED_GOAL, ESCAPED):
                history = matched_history.get(event.evader, [])
                assert history, "escaping evader must appear in frames"
                assert history[-1] is None, (
                    "evader escaped while matched", event, history[-5:],
                )


def test_run_ball_region():
    scenario = random_scenario(
        11, max_pursuers=3, max_evaders=3,
        region=Ball(center=(0, 0, 1.2), radius=6.0),
    )
    trace = run(scenario)
    ball = scenario.region
    for frame in trace.frames:
        for pos in frame.pursuer_positions:
            assert ball.g(pos) >= -1e-9
        for _, pos in frame.evader_positions:
            assert ball.g(pos) >= -1e-9
    assert trace.summary["reached_goal"] == 0  # ball exits are escapes


def test_validate_scenario_errors():
    good = simple_scenario()
    validate_scenario(good)
    with pytest.raises(ScenarioError, match="dt"):
        validate_scenario(simple_scenario(dt=0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ScenarioError, match="dt"):
            validate_scenario(simple_scenario(dt=bad))
        with pytest.raises(ScenarioError, match="max_time"):
            validate_scenario(simple_scenario(max_time=bad))
    with pytest.raises(ScenarioError, match="policy"):
        validate_scenario(simple_scenario(evader_policies=("teleport",)))
    with pytest.raises(ScenarioError, match="speed"):
        validate_scenario(simple_scenario(
            pursuers=(PursuerSpec(position=(0, 0, 1), speed=1.0),),
        ))
    with pytest.raises(ScenarioError, match="capture radius"):
        validate_scenario(simple_scenario(
            pursuers=(PursuerSpec(position=(0, 0, 2.9), speed=2.0,
                                  capture_radius=0.5),),
        ))
    with pytest.raises(ScenarioError, match="play region"):
        validate_scenario(simple_scenario(
            evaders=(EvaderSpec(position=(0, 0, -1), speed=1.0),),
        ))
    with pytest.raises(ScenarioError, match="coincides"):
        validate_scenario(simple_scenario(
            pursuers=(
                PursuerSpec(position=(0, 0, 1), speed=2.0),
                PursuerSpec(position=(0, 0, 1), speed=2.0),
            ),
        ))
    with pytest.raises(ScenarioError, match="ball"):
        validate_scenario(simple_scenario(
            region=Ball(center=(0, 0, 1), radius=1.5),
            evaders=(EvaderSpec(position=(0, 0, 3), speed=1.0),),
        ))
    with pytest.raises(ScenarioError, match="matcher"):
        validate_scenario(simple_scenario(matcher="greedy"))
    with pytest.raises(ScenarioError, match="rematch_every"):
        validate_scenario(simple_scenario(rematch_every=0))
    with pytest.raises(ScenarioError, match="evader_policies"):
        validate_scenario(simple_scenario(evader_policies=("straight",) * 2))
    with pytest.raises(ScenarioError, match=r"pursuers\[0\].pos: outside the ball"):
        validate_scenario(simple_scenario(
            region=Ball(center=(0, 0, 2), radius=2.5),
            pursuers=(PursuerSpec(position=(3, 0, 1), speed=2.0),),
        ))
    with pytest.raises(ScenarioError, match=r"evaders\[1\].pos: coincides"):
        validate_scenario(simple_scenario(
            evaders=(EvaderSpec(position=(0, 0, 3), speed=1.0),) * 2,
            evader_policies=("straight",) * 2,
        ))


@pytest.mark.parametrize("field, value", [
    ("rematch_every", 2.9), ("seed", True), ("seed", 3.7), ("seed", "3"),
])
def test_scenario_refuses_non_integer_fields(field, value):
    # int() would play these as 2, 1, 3 and 3.
    with pytest.raises(ScenarioError, match=f"^{field}: .*integers"):
        simple_scenario(**{field: value})
    numpy = pytest.importorskip("numpy")
    scenario = simple_scenario(**{field: numpy.int64(2)})
    assert type(getattr(scenario, field)) is int


def test_policies_run_and_random_walk_is_seeded():
    scenario = simple_scenario(
        pursuers=(
            PursuerSpec(position=(0.5, 0, 0.8), speed=2.0, capture_radius=0.25),
            PursuerSpec(position=(-0.5, 0.3, 0.6), speed=2.2, capture_radius=0.2),
        ),
        evaders=(
            EvaderSpec(position=(0, 0, 2.2), speed=1.0),
            EvaderSpec(position=(0.4, -0.3, 2.0), speed=0.9),
        ),
        evader_policies=("optimal", "random-walk"),
        max_time=6.0,
        seed=12,
    )
    first = run(scenario)
    second = run(scenario)
    assert first.frames == second.frames
    assert first.summary["captured"] + first.summary["survived"] + \
        first.summary["reached_goal"] == 2


def test_exact_matcher_scenario():
    scenario = simple_scenario(matcher="exact")
    trace = run(scenario)
    assert trace.summary["captured"] == 1


def test_exact_matcher_falls_back_above_size_guard():
    # Nine fast pursuers under a row of eight evaders: every evader has
    # several winning singles and pairs, so the graph exceeds the exact
    # matcher's guard and the frame takes the sequential matching.
    pursuers = tuple(
        PursuerSpec(position=(0.9 * k - 3.6, 0.0, 0.5), speed=3.0,
                    capture_radius=0.1)
        for k in range(9)
    )
    evaders = tuple(
        EvaderSpec(position=(0.9 * k - 3.2, 0.5, 2.0), speed=1.0)
        for k in range(8)
    )
    graph = build_graph(list(pursuers), list(evaders))
    assert len(graph.edges) > EXACT_EDGE_GUARD
    with pytest.raises(SizeGuardExceeded):
        exact_mbmc(graph)
    expected = tuple(sorted(
        (graph.coalitions[ci], ej) for ci, ej in sequential_matching(graph)
    ))
    trace = run(Scenario(pursuers=pursuers, evaders=evaders, matcher="exact",
                         max_time=0.05))
    assert trace.frames[0].matching == expected


def test_rematch_every_two_keeps_matching_and_resolves_it():
    scenario = replace(random_scenario(7), rematch_every=2)
    trace = run(scenario)
    fresh = 0
    for k in range(1, len(trace.frames) - 1, 2):
        before, frame = trace.frames[k - 1], trace.frames[k]
        # An odd frame does not rematch: it keeps the adopted matching,
        # less the evaders that left the game.
        evader_at = dict(frame.evader_positions)
        assert frame.matching == tuple(m for m in before.matching
                                       if m[1] in evader_at)
        # Its matched pursuers race at a fresh solve of their coalition at
        # the frame's positions.
        pursuers = [replace(p, position=pos) for p, pos
                    in zip(scenario.pursuers, frame.pursuer_positions)]
        for members, ej in frame.matching:
            evader = replace(scenario.evaders[ej], position=evader_at[ej])
            point = solve_interception(members, evader, pursuers,
                                       scenario.region).point
            for i in members:
                assert frame.pursuer_headings[i] == pursuer_heading(
                    frame.pursuer_positions[i], point)
            fresh += 1
    assert fresh > 0


def test_game_path_does_not_load_numpy():
    script = textwrap.dedent("""
        import math
        import random
        import sys

        from reachavoid import (EvaderSpec, PursuerSpec, Scenario,
                                interception, run)
        from lemmas import triple_candidates

        kernel = interception._triple_points
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        interception._triple_points = counted
        # A one-frame 8v8 game with barely faster pursuers, whose build
        # still solves triples: most are decided without a solve, and a
        # full game builds only until its matching is as large as it can be.
        rng = random.Random(37)
        evaders = tuple(
            EvaderSpec(position=(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                 rng.uniform(0.5, 2.5)), speed=1.0)
            for _ in range(8))
        pursuers = []
        while len(pursuers) < 8:
            pursuer = PursuerSpec(
                position=(rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(0.2, 2.2)),
                speed=rng.uniform(1.05, 1.8),
                capture_radius=rng.uniform(0.08, 0.3))
            if all(math.dist(pursuer.position, e.position)
                   > 2 * pursuer.capture_radius for e in evaders):
                pursuers.append(pursuer)
        run(Scenario(pursuers=tuple(pursuers), evaders=evaders,
                     max_time=0.01))
        game_calls = len(calls)
        ring = [PursuerSpec(position=(1.5 * math.cos(2 * math.pi * k / 3),
                                      1.5 * math.sin(2 * math.pi * k / 3),
                                      0.0), speed=2.0)
                for k in range(3)]
        evader = EvaderSpec(position=(0.0, 0.0, 2.0), speed=1.0)
        assert triple_candidates((0, 1, 2), evader, ring)
        print(game_calls, "numpy" in sys.modules)
    """)
    # The package and tests/lemmas.py, which imports nothing but the package.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(tests.parent / "src"), str(tests))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    game_calls, numpy_loaded = done.stdout.split()
    assert int(game_calls) > 0  # the game solved triples
    assert numpy_loaded == "False"


@pytest.mark.parametrize("scenario", [
    random_scenario(0, max_pursuers=4, max_evaders=4),
    # One pursuer against four evaders: the pursuer count bounds the matching.
    random_scenario(6, max_pursuers=4, max_evaders=4),
    random_scenario(0, max_pursuers=4, max_evaders=4,
                    region=Ball(center=(0, 0, 1.2), radius=6.0), matcher="exact"),
    random_scenario(8, max_pursuers=4, max_evaders=4,
                    region=Ball(center=(0, 0, 1.2), radius=6.0), matcher="exact"),
    replace(random_scenario(4, max_pursuers=4, max_evaders=4), rematch_every=2),
    replace(random_scenario(0, max_pursuers=4, max_evaders=4), rematch_every=2),
], ids=["sma", "sma-one-pursuer", "ball-exact", "ball-exact-fewer-pursuers",
        "rematch-2-fewer-pursuers", "rematch-2"])
def test_rematch_is_skipped_only_where_no_matching_could_be_adopted(
        scenario, monkeypatch):
    import reachavoid.engine as engine

    original = engine.build_graph_with_results
    built_at = []

    def recorded(pursuers, *args, **kwargs):
        built_at.append(tuple(p.position for p in pursuers))
        return original(pursuers, *args, **kwargs)

    monkeypatch.setattr(engine, "build_graph_with_results", recorded)
    trace = run(scenario)
    frames = trace.frames[:-1]
    index = {frame.pursuer_positions: k for k, frame in enumerate(frames)}
    built = {index[positions] for positions in built_at}
    assert len(built) == len(built_at)
    every = scenario.rematch_every
    assert 0 in built
    assert all(k % every == 0 for k in built)

    # The first rematch frame after each capture rebuilds.
    captured = {e.evader for e in trace.events if e.kind == CAPTURED}
    for k in range(len(frames) - 1):
        left = ({j for j, _ in frames[k].evader_positions}
                - {j for j, _ in frames[k + 1].evader_positions})
        if left & captured:
            first = -(-(k + 1) // every) * every
            if first < len(frames):
                assert first in built, (k, first)

    # A skipped rematch frame could not have adopted anything: a fresh
    # build and match at its positions is no larger than the kept matching.
    skipped = [k for k in range(0, len(frames), every) if k not in built]
    assert skipped
    for k in skipped:
        frame = frames[k]
        pursuers = [replace(p, position=pos) for p, pos
                    in zip(scenario.pursuers, frame.pursuer_positions)]
        live = [j for j, _ in frame.evader_positions]
        evaders = [replace(scenario.evaders[j], position=pos)
                   for j, pos in frame.evader_positions]
        graph = build_graph(pursuers, evaders, scenario.region, evader_ids=live)
        if scenario.matcher == "exact":
            try:
                pairs = exact_mbmc(graph)
            except SizeGuardExceeded:
                pairs = sequential_matching(graph)
        else:
            pairs = sequential_matching(graph)
        assert len(pairs) <= len(frame.matching), k


@pytest.mark.parametrize("seed", [0, 4, 11])
@pytest.mark.parametrize("region, matcher", [
    (UNBOUNDED, "sma"),
    (Ball(center=(0, 0, 1.2), radius=6.0), "exact"),
], ids=["sma", "ball-exact"])
def test_each_adopted_coalition_is_solved_once_per_frame(
        seed, region, matcher, monkeypatch):
    # The engine's own solve is the one source of an adopted point, so
    # every frame solves each coalition of its matching exactly once.
    import reachavoid.engine as engine

    original = engine.solve_interception
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_interception", counted)
    trace = run(random_scenario(seed, max_pursuers=4, max_evaders=4,
                                region=region, matcher=matcher))
    assert calls == sum(len(f.matching) for f in trace.frames[:-1])

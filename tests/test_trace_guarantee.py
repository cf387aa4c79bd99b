"""The paper's guarantee, audited on the engine's own traces.

An adopted coalition steers at its interception point, so its value (the
altitude of that point) never drops while it stays adopted, whatever the
evader does; and an evader that stays matched until the game ends neither
reaches the goal nor escapes.  Each game below is played by ``engine.run``
and every adopted coalition is re-solved at each frame's recorded
positions.  The games are seeded unbounded ``random_scenario`` games, and
up-to-8v8 exact-matcher games at dt 0.05 in a ball tight enough to bind
some of those solves.  A coalition is adopted only while it wins: in each
frame that matches it to an evader it was not matched to in the frame
before, its solve does not classify as an evader win.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from reachavoid import (
    Ball,
    GameKind,
    classify_result,
    random_scenario,
    run,
    solve_interception,
)

# A drop above this between consecutive frames of one adopted coalition is
# a fault, not rounding: the worst drop measured on these games is ~1e-14.
DROP = 1e-12

GAMES = {
    "unbounded": [random_scenario(seed, max_pursuers=5, max_evaders=5)
                  for seed in range(40)],
    "ball": [random_scenario(seed, max_pursuers=8, max_evaders=8,
                             region=Ball((0.0, 0.0, 1.0), 3.5),
                             matcher="exact", dt=0.05)
             for seed in range(24)],
}


def _audit(scenario):
    """Play ``scenario``, asserting that every adoption wins; return its
    trace, the worst value drop of an adopted coalition between consecutive
    frames, the number of such frame pairs, the number of re-solves with
    the ball active and the number of adoptions."""
    trace = run(scenario)
    worst = 0.0
    pairs = 0
    region_active = 0
    adoptions = 0
    previous = {}
    for frame in trace.frames:
        pursuers = [replace(p, position=position) for p, position in
                    zip(scenario.pursuers, frame.pursuer_positions)]
        positions = dict(frame.evader_positions)
        current = {}
        for members, ej in frame.matching:
            evader = replace(scenario.evaders[ej], position=positions[ej])
            result = solve_interception(members, evader, pursuers,
                                        scenario.region)
            region_active += result.region_active
            current[ej] = (members, result.value)
            if ej in previous and previous[ej][0] == members:
                pairs += 1
                worst = max(worst, previous[ej][1] - result.value)
            else:
                adoptions += 1
                kind = classify_result(result, evader, pursuers,
                                       scenario.region)
                assert kind is not GameKind.EVADER_WINS, (
                    scenario.seed, frame.time, members, ej)
        previous = current
    return trace, worst, pairs, region_active, adoptions


@pytest.mark.parametrize("region", GAMES)
def test_adopted_values_never_drop_and_matched_evaders_never_exit(region):
    worst = 0.0
    pairs = region_active = exits = adoptions = 0
    violations = []
    for scenario in GAMES[region]:
        trace, drop, count, active, adopted = _audit(scenario)
        worst = max(worst, drop)
        pairs += count
        region_active += active
        adoptions += adopted
        # Whether each evader was matched in the last frame it appears in.
        matched_last = {}
        for frame in trace.frames:
            matched = {ej for _, ej in frame.matching}
            for ej, _ in frame.evader_positions:
                matched_last[ej] = ej in matched
        for event in trace.events:
            if event.kind in ("reached_goal", "escaped"):
                exits += 1
                if matched_last[event.evader]:
                    violations.append((scenario.seed, event))
    assert worst <= DROP, worst
    assert violations == []
    # The audit has frames, adoptions, exits and, in the ball, binding
    # solves to judge.
    assert pairs > 1000 and adoptions > 100 and exits > 0, (
        pairs, adoptions, exits)
    assert (region_active > 0) == (region == "ball"), region_active

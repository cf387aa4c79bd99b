"""Fixed-seed game outcomes against a recorded fixture.

Solver refactors must leave the games the engine plays unchanged: the
summary, the number of frames, every frame's matching and each terminal
event's kind, evader and pursuer exactly, and event times and positions to
1e-9.  The fixture ``outcome_corpus.json`` was recorded from the solver
before it gained its direct paths: the first seven games before the
single-active path, the 8v8 game and ball seed 50 before the pair and
triple paths.  Regenerate it only on purpose, with

    PYTHONPATH=src python tests/test_outcome_equivalence.py

and say in the change description why the outcomes moved.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from reachavoid import Ball, random_scenario, run

FIXTURE = Path(__file__).with_name("outcome_corpus.json")
BALL = Ball((0.0, 0.0, 1.0), 4.5)
#: (random_scenario seed, region); ball games use the exact matcher and
#: "unbounded-8v8" games allow up to 8 players a side.  Seed 5 at 8v8 has
#: hundreds of pair-active and a few triple-active solves, and ball seed 50
#: ten with two members and the ball active.
CASES = (
    (4, "unbounded"),
    (7, "unbounded"),
    (8, "unbounded"),
    (14, "unbounded"),
    (5, "unbounded-8v8"),
    (1, "ball"),
    (3, "ball"),
    (21, "ball"),
    (50, "ball"),
)
POSITION_TOLERANCE = 1e-9


def scenario_for(seed: int, region: str):
    if region == "ball":
        return random_scenario(seed, region=BALL, matcher="exact", dt=0.05)
    if region == "unbounded-8v8":
        return random_scenario(seed, max_pursuers=8, max_evaders=8)
    return random_scenario(seed)


def record(seed: int, region: str) -> dict:
    """Outcome of one game: summary, frame count, the frames at which the
    matching changes together with the new matching, and the events."""
    trace = run(scenario_for(seed, region))
    matchings = []
    for index, frame in enumerate(trace.frames):
        matching = [[list(members), ej] for members, ej in frame.matching]
        if not matchings or matchings[-1][1] != matching:
            matchings.append([index, matching])
    return {
        "seed": seed,
        "region": region,
        "summary": trace.summary,
        "frames": len(trace.frames),
        "matchings": matchings,
        "events": [
            {"kind": e.kind, "evader": e.evader, "pursuer": e.pursuer,
             "time": e.time, "position": list(e.position)}
            for e in trace.events
        ],
    }


def _expected() -> dict:
    with open(FIXTURE) as fh:
        return {(case["seed"], case["region"]): case for case in json.load(fh)}


@pytest.mark.parametrize("seed,region", CASES)
def test_outcome_matches_fixture(seed, region):
    expected = _expected()[(seed, region)]
    actual = record(seed, region)
    assert actual["summary"] == expected["summary"]
    assert actual["frames"] == expected["frames"]
    assert actual["matchings"] == expected["matchings"]
    assert len(actual["events"]) == len(expected["events"])
    for got, want in zip(actual["events"], expected["events"]):
        assert (got["kind"], got["evader"], got["pursuer"]) == (
            want["kind"], want["evader"], want["pursuer"])
        assert abs(got["time"] - want["time"]) <= POSITION_TOLERANCE
        assert math.dist(got["position"], want["position"]) <= POSITION_TOLERANCE


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps([record(s, r) for s, r in CASES]) + "\n")

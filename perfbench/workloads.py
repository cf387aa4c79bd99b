"""Seeded scenario corpora for the three benchmark workloads.

Every corpus is drawn up front from the workload seed alone and is never
filtered for solver failures: a seed that trips a solver defect stays in the
corpus and shows up as a failed game.

Team size drives the cost of a game far more than anything else (the graph
build solves up to n_p + C(n_p, 2) + C(n_p, 3) programs per live evader), so
the two full-game workloads are stratified by size.  Each round holds one
game of every (pursuers, evaders) class, filled with the next
``random_scenario`` seed that lands in it, which leaves the scenario
distribution unchanged while making two seeds' corpora cost about the same.
The timed loop only stops at the end of a round.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace

from reachavoid import (
    Ball,
    EvaderSpec,
    PursuerSpec,
    Scenario,
    ScenarioError,
    random_scenario,
    validate_scenario,
)

EVADER_POLICIES = ("straight", "optimal", "random-walk")


def _stratified(name: str, seed: int, rounds: int, n: int, draw):
    """``rounds`` shuffled rounds of one game per (pursuers, evaders) class
    up to ``n`` a side.

    ``draw(sub_seed)`` returns a scenario; every draw lands in some class
    and waits there until a round asks for that class.
    """
    rng = random.Random(f"{name}/{seed}")
    classes = [(p, e) for p in range(1, n + 1) for e in range(1, n + 1)]
    queued: dict[tuple[int, int], list[Scenario]] = {}
    corpus = []
    for _ in range(rounds):
        games = []
        for size in classes:
            while not queued.get(size):
                scenario = draw(rng.getrandbits(48))
                key = (len(scenario.pursuers), len(scenario.evaders))
                queued.setdefault(key, []).append(scenario)
            games.append(queued[size].pop(0))
        rng.shuffle(games)
        corpus.extend(games)
    return corpus


def mixed_5v5(seed: int, rounds: int) -> list[Scenario]:
    """Full ``random_scenario`` games: ≤5v5, unbounded region, sma matcher."""
    return _stratified("mixed-5v5", seed, rounds, 5, random_scenario)


BALL = Ball((0.0, 0.0, 1.0), 4.5)
#: A ball game at the default dt = 0.01 averages ~170 frames and ~0.8 s, too
#: few games for a steady run; a coarser frame keeps the same players, region
#: and matcher in games a fifth as long.
BALL_DT = 0.05


def ball_8v8(seed: int, rounds: int) -> list[Scenario]:
    """Full ≤8v8 ball-region games with the exact matcher."""
    def draw(sub_seed):
        return random_scenario(sub_seed, max_pursuers=8, max_evaders=8,
                               region=BALL, matcher="exact", dt=BALL_DT)

    return _stratified("ball-8v8", seed, rounds, 8, draw)


def _snapshot(rng: random.Random, sub_seed: int) -> Scenario:
    """One 8v8 pose with pursuers only 1.05-1.8x as fast as the fastest
    evader, played for a single frame.

    Slow pursuers make most single-pursuer coalitions lose, so the graph
    build has to solve pairs and triples.
    """
    while True:
        evaders = tuple(
            EvaderSpec(
                position=(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                          rng.uniform(0.5, 2.5)),
                speed=rng.uniform(0.8, 1.2),
            )
            for _ in range(8)
        )
        fastest = max(e.speed for e in evaders)
        pursuers = tuple(
            PursuerSpec(
                position=(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                          rng.uniform(0.2, 2.2)),
                speed=fastest * rng.uniform(1.05, 1.8),
                capture_radius=rng.uniform(0.08, 0.3),
            )
            for _ in range(8)
        )
        scenario = Scenario(
            pursuers=pursuers,
            evaders=evaders,
            dt=0.01,
            max_time=0.01,
            seed=sub_seed,
            evader_policies=tuple(rng.choice(EVADER_POLICIES) for _ in range(8)),
        )
        try:
            validate_scenario(scenario)
        except ScenarioError:
            continue
        return scenario


def dense_snapshots_8v8(seed: int, count: int) -> list[Scenario]:
    """Independent one-frame 8v8 games with barely-faster pursuers."""
    rng = random.Random(f"dense-snapshots-8v8/{seed}")
    return [_snapshot(rng, rng.getrandbits(48)) for _ in range(count)]


@dataclass(frozen=True)
class Workload:
    """How one workload builds its corpus, and which games it plays outside
    the timed loop."""

    name: str
    build: Callable[[int, int], list[Scenario]]
    #: Corpus size: rounds for the stratified workloads, snapshots for the
    #: dense one.  The timed loop cycles the corpus if it runs out.
    size: int
    #: Games per round; the timed loop stops only after a whole round.
    round_games: int
    #: The traced run plays, and the outcome fingerprint covers, this many
    #: leading corpus games, so both repeat exactly for a seed.
    fixed_games: int
    #: Set-up warms up on this many leading corpus games, each cut to
    #: ``warmup_frames`` frames, so its cost does not swing with one game.
    warmup_games: int
    warmup_frames: int

    def corpus(self, seed: int) -> list[Scenario]:
        scenarios = self.build(seed, self.size)
        for scenario in scenarios:
            validate_scenario(scenario)
        return scenarios

    def warmup(self, corpus: list[Scenario]) -> list[Scenario]:
        return [
            replace(s, max_time=min(s.max_time, self.warmup_frames * s.dt))
            for s in corpus[:self.warmup_games]
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed-5v5", mixed_5v5, size=8, round_games=25,
                 fixed_games=25, warmup_games=25, warmup_frames=2),
        Workload("dense-snapshots-8v8", dense_snapshots_8v8, size=300,
                 round_games=1, fixed_games=40, warmup_games=2,
                 warmup_frames=1),
        Workload("ball-8v8", ball_8v8, size=6, round_games=64,
                 fixed_games=32, warmup_games=16, warmup_frames=1),
    )
}

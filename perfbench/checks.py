"""Output checks run on every benchmark game, and a self-check proving they
can fail."""

from __future__ import annotations

from dataclasses import replace

from reachavoid import Ball, Scenario, Trace

OUTCOMES = ("captured", "reached_goal", "escaped", "survived")


def check_trace(scenario: Scenario, trace: Trace) -> list[str]:
    """Violations of the game's output invariants; empty when it is sound.

    - the summary accounts for every evader, and agrees with the events and
      with the evaders still live in the last frame;
    - every frame's matching uses each pursuer and each evader at most once;
    - under the sequential matcher, no evader matched in its final frame
      reaches the goal or escapes (the end-to-end matched-evader guarantee).
    """
    problems = []
    n_e = len(scenario.evaders)
    n_p = len(scenario.pursuers)
    summary = trace.summary
    if sorted(summary) != sorted(OUTCOMES):
        return [f"summary keys {sorted(summary)}"]
    if sum(summary.values()) != n_e:
        problems.append(f"summary {summary} does not account for {n_e} evaders")
    exit_kind = "escaped" if isinstance(scenario.region, Ball) else "reached_goal"
    ended = [event.evader for event in trace.events]
    if len(set(ended)) != len(ended):
        problems.append("an evader has more than one terminal event")
    for kind in ("captured", exit_kind):
        count = sum(event.kind == kind for event in trace.events)
        if count != summary[kind]:
            problems.append(f"{count} {kind} events but summary says {summary[kind]}")
    wrong_exit = "reached_goal" if exit_kind == "escaped" else "escaped"
    if summary[wrong_exit]:
        region = type(scenario.region).__name__
        problems.append(f"{wrong_exit} recorded in a {region} region")
    if trace.frames and len(trace.frames[-1].evader_positions) != summary["survived"]:
        problems.append("survivors in the last frame disagree with the summary")

    last_matched: dict[int, bool] = {}
    for index, frame in enumerate(trace.frames):
        pursuers_used: set[int] = set()
        evaders_used: set[int] = set()
        for members, ej in frame.matching:
            if ej in evaders_used or not 0 <= ej < n_e:
                problems.append(f"frame {index}: evader {ej} matched twice or unknown")
            if pursuers_used & set(members) or not all(0 <= i < n_p
                                                       for i in members):
                problems.append(
                    f"frame {index}: pursuer of {members} shared or unknown")
            evaders_used.add(ej)
            pursuers_used |= set(members)
        for ej, _ in frame.evader_positions:
            last_matched[ej] = ej in evaders_used
    if scenario.matcher == "sma":
        for event in trace.events:
            if event.kind != "captured" and last_matched.get(event.evader):
                problems.append(
                    f"evader {event.evader} was matched in its final frame "
                    f"but {event.kind}"
                )
    return problems


def self_check(scenario: Scenario, trace: Trace) -> list[str]:
    """Corrupt copies of a sound trace with at least two evaders and report
    each corruption that the check meant to catch lets through."""
    first, second = (ej for ej, _ in trace.frames[0].evader_positions[:2])
    shared = replace(trace.frames[0], matching=(((0,), first), ((0,), second)))
    corruptions = (
        ("a frame whose matching shares a pursuer", "pursuer",
         Trace(frames=[shared] + trace.frames[1:], events=trace.events,
               summary=trace.summary)),
        ("a flipped summary count", "summary",
         Trace(frames=trace.frames, events=trace.events,
               summary={**trace.summary,
                        "captured": trace.summary["captured"] + 1})),
    )
    return [
        f"checks accept {name}"
        for name, word, corrupted in corruptions
        if not any(word in problem for problem in check_trace(scenario, corrupted))
    ]

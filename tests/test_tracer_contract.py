"""The benchmark tracer still sees the package's calls.

``perfbench/tracing.py`` times a game by rebinding names in the package's
modules (its ``TARGETS``), and CI pins the counts it sees.  A package
change that renames one of those names, or stops calling it, breaks the
traced benchmark; this test shows that in tier-1.  It reads ``perfbench/``
and changes nothing there.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import reachavoid.cli as cli
import reachavoid.engine as engine
from reachavoid import random_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_tracer_sees_a_game(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    scenario = random_scenario(1, max_pursuers=3, max_evaders=3)
    with tracing.Tracer() as tracer:
        # Called through the modules, as perfbench/run.py calls them.
        cli.trace_to_jsonl(engine.run(scenario))
    names = {span[tracing.NAME] for span in tracer.spans}
    for name in ("engine.run", "matching.build_graph", "interception.solve",
                 "cli.trace_to_jsonl"):
        assert name in names, (name, sorted(names))

"""Benchmark of reachavoid's receding-horizon game loop.

    python3 perfbench/run.py --workload mixed-5v5 --seed 1 --seconds 30 --trace 0

Run from the repository root.  One game is ``engine.run(scenario)`` followed
by ``cli.trace_to_jsonl(trace)`` into memory.

With ``--trace 0`` the workload's corpus is played back to back, untraced,
until ``--seconds`` have passed and the current round of the corpus is
whole.  The end-to-end metrics are reported in wall time scaled to a
reference machine speed.  With ``--trace 1`` a fixed number of corpus games
is played, each once untraced and once with spans around every public call
into the package's modules, and the per-layer metrics are reported.

Every game's output is checked; a violation makes the exit code non-zero.
The last line of standard output is one JSON object with the metrics.  See
NOTES.md for the workloads, the metrics and the scaling.
"""

from __future__ import annotations

import os

# One single-threaded process makes the load; pin BLAS before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: Reported times are wall times scaled to a machine on which the speed
#: probe (``PROBE_STEPS`` steps) takes ``REFERENCE_PROBE_S``; see NOTES.md.
PROBE_STEPS = 8000
REFERENCE_PROBE_S = 0.004

#: Set-up is measured in this process and in this many fresh interpreters;
#: the median is reported.
SETUP_CHILDREN = 2


def prepare(workload: str, seed: int):
    """Import the package, build and validate the corpus and play the
    warm-up games; return the corpus and the wall seconds this took."""
    start = time.perf_counter()
    import reachavoid.cli as cli
    import reachavoid.engine as engine
    from reachavoid import SolverFailure
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    corpus = spec.corpus(seed)
    for scenario in spec.warmup(corpus):
        try:
            cli.trace_to_jsonl(engine.run(scenario))
        except SolverFailure:
            pass  # the full game is played, and counted, in the timed loop
    return corpus, time.perf_counter() - start


def setup_sample(workload: str, seed: int) -> float:
    """Scaled set-up seconds measured in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


class Game:
    """Outcome of one played game."""

    __slots__ = ("trace", "text", "frames", "seconds", "failure", "scale")

    def __init__(self, trace, text, frames, seconds, failure):
        self.trace = trace
        self.text = text
        self.frames = frames
        self.seconds = seconds
        self.failure = failure
        #: Factor from wall time to scaled time (see :func:`probe`).
        self.scale = 1.0


def play(scenario) -> Game:
    # Looked up on the modules at call time, so the tracer's rebinding applies.
    import reachavoid.cli as cli
    import reachavoid.engine as engine
    from reachavoid import SolverFailure

    start = time.perf_counter()
    try:
        trace = engine.run(scenario)
        text = cli.trace_to_jsonl(trace)
    except SolverFailure as exc:
        seconds = time.perf_counter() - start
        return Game(None, None, len(exc.partial_trace.frames), seconds, str(exc))
    seconds = time.perf_counter() - start
    return Game(trace, text, len(trace.frames) - 1, seconds, None)


def outcome(game: Game) -> bytes:
    """What a game produced: its JSONL trace, or its failure."""
    if game.failure is None:
        return game.text.encode()
    return f"SolverFailure: {game.failure}\n".encode()


class Audit:
    """Checks every game and folds the leading games into the outcome
    fingerprint, so no trace outlives its check."""

    def __init__(self, corpus, fingerprint_games: int):
        from checks import check_trace, self_check

        self._check_trace = check_trace
        self._self_check = self_check
        self.corpus = corpus
        self.fingerprint_games = min(fingerprint_games, len(corpus))
        self.violations: list[str] = []
        self.failures: list[dict] = []
        self._first: bytes | None = None
        self._digest = hashlib.sha256()
        self._totals = dict.fromkeys(
            ("frames", "captured", "reached_goal", "escaped", "survived"), 0)
        self._folded = 0
        self._self_checked = False

    def record(self, index: int, game: Game) -> None:
        if index == 0:
            self._first = outcome(game)
        if index == self._folded < self.fingerprint_games:
            self._digest.update(outcome(game))
            self._totals["frames"] += game.frames
            if game.failure is None:
                for kind, count in game.trace.summary.items():
                    self._totals[kind] += count
            self._folded += 1
        if game.failure is not None:
            self.failures.append({"game": index, "frames": game.frames,
                                  "message": game.failure})
            return
        scenario = self.corpus[index % len(self.corpus)]
        for problem in self._check_trace(scenario, game.trace):
            self.violations.append(f"game {index}: {problem}")
        if not self._self_checked and len(scenario.evaders) >= 2:
            self._self_checked = True
            self.violations.extend(self._self_check(scenario, game.trace))

    def finish(self) -> dict:
        """Play any fingerprint games the run did not reach, rerun the first
        game, and return the fingerprint."""
        while self._folded < self.fingerprint_games:
            self.record(self._folded, play(self.corpus[self._folded]))
        if outcome(play(self.corpus[0])) != self._first:
            self.violations.append("rerun of game 0 gives a different trace")
        if not self._self_checked:
            self.violations.append("no sound game with two evaders to self-check on")
        return {"games": self.fingerprint_games,
                "sha256": self._digest.hexdigest(), **self._totals}


def tail(samples):
    """(percentile, value) at the highest percentile with at least ten
    samples beyond it: the eleventh largest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _probe_step(v, i):
    x, y, z = v
    return (y * 0.5 + 0.1, z * 0.25 + math.sqrt(abs(x) + 1.0), x - 1e-3 * i)


class _ProbeNode:
    __slots__ = ("key", "value", "kids")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.kids = []

    def total(self):
        return self.value + sum(kid.total() for kid in self.kids)


def probe() -> float:
    """Seconds taken by a fixed pure-Python workload of float, tuple,
    method-call and dict work, the kind the solver and engine do; a gauge of
    the machine's current speed.  The collector is paused so that the
    benchmark's own heap does not show up as machine speed."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    v = (0.1, 0.2, 0.3)
    for i in range(PROBE_STEPS):
        v = _probe_step(v, i)
    for _ in range(PROBE_STEPS // 400):
        nodes = [_ProbeNode(0, 1.0)]
        for i in range(1, 60):
            node = _ProbeNode(i, 0.5 * i)
            nodes[7 * i % len(nodes)].kids.append(node)
            nodes.append(node)
        index = {node.key: node for node in nodes}
        v = (v[0] + nodes[0].total() + len(index), v[1], v[2])
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def timed_loop(corpus, audit: Audit, seconds: float, round_games: int):
    """Play corpus games back to back, with the speed probe between them,
    until ``seconds`` have passed and a round of ``round_games`` is whole."""
    games = []
    before = probe()
    deadline = time.perf_counter() + seconds
    while not games or len(games) % round_games or time.perf_counter() < deadline:
        index = len(games)
        game = play(corpus[index % len(corpus)])
        after = probe()
        game.scale = REFERENCE_PROBE_S / min(before, after)
        before = after
        audit.record(index, game)
        game.trace = game.text = None
        games.append(game)
    return games


def end_to_end(games, setup_samples):
    frames = sum(g.frames for g in games)
    busy = sum(g.seconds for g in games)
    scaled = sum(g.seconds * g.scale for g in games)
    per_frame = [1e3 * g.seconds * g.scale / g.frames for g in games
                 if g.failure is None and g.frames]
    wall_per_frame = [1e3 * g.seconds / g.frames for g in games
                      if g.failure is None and g.frames]
    q, tail_ms = tail(per_frame)
    failed = sum(g.failure is not None for g in games)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "frames_per_s": (frames / scaled, "1/s", len(games),
                         f"{frames} frames in {scaled:.3f} scaled s of games"),
        "frame_ms_p50": (statistics.median(per_frame), "ms", len(per_frame),
                         "median over games"),
        "frame_ms_tail": (tail_ms, "ms", len(per_frame), f"p{q:.1f} over games"),
        "wall_frames_per_s": (frames / busy, "1/s", len(games), "unscaled"),
        "wall_frame_ms_p50": (statistics.median(wall_per_frame), "ms",
                              len(wall_per_frame), "unscaled"),
        "wall_frame_ms_tail": (tail(wall_per_frame)[1], "ms",
                               len(wall_per_frame), "unscaled"),
        "machine_speed": (statistics.median(g.scale for g in games), "ratio",
                          len(games), "median reference / probe time"),
        "failed_ratio": (failed / len(games), "ratio", len(games),
                         f"{failed} of {len(games)} games raised SolverFailure"),
        "peak_rss_mb": (rss_mb, "MB", 1, "ru_maxrss of this process"),
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples),
                    "median of scaled set-ups"),
    }


def traced(corpus, audit: Audit, count: int, run_label: str):
    """Play ``count`` corpus games, each once untraced and then once traced,
    so both plays of a game meet the same machine state."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain, spanned = [], []
    for index in range(count):
        game = play(corpus[index % len(corpus)])
        audit.record(index, game)
        with tracer:
            again = play(corpus[index % len(corpus)])
        if outcome(again) != outcome(game):
            audit.violations.append(f"game {index}: tracing changed the trace")
        plain.append(game)
        spanned.append(again)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{run_label}.spans.jsonl")
    frames = sum(g.frames for g in spanned)
    metrics = layer_metrics(
        tracer,
        traced_wall_s=sum(g.seconds for g in spanned),
        frames=frames,
        trace_bytes=sum(len(g.text) for g in spanned if g.text is not None),
        untraced_fps=frames / sum(g.seconds for g in plain),
    )
    return spanned, {name: (value, unit, count, "")
                     for name, (value, unit) in metrics.items()}


def git_commit() -> str:
    """HEAD of the repository, read from .git; the checkout may have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(trace: bool) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "traced": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "reachavoid" / "__init__.py").is_file():
        print(f"error: no reachavoid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    spec = WORKLOADS[args.workload]

    corpus, setup_s = prepare(args.workload, args.seed)
    setup_s *= REFERENCE_PROBE_S / min(probe() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    audit = Audit(corpus, spec.fixed_games)
    run_label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        games, metrics = traced(corpus, audit, spec.fixed_games, run_label)
    else:
        setups = [setup_s] + [setup_sample(args.workload, args.seed)
                              for _ in range(SETUP_CHILDREN)]
        games = timed_loop(corpus, audit, args.seconds, spec.round_games)
        metrics = end_to_end(games, setups)
    fingerprint = audit.finish()

    correct = not audit.violations
    failed = sum(g.failure is not None for g in games)
    env = environment(bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"games {len(games)} failed {failed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n, note) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:11s} n={n} {note}".rstrip())
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for failure in audit.failures:
        print(f"failed game {failure['game']} after {failure['frames']} frames: "
              f"{failure['message']}")
    for problem in audit.violations:
        print(f"VIOLATION {problem}")

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{run_label}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "fingerprint": fingerprint,
        "metrics": {name: {"value": value, "unit": unit, "n": n, "note": note}
                    for name, (value, unit, n, note) in metrics.items()},
        "failures": audit.failures, "violations": audit.violations,
        "games": [[g.frames, g.seconds] for g in games],
    }, sort_keys=True) + "\n")

    with open(ROOT / "BENCHMARK.json") as fh:
        reported = [m["name"] for m in
                    json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct,
        "attempted": len(games),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

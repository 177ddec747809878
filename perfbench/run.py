"""End-to-end benchmark of ``atmod check`` and ``atmod model``.

Usage, from the repository root:

    python3 perfbench/run.py --workload line-check --seed 1 --seconds 30 \\
        --trace 0

Each workload feeds generated theory files, one at a time, to
``atmod.cli.main`` in this process and on this thread (a closed loop
with one client): the next input is written only after the previous
verdict has returned.  Every output is checked against a known answer.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced inputs with inputs traced at the
public functions of every layer and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Host speed.  On a shared machine the speed of every process drifts, by
up to a factor of two over minutes, so raw seconds from runs made minutes
apart do not compare.  Between inputs, outside the timed region, the run
times a fixed pure-Python reference task for a share of the last input's
wall time, and each input's seconds are scaled to the speed at which
that task takes REFERENCE_S:

    seconds x REFERENCE_S / (mean reference seconds just before and
                             just after the input)

The end-to-end times (``verdict_s.*``, ``theories_per_s`` and
``setup_s``, whose import samples are scaled the same way) are these
scaled seconds; the raw ones are printed on the lines above the result.
A change to the program moves the scaled times as it moves the raw
ones, since the reference task does not call the program.

Workloads (the program sees only the generated files):

- line-check: renamed, reshuffled line-6 theories (7 fluents), run as
  ``check FILE --format json``; seconds of repeated work per verdict.
- random-check: distinct small random theories (at most 4 fluents,
  3 actions, 3 laws of each kind), ``check FILE --format json``; many
  cheap cold verdicts, where fixed per-input costs show.
- wide-model: 9-fluent theories with narrow dependence and one static
  clause, ``model FILE``; time goes to the possible-worlds oracle.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The seed whose random-check reports were recorded in random_digests.json.
DIGEST_SEED = 1
SETUP_SAMPLES = 15
REFERENCE_S = 0.0016
REFERENCE_SHARE = 0.15
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import atmod.cli; "
                 "print(time.perf_counter() - t)")

END_TO_END = (("verdict_s.p50", "s"), ("verdict_s.p90", "s"),
              ("theories_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


class Workload:
    """One workload: its input stream, command line and answer check."""

    def __init__(self, name, seed, trace=False):
        import check
        import gen
        from atmod import kernels
        from atmod.theory import parse_theory

        self.name = name
        # A traced run alternates untraced and traced inputs; giving each
        # pair one shape makes the two halves time the same mix of work.
        self.stream = gen.STREAMS[name](seed, repeat=2 if trace else 1)
        self._check = check
        self._parse = parse_theory
        self._backend = kernels.BACKEND
        # The digests are of the untraced stream; a traced run's inputs
        # differ from it after the first.
        self._digests = check.load_digests() if name == "random-check" \
            and seed == DIGEST_SEED and not trace else []

    def argv(self, path):
        if self.name == "wide-model":
            return ["model", path]
        return ["check", path, "--format", "json"]

    def verify(self, k, theory, output, code):
        check = self._check
        if self.name == "line-check":
            return check.check_line(output, code, theory)
        if self.name == "random-check":
            expected = self._digests[k] if k < len(self._digests) else None
            return check.check_random(output, code, theory, expected,
                                      self._backend)
        return check.check_model(output, code, self._parse(theory.text))


def run_one(argv):
    """One verdict through the command line entry point: (seconds, exit
    code, stdout), or an exception message in place of the exit code."""
    from atmod import cli

    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a traceback counts as a failed input
        code = "raised %s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - start, code, out.getvalue()


def import_seconds():
    """Seconds a fresh interpreter takes to import atmod.cli."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def reference_task():
    """A fixed pure-Python task of the kind of work the program does
    (frozensets, sets, dicts, sorting); about 1.6 ms on a 2-vCPU VM."""
    seen = set()
    total = 0
    for i in range(2000):
        clause = frozenset((i % 17, -(i % 13), i % 7))
        if clause not in seen:
            seen.add(clause)
        total += len(clause)
    counts = {}
    for clause in seen:
        for literal in sorted(clause):
            counts[literal] = counts.get(literal, 0) + 1
    return total + len(counts)


def reference_seconds(budget):
    """Mean seconds of the reference task, run at least once and until
    ``budget`` seconds have been spent on it."""
    spent, reps = 0.0, 0
    while reps == 0 or spent < budget:
        start = time.perf_counter()
        reference_task()
        spent += time.perf_counter() - start
        reps += 1
    return spent / reps


class SetupProbe:
    """Samples the import time of fresh processes throughout a run.

    Imports take tens of milliseconds, so a few back-to-back samples
    would all land in one phase of a shared machine's speed; spreading
    them between inputs makes their median as steady as the verdicts'.
    Each sample is scaled by the reference task timed right after it.
    One discarded import first writes the bytecode caches, so every
    sample is a warm import.
    """

    def __init__(self, seconds):
        import_seconds()
        self.every = seconds / SETUP_SAMPLES
        self.raw = []
        self.scaled = []
        self.last = None

    def _sample(self):
        raw = import_seconds()
        self.raw.append(raw)
        self.scaled.append(raw * REFERENCE_S / reference_seconds(raw))
        self.last = time.perf_counter()

    def tick(self):
        if self.last is None \
                or time.perf_counter() - self.last >= self.every:
            self._sample()

    def finish(self):
        while len(self.raw) < SETUP_SAMPLES:
            self._sample()


def environment():
    from atmod import kernels

    return {"backend": kernels.BACKEND,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "ATMOD_MAX_ATOMS": os.environ.get("ATMOD_MAX_ATOMS")}


def timed_pass(workload, workdir, seconds, tracer=None, between=None):
    """Run inputs until their verdicts add up to ``seconds``.

    Returns (wall times, traced wall times, per-layer totals of the traced
    inputs, failures).  With a tracer, inputs alternate untraced/traced.
    ``between(wall)`` is called after each input, outside the timed
    region.
    """
    import spans

    walls, traced_walls, failures = [], [], []
    totals = {}
    spent = 0.0
    for k, theory in enumerate(workload.stream):
        traced = tracer is not None and k % 2 == 1
        if spent >= seconds and not traced:
            break
        path = os.path.join(workdir, "input.at")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(theory.text)
        if traced:
            tracer.install()
            try:
                wall, code, output = run_one(workload.argv(path))
            finally:
                tracer.uninstall()
            for key, value in spans.aggregate(tracer).items():
                totals[key] = totals.get(key, 0) + value
            tracer.clear()
            traced_walls.append(wall)
        else:
            wall, code, output = run_one(workload.argv(path))
            walls.append(wall)
        spent += wall
        if between is not None:
            between(wall)
        problem = code if isinstance(code, str) \
            else workload.verify(k, theory, output, code)
        if problem:
            failures.append("%s: %s" % (theory.name, problem))
    return walls, traced_walls, totals, failures


def timing_metrics(walls):
    """Median, 90th percentile and rate of per-input seconds."""
    return {"verdict_s.p50": statistics.median(walls),
            "verdict_s.p90": (statistics.quantiles(
                walls, n=10, method="inclusive")[8]
                if len(walls) > 1 else walls[0]),
            "theories_per_s": len(walls) / sum(walls)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("line-check", "random-check", "wide-model"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "atmod", "cli.py")):
        print("error: no atmod sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import atmod.cli  # noqa: F401  (set-up of this process)
    import spans

    workload = Workload(args.workload, args.seed, args.trace)
    tracer = spans.Tracer() if args.trace else None
    setup = between = None
    reference = []    # reference seconds before the first input, after each
    if not args.trace:
        setup = SetupProbe(args.seconds)
        reference_task()
        reference.append(reference_seconds(REFERENCE_SHARE))

        def between(wall):
            reference.append(reference_seconds(REFERENCE_SHARE * wall))
            setup.tick()
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as workdir:
        walls, traced_walls, totals, failures = timed_pass(
            workload, workdir, args.seconds, tracer, between)
    attempted = len(walls) + len(traced_walls)

    if args.trace:
        count = len(traced_walls)
        metrics = {name: {"value": value / count, "unit": _unit(name)}
                   for name, value in sorted(totals.items())}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.mean(traced_walls) / statistics.mean(walls),
            "unit": "ratio"}
    else:
        setup.finish()
        scaled = [wall * 2 * REFERENCE_S / (before + after) for wall, before,
                  after in zip(walls, reference, reference[1:])]
        values = dict(timing_metrics(scaled),
                      setup_s=statistics.median(setup.scaled),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        raw = dict(timing_metrics(walls),
                   setup_s=statistics.median(setup.raw))
        print("raw (unscaled) %s" % " ".join(
            "%s=%.6g" % item for item in sorted(raw.items())))
        print("reference task median %.6g s (scaled to %g s)"
              % (statistics.median(reference), REFERENCE_S))

    for problem in failures[:20]:
        print("FAILED %s" % problem)
    print("env %s" % json.dumps(dict(environment(), workload=args.workload,
                                     seed=args.seed, trace=args.trace,
                                     inputs=attempted), sort_keys=True))
    print("error_rate %.6f (%d of %d)" % (len(failures) / attempted,
                                           len(failures), attempted))
    for name, metric in metrics.items():
        print("%-48s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

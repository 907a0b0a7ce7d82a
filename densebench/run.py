"""Run one densemodal benchmark workload and print its metrics.

    python3 densebench/run.py --workload kde_solve --seed 1 --seconds 20 --trace 0

One client, one thread, closed loop: the next op starts when the previous
one has returned.  Every op goes through `densemodal.cli.main(argv)`
in-process, and every answer is checked independently outside the timed
op.  With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` the same ops are run again, traced, in freshly imported
modules, and the last line holds the per-layer metrics.
"""

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Import the benchmark as a package from the checkout root, so that its
    # modules (trace.py among them) never shadow the standard library.
    sys.path[0] = ROOT

from densebench import calibrate, layers  # noqa: E402
from densebench.checks import Checker  # noqa: E402
from densebench.ops import execute, install_deadline  # noqa: E402
from densebench.program import Program  # noqa: E402
from densebench.trace import Tracer  # noqa: E402
from densebench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".densebench_out")
# Cold set-ups per run, spread evenly over the run's op time.
SETUP_PROBES = 7
# One sample of the reference load per this many CPU seconds of op time.
CALIBRATE_EVERY = 0.25
# The traced pass gives every op that answered untraced this many times its
# deadline, so tracing overhead cannot turn an answer into a timeout; an op
# that timed out keeps its deadline, and tracing only slows it further.
TRACE_SLACK = 3.0


def setup(prog, workload, seed: int):
    """Import the program and generate and render the first round of inputs."""
    prog.load()
    stream = workload.stream(random.Random(seed), prog)
    return next(stream), stream


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup(workload: str, seed: int) -> float:
    """One cold set-up, in CPU seconds.

    A fresh interpreter runs this script with `--setup-only`: it starts,
    imports the program, generates and renders the first round of inputs,
    reports that it is ready for the first op and exits at once, without
    tearing down.  Nothing is cached from this process, so the time
    includes the interpreter's own start-up and every import, as a CLI
    user sees them.  It is the child's CPU time (user and system), which,
    like op latency, does not count time the host gave to other tenants.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    before = _children_cpu()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"the set-up probe failed with exit code {child.returncode}")
    return _children_cpu() - before


class Runner:
    def __init__(self, prog, workload, model_path: str) -> None:
        self.prog = prog
        self.workload = workload
        self.model_path = model_path
        self.checker = Checker(prog)
        self.spent = 0.0  # CPU seconds of op time so far; checks are not counted

    def run(self, ops, slack=None, tracer=None):
        """Run and check each op; returns (outcome, failure or None) pairs.

        `slack`, when given, holds one multiplier of the deadline per op.
        """
        results = []
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.start_op(index)
            deadline = self.workload.deadlines[op.slice] * (slack[index] if slack else 1.0)
            outcome = execute(self.prog, op, deadline, self.model_path)
            self.spent += outcome.cpu
            results.append((outcome, self.checker.check(op, outcome)))
        return results


def timed_rounds(first, stream, seconds: float, clock):
    """Yield the ops of whole rounds until `seconds` of CPU time went into ops.

    A round that has started is finished, so every run has the same mix of
    slices; a run measures at most one round more than `seconds`.
    """
    batch = first
    while clock() < seconds:
        yield from batch
        batch = next(stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    install_deadline()

    prog = Program(ROOT)
    try:
        first, stream = setup(prog, workload, args.seed)
    except ImportError as exc:
        print(f"densebench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        os._exit(0)

    os.makedirs(OUT_DIR, exist_ok=True)
    model_path = os.path.join(OUT_DIR, f"model-{os.getpid()}.json")
    try:
        return _measure(args, workload, prog, first, stream, model_path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(model_path)


def _measure(args, workload, prog, first, stream, model_path) -> int:
    runner = Runner(prog, workload, model_path)
    ops = []
    setups = []
    gauge = []

    def probe(spent: float) -> None:
        # Set-up probes and samples of the reference load run between ops,
        # at evenly spaced marks of op time, so that they see the host at
        # the speeds the ops saw.
        while len(setups) < SETUP_PROBES and spent >= args.seconds * len(setups) / SETUP_PROBES:
            setups.append(probe_setup(workload.name, args.seed))
        while spent >= CALIBRATE_EVERY * len(gauge):
            gauge.append(calibrate.sample())

    def counted():
        for op in timed_rounds(first, stream, args.seconds, lambda: runner.spent):
            probe(runner.spent)
            ops.append(op)
            yield op
        probe(args.seconds)

    results = runner.run(counted())
    # How much slower than at the reference speed the host ran: every
    # timing below is divided by it (see calibrate.py).
    slowdown = statistics.median(gauge) / calibrate.REFERENCE_S
    latencies = [o.cpu * 1000 / slowdown for o, _ in results]
    failures = [(i, f) for i, (_, f) in enumerate(results) if f is not None]
    attempted, failed = len(results), len(failures)
    for i, failure in failures:
        print(f"FAILED op {i} {ops[i].describe()}: {failure}")

    correct = all(failure.startswith("timeout") for _, failure in failures)
    if args.trace:
        metrics, trace_ok = _traced(workload, prog, ops, results, model_path)
        correct = correct and trace_ok
        report = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        op_time = runner.spent
        ok = attempted - failed
        values = {
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
            "ops_per_s": (ok * slowdown / op_time, "1/s"),
            "ok_frac": (ok / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups) / slowdown, "s"),
        }
        print(f"workload {workload.name} seed {args.seed}: {attempted} ops attempted, {failed} failed "
              f"(failed_frac {failed / attempted:.4f}), {op_time:.2f} CPU s of op time, "
              f"{sum(o.elapsed for o, _ in results):.2f} s wall")
        print(f"host slowdown {slowdown:.4f}: median of {len(gauge)} reference samples "
              f"{statistics.median(gauge) * 1000:.3f} ms against {calibrate.REFERENCE_S * 1000:g} ms; "
              f"every time below is divided by it, the per-slice rows are not")
        _print_slices(workload, ops, results)
        counts = {"op_p50_ms": attempted, "op_p90_ms": attempted, "ops_per_s": attempted,
                  "ok_frac": attempted, "peak_rss_mb": 1, "setup_s": len(setups)}
        raw = {"op_p50_ms": slowdown, "op_p90_ms": slowdown, "ops_per_s": 1 / slowdown, "setup_s": slowdown}
        for name, (value, unit) in values.items():
            measured = f"  measured {value * raw[name]:.4f}" if name in raw else ""
            print(f"  {name:12s} {value:12.4f} {unit:6s} ({counts[name]} samples){measured}")
        report = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


def _print_slices(workload, ops, results) -> None:
    by_slice: dict = {}
    for op, (outcome, failure) in zip(ops, results):
        by_slice.setdefault(op.slice, []).append((outcome.cpu * 1000, failure is not None, outcome.elapsed))
    for name, rows in by_slice.items():
        times = sorted(t for t, _, _ in rows)
        print(f"  slice {name:8s} {len(rows):5d} ops {sum(f for _, f, _ in rows):4d} failed  "
              f"p50 {statistics.median(times):9.3f} ms  max {times[-1]:9.3f} ms  "
              f"wall {sum(w for _, _, w in rows):7.3f} s  deadline {workload.deadlines[name]:g} s")


def _traced(workload, prog, ops, results, model_path):
    """Rerun the same ops traced, in fresh modules; compare every output."""
    prog.load()
    runner = Runner(prog, workload, model_path)
    tracer = Tracer()
    layers.install(tracer, prog, runner.checker)
    slack = [TRACE_SLACK if plain.status == "ok" else 1.0 for plain, _ in results]
    try:
        traced = runner.run(ops, slack, tracer)
    finally:
        tracer.restore()
    ok = True
    plain_time = traced_time = 0.0
    for i, ((plain, _), (again, failure)) in enumerate(zip(results, traced)):
        if failure is not None and not failure.startswith("timeout"):
            ok = False
            print(f"FAILED traced op {i} {ops[i].describe()}: {failure}")
        if plain.status == again.status == "ok":
            if plain.summary() != again.summary():
                ok = False
                print(f"TRACE MISMATCH op {i} {ops[i].describe()}: the outputs differ")
            plain_time += plain.cpu
            traced_time += again.cpu
        elif plain.status != again.status:
            # A timing effect, not an answer that changed: an op that ran
            # close to its deadline answered in one pass only.
            print(f"TRACE TIMING op {i} {ops[i].describe()}: {plain.status} untraced, {again.status} traced")
    ratio = traced_time / plain_time if plain_time else 0.0
    metrics = layers.metrics(tracer, [o for o, _ in traced], ratio)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}.tsv")
    tracer.write(spans_path)
    print(f"traced {len(ops)} ops, {len(tracer.spans)} spans written to {spans_path}")
    if tracer.missing:
        print(f"call sites not found, so not traced: {', '.join(tracer.missing)}")
    for name, unit, _ in layers.PER_LAYER:
        print(f"  {name:42s} {metrics[name]:14.4f} {unit}")
    return metrics, ok


if __name__ == "__main__":
    sys.exit(main())

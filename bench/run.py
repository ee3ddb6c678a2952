#!/usr/bin/env python3
"""Benchmark of the tbe command line on seeded, oracle-checked workloads.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --quick

One run drives ``tbe.cli.main(argv)`` in-process on an instance made
from ``--seed``: a closed loop with one client and one op at a time,
repeating the workload's cycle of ops (one op, or three on
``dense_exact``) for ``--seconds`` seconds of op time.  Every op's exit code and
outputs are checked against oracles that never call the program, and
repeated ops must write byte-identical artifacts.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The
traced run alternates untraced cycles with cycles whose layer calls
are wrapped by ``tracer.Tracer`` and writes its spans to
``.benchrun/trace-WORKLOAD-SEED.json``.

``setup_s`` is the median over three cold set-ups (this process and two
fresh child processes), each timing the import of numpy and tbe,
instance generation and one warm-up cycle.  ``--workload all`` runs
every workload in its own process and prints a table.  ``--quick`` runs
one checked cycle per workload and shows that the oracles catch a
perturbed HUBO coefficient, a wrong decoded assignment and other
planted faults.

BLAS is held to one thread, so a run never has more threads than the
machine's two cores.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchrun"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10
MAX_MESSAGES = 5


def import_cli():
    """``tbe.cli.main`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("tbe.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bench: imported tbe from {cli.__file__}, not from {SRC}")
    return cli.main


def call_main(main, argv: list[str]):
    """One CLI op; returns its exit code (or the exception it raised) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught error is a failed op, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue()


class Step:
    """One op of a workload's cycle: its command line, output paths and first result."""

    def __init__(self, op, cfn_path: Path, workdir: Path, seed: int):
        self.op = op
        self.argv = op.argv(str(cfn_path), str(workdir), seed)
        self.paths = {name: workdir / f"{op.name}.{name}.out" for name in op.outputs}
        self.reference: tuple[dict, object] | None = None

    def read_outputs(self) -> dict[str, bytes]:
        return {name: path.read_bytes() for name, path in self.paths.items()}


class Runner:
    """Runs and checks the op cycle of one workload against one instance."""

    def __init__(self, workload, seed: int, workdir: Path):
        from workloads import Context

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inst = workload.generate(seed)
        cfn_path = workdir / "input.cfn.json"
        cfn_path.write_text(self.inst.cfn_json(), encoding="utf-8")
        self.steps = [Step(op, cfn_path, workdir, seed) for op in workload.ops]
        self.ctx = Context(self.inst, seed)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.gaps: list[float] = []

    def cycle(self, main, wrap=None) -> list[float]:
        """Run every op once; return the seconds each op took, checks excluded."""
        return [self.run(step, main, wrap) for step in self.steps]

    def run(self, step: Step, main, wrap=None) -> float:
        """Run one op, check it outside the timed region, return its seconds."""
        for path in step.paths.values():
            path.unlink(missing_ok=True)
        gc.collect()
        start = time.perf_counter()
        rc, err = wrap(call_main, main, step.argv) if wrap else call_main(main, step.argv)
        seconds = time.perf_counter() - start
        files = {}
        if rc == 0:
            try:
                files = step.read_outputs()
            except OSError as exc:
                rc = f"missing output: {exc}"
        self.record(step, self.judge(step, rc, err, files))
        return seconds

    def judge(self, step: Step, rc, err: str, files: dict[str, bytes]) -> list[str]:
        """Problems with one op's result; empty when it is correct."""
        if rc != 0:
            return [f"exit {rc!r}: {err.strip()[-300:]}"]
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        problems = []
        if step.reference is not None and digests == step.reference[0]:
            outcome = step.reference[1]
        else:
            if step.reference is not None:
                problems += [
                    f"{name}: bytes differ from the first op's"
                    for name in digests
                    if digests[name] != step.reference[0].get(name)
                ]
            try:
                outcome = step.op.check(self.ctx, files)
            except Exception as exc:  # malformed output is a failed check
                return problems + [f"check raised {type(exc).__name__}: {exc}"]
            if step.reference is None:
                step.reference = (digests, outcome)
        if outcome.opt_gap is not None:
            self.gaps.append(outcome.opt_gap)
        return problems + outcome.failures

    def record(self, step: Step | None, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            where = f"{step.op.name}: " if step else ""
            self.messages += [where + p for p in problems[: MAX_MESSAGES - len(self.messages)]]

    @property
    def model_vars(self) -> int:
        return max((s.reference[1].model_vars for s in self.steps if s.reference), default=0)


def set_up(name: str, seed: int, workdir: Path):
    """Cold set-up: import, instance generation and one warm-up cycle.

    The warm-up ops are checked like any other, but their checks are not timed.
    """
    start = time.perf_counter()
    main = import_cli()
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[name], seed, workdir)
    before_ops = time.perf_counter() - start
    return main, runner, before_ops + sum(runner.cycle(main))


def child_setups(name: str, seed: int, count: int) -> tuple[list[float], list[str]]:
    """Set-up seconds measured in ``count`` fresh processes, one after another."""
    times, problems = [], []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append("set-up child timed out")
            continue
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            doc = {}
        if proc.returncode != 0 or not doc.get("ok"):
            problems.append(f"set-up child failed: {proc.stderr.strip()[-300:]}")
            continue
        times.append(doc["setup_s"])
    return times, problems


def tail_note(times: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(times)
    note = f"median of {n} cycles"
    p = math.floor(100 * (n - TAIL_BEYOND) / n) if n > TAIL_BEYOND else 0
    if p >= 50:
        rank = math.ceil(p * n / 100)
        note += f"; p{p} = {sorted(times)[rank - 1]:.6g} s with {n - rank} beyond"
    return note


def environment() -> str:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        pass
    caps = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}, "
            f"{caps}, nproc {os.cpu_count()}")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        main, runner, own_setup = set_up(name, seed, workdir)
        setups, problems = child_setups(name, seed, SETUP_SAMPLES - 1)
        for problem in problems:
            runner.record(None, [problem])
        setups.append(own_setup)

        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
        plain, traced, layers, per_op = [], [], [], []
        spent = 0.0
        while spent < seconds or (tracer is not None and not traced):
            if tracer is not None and len(plain) > len(traced):
                first = tracer.next_op
                dt = sum(runner.cycle(main, wrap=tracer.run_op))
                traced.append(dt)
                layers.append(tracer.layers(first))
            else:
                per_op.append(runner.cycle(main))
                dt = sum(per_op[-1])
                plain.append(dt)
            spent += dt
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}, seed {seed}, trace {int(trace)}: {environment()}")
    for step in runner.steps:
        print(f"  {step.op.name}: tbe {' '.join(step.argv).replace(str(ROOT) + os.sep, '')}")
    print(f"  ops attempted {runner.attempted}, failed {runner.failed} "
          f"(fail_share {runner.failed / runner.attempted:.4g})")
    for message in runner.messages:
        print(f"  FAIL {message}")
    if runner.gaps:
        print(f"  opt_gap = {statistics.median(runner.gaps):.6g} (median over {len(runner.gaps)} ops)")
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    if trace:
        values.update(layer_medians(layers, runner))
        values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        write_trace(tracer, name, seed)
        if tracer.missing:
            print(f"  trace: skipped missing wrap targets {', '.join(tracer.missing)}")
        if tracer.unavailable:
            print(f"  trace: counts unavailable {', '.join(sorted(tracer.unavailable))}")
        wanted = SPEC["per_layer"]
    else:
        values["cycle_s"] = statistics.median(plain)
        notes["cycle_s"] = tail_note(plain)
        if len(runner.steps) > 1:
            notes["cycle_s"] += "; per op " + ", ".join(
                f"{step.op.name} {statistics.median(t[i] for t in per_op):.4g} s"
                for i, step in enumerate(runner.steps)
            )
        values["model_vars"] = runner.model_vars
        values["peak_rss_mb"] = peak_mb
        values["setup_s"] = statistics.median(setups)
        notes["setup_s"] = "median of " + ", ".join(f"{s:.4g}" for s in setups)
        wanted = SPEC["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        note = f"  ({notes[metric['name']]})" if metric["name"] in notes else ""
        print(f"  {metric['name']} = {value:.6g} {metric['unit']}{note}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def layer_medians(layers: list[dict], runner: Runner) -> dict[str, float]:
    values = {}
    for metric in SPEC["per_layer"]:
        samples = [op.get(metric["name"], 0.0) for op in layers]
        values[metric["name"]] = statistics.median(samples) if samples else 0.0
    if runner.gaps:
        values["opt_gap"] = statistics.median(runner.gaps)
    if any("exhaustive" in step.argv for step in runner.steps):
        # the CLI enumerates every assignment for its corollary check
        values["cli.true_optimum.assignments"] = runner.inst.num_assignments()
    return values


def write_trace(tracer, name: str, seed: int) -> None:
    doc = {"workload": name, "seed": seed, "environment": environment(), **tracer.dump()}
    path = WORK / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"  trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def setup_only(name: str, seed: int) -> int:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, runner, seconds = set_up(name, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ok": runner.failed == 0, "setup_s": seconds}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, then one table of all metrics."""
    rows, ok = [], True
    for workload in SPEC["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload['name']}: no result (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        ok = ok and result["correct"]
        rows.append((workload["name"], result))
    print()
    for name, result in rows:
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        print(f"{name:14s} fail_share {result['failed']}/{result['attempted']}  " + "  ".join(cells))
    return 0 if ok else 1


def quick(seed: int) -> int:
    """One checked cycle per workload, then planted faults the oracles must catch."""
    import mutants

    main = import_cli()
    from workloads import WORKLOADS

    ok = True
    runners = {}
    try:
        for name in WORKLOADS:
            workdir = WORK / f"quick-{name}-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            runner = runners[name] = Runner(WORKLOADS[name], seed, workdir)
            seconds = sum(runner.cycle(main))
            status = "ok" if runner.failed == 0 else "FAIL " + "; ".join(runner.messages)
            print(f"{name:14s} one cycle {seconds:.3f} s: {status}")
            ok = ok and runner.failed == 0

        def step(name, op):
            return next(s for s in runners[name].steps if s.op.name == op)

        verdicts = []
        for label, name, op, mutate in mutants.MUTANTS:
            target = step(name, op)
            outcome = target.op.check(runners[name].ctx, mutate(target.read_outputs()))
            verdicts.append((label, outcome.failures))
        label, name, op, mutate = mutants.REPEAT_MUTANT
        target = step(name, op)
        verdicts.append((label, runners[name].judge(target, 0, "", mutate(target.read_outputs()))))
        for label, problems in verdicts:
            print(f"mutant {label}: {'caught: ' + problems[0] if problems else 'NOT CAUGHT'}")
            ok = ok and bool(problems)
    finally:
        for runner in runners.values():
            shutil.rmtree(runner.workdir, ignore_errors=True)
    print("quick check passed" if ok else "quick check FAILED")
    return 0 if ok else 1


def main() -> int:
    # numpy is first imported below this point, so the caps hold for its BLAS;
    # child processes inherit them.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one checked cycle per workload plus planted faults")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "tbe" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'tbe'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.quick:
        return quick(args.seed)
    if args.workload is None:
        parser.error("--workload or --quick is required")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

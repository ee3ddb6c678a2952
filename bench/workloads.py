"""The benchmark's workloads: which instance, which CLI ops, which checks.

A workload runs a cycle of one or more ops on one instance.  Every op
pins its encoding options and anneal budget on the command line, so a
later change to a CLI default does not move the benchmark.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import instances
import oracles
from instances import Instance

KMAX = "3"
ENCODING = ("--assignment", "binary", "--unused", "fallback")
ANNEAL = ("--solve", "anneal", "--restarts", "16", "--sweeps", "200", "--cooling", "0.999")
ARTIFACTS = {
    "hubo": "--out-hubo",
    "trunc": "--out-trunc",
    "qubo": "--out-qubo",
    "spectrum": "--out-spectrum",
    "cert": "--out-cert",
    "report": "--out-report",
}
ORACLE_SAMPLES = 64


@dataclass
class Outcome:
    """Verdict on one op's outputs."""

    failures: list[str]
    model_vars: int = 0
    opt_gap: float | None = None


@dataclass(frozen=True)
class Op:
    """One CLI op of a workload's cycle and the check of its outputs."""

    name: str
    command: tuple[str, ...]
    outputs: tuple[str, ...]
    seeded: bool
    check: Callable[["Context", dict], Outcome]

    def argv(self, cfn_path: str, workdir: str, seed: int) -> list[str]:
        argv = [self.command[0], "--input", cfn_path, "--kmax", KMAX, *ENCODING, *self.command[1:]]
        if self.seeded:
            argv += ["--seed", str(seed)]
        for name in self.outputs:
            argv += [ARTIFACTS[name], f"{workdir}/{self.name}.{name}.out"]
        return argv


@dataclass(frozen=True)
class Workload:
    """An instance family and the cycle of ops run on each instance."""

    name: str
    generate: Callable[[int], Instance]
    ops: tuple[Op, ...]


@dataclass
class Context:
    """What the checks know about a run; oracle data is built on first use."""

    inst: Instance
    seed: int

    @functools.cached_property
    def optimum(self) -> float:
        return self.inst.exact_optimum()

    @functools.cached_property
    def samples(self) -> np.ndarray:
        return self.inst.sample_choices(np.random.default_rng([self.seed, 99]), ORACLE_SAMPLES)


def _report(files: dict) -> dict:
    return json.loads(files["report"])


def _check_wide(ctx: Context, files: dict) -> Outcome:
    failures, counts = oracles.check_compile(ctx.inst, int(KMAX), files, ctx.samples)
    return Outcome(failures, model_vars=counts.get("qubo_vars", 0))


def _check_solve_qubits(ctx: Context, report: dict) -> list[str]:
    expected = oracles.total_qubits(ctx.inst)
    block = report.get("solve") or {}
    if report.get("num_qubits") != expected or block.get("num_qubits") != expected:
        return [f"report: solved model has {block.get('num_qubits')} qubits, expected {expected}"]
    return []


def _check_anneal(ctx: Context, files: dict) -> Outcome:
    report = _report(files)
    failures, gap = oracles.check_solve(ctx.inst, report, ctx.optimum)
    failures += _check_solve_qubits(ctx, report)
    return Outcome(failures, model_vars=oracles.total_qubits(ctx.inst), opt_gap=gap)


def _check_exact(ctx: Context, files: dict) -> Outcome:
    report = _report(files)
    failures = oracles.check_exhaustive(ctx.inst, report, ctx.optimum)
    failures += _check_solve_qubits(ctx, report)
    return Outcome(failures, model_vars=oracles.total_qubits(ctx.inst))


def _check_verify(ctx: Context, files: dict) -> Outcome:
    failures = oracles.check_verify(ctx.inst, _report(files), ctx.optimum)
    return Outcome(failures, model_vars=oracles.total_qubits(ctx.inst))


ANNEAL_OP = Op("anneal", ("compile", *ANNEAL, "--refine"), ("report",), True, _check_anneal)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide_qubo",
            instances.wide,
            (Op("compile", ("compile", "--quadratize"), tuple(ARTIFACTS), False, _check_wide),),
        ),
        Workload("sparse_anneal", instances.sparse_planted, (ANNEAL_OP,)),
        Workload(
            "dense_exact",
            instances.dense,
            (
                Op("verify", ("verify",), ("report",), False, _check_verify),
                Op("exact", ("compile", "--solve", "exhaustive", "--refine"), ("report",), False, _check_exact),
                ANNEAL_OP,
            ),
        ),
    )
}

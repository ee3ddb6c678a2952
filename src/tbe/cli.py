"""Command-line front end: compile, verify, solve, ensemble, spectrum.

Exit codes: 0 success; 1 generic/I-O error; 2 noise-floor warning
under --strict; 3 input parse or validation error; 4 capacity limit
exceeded; 5 verification failure (an asserted claim with its
precondition held came back false).

All artifacts are emitted with fixed key order and shortest-round-trip
float formatting, so identical configurations and seeds produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .cfn import Cfn, center, parse_cfn
from .encoding import Fallback, Penalty, build_layout, encode, k_full
from .errors import CapacityError, CfnFormatError
from .polynomial import hubo_from_json, hubo_to_json, mask_to_string
from .quadratization import quadratize, qubo_json
from .solve import AnnealParams, decode_and_refine, solve, solve_result_json
from .spectrum import spectrum_csv, table_spectrum
from .truncation import certificate_json, certify, noise_floor_ok, truncate
from .verify import (
    EnsembleSpec,
    bitflip_variance_check,
    check_preservation,
    ensemble_residual_check,
    sign_preservation_rate,
)

__all__ = ["main", "run_pipeline", "run_verify"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOISE_FLOOR = 2
EXIT_FORMAT = 3
EXIT_CAPACITY = 4
EXIT_VERIFY_FAILED = 5

ENUM_ASSIGNMENT_CAP = 1 << 20


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbe",
        description="Compile cost function networks to degree-truncated spin polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CFN-JSON input path")
        p.add_argument(
            "--assignment",
            default="binary",
            help="bitstring assignment: binary, gray, or custom:FILE",
        )
        p.add_argument(
            "--unused",
            default="fallback",
            help="unused-bitstring policy: fallback[:CHOICE] or penalty[:WEIGHT]",
        )
        p.add_argument("--no-center", action="store_true", help="skip marginal absorption")
        p.add_argument("--threads", type=int, default=None, help="worker cap (informational)")

    c = sub.add_parser("compile", help="run the full compilation pipeline")
    add_common(c)
    c.add_argument("--kmax", type=int, required=True, help="truncation degree cutoff")
    c.add_argument("--quadratize", action="store_true", help="reduce the truncation to degree 2")
    c.add_argument("--solve", choices=["exhaustive", "anneal"], default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--refine", action="store_true", help="bit-flip descent on the full encoding")
    c.add_argument("--strict", action="store_true", help="fail (exit 2) on noise-floor warning")
    c.add_argument("--weak-threshold", type=float, default=0.1)
    c.add_argument("--strong-threshold", type=float, default=0.1)
    c.add_argument("--restarts", type=int, default=None, help="anneal restarts")
    c.add_argument("--sweeps", type=int, default=None, help="anneal sweeps per restart")
    c.add_argument("--t0", type=float, default=None, help="anneal starting temperature")
    c.add_argument("--cooling", type=float, default=None, help="anneal cooling factor per sweep")
    c.add_argument("--out-hubo", default=None, help="full exact HUBO-JSON path")
    c.add_argument("--out-trunc", default=None, help="truncated HUBO-JSON path")
    c.add_argument("--out-qubo", default=None, help="quadratized model JSON path")
    c.add_argument("--out-spectrum", default=None, help="spectrum CSV path")
    c.add_argument("--out-cert", default=None, help="certificate JSON path")
    c.add_argument("--out-report", default=None, help="pipeline report JSON path")

    v = sub.add_parser("verify", help="enumerate and check preservation claims")
    add_common(v)
    v.add_argument("--kmax", type=int, required=True)
    v.add_argument("--out-report", default=None)

    s = sub.add_parser("solve", help="minimize a HUBO-JSON polynomial")
    s.add_argument("--hubo", required=True, help="HUBO-JSON input path")
    s.add_argument("--method", choices=["exhaustive", "anneal"], default="exhaustive")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=None)
    s.add_argument("--sweeps", type=int, default=None)
    s.add_argument("--t0", type=float, default=None)
    s.add_argument("--cooling", type=float, default=None)
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--out", default=None, help="result JSON path")

    e = sub.add_parser("ensemble", help="Monte-Carlo checks for a variance profile")
    e.add_argument("--profile", required=True, help="ensemble profile JSON path")
    e.add_argument("--trials", type=int, default=10000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--coordinate", type=int, default=0)
    e.add_argument("--threads", type=int, default=None)
    e.add_argument("--out", default=None, help="report JSON path")

    sp = sub.add_parser("spectrum", help="emit the per-degree spectral profile")
    add_common(sp)
    sp.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    return parser


def _resolve_threads(value: int | None) -> int:
    if value is None:
        env = os.environ.get("TBE_THREADS")
        value = int(env) if env else 1
    if value < 1:
        raise CfnFormatError("--threads must be >= 1")
    return value


def _parse_policy(text: str) -> Fallback | Penalty:
    if text == "fallback":
        return Fallback()
    if text.startswith("fallback:"):
        return Fallback(choice=int(text.split(":", 1)[1]))
    if text == "penalty":
        return Penalty()
    if text.startswith("penalty:"):
        weight = float(text.split(":", 1)[1])
        if weight < 0:
            raise CfnFormatError("penalty weight must be >= 0")
        return Penalty(weight=weight)
    raise CfnFormatError(f"unknown unused-bitstring policy {text!r}")


def _parse_strategy(text: str):
    if text in ("binary", "gray"):
        return text
    if text.startswith("custom:"):
        path = text.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            maps = json.load(fh)
        if not isinstance(maps, list):
            raise CfnFormatError("custom assignment file must hold a list of per-variable maps")
        return [[int(b) for b in m] for m in maps]
    raise CfnFormatError(f"unknown assignment strategy {text!r}")


def _load_cfn(path: str) -> Cfn:
    with open(path, "rb") as fh:
        return parse_cfn(fh.read())


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _prepare(args) -> tuple[Cfn, Cfn, object]:
    original = _load_cfn(args.input)
    working = original if args.no_center else center(original)
    layout = build_layout(working, _parse_strategy(args.assignment), _parse_policy(args.unused))
    return original, working, layout


def _true_optimum(cfn: Cfn) -> tuple[float, tuple[int, ...]] | None:
    """Exact CFN optimum over every assignment, when small enough.

    Sums the tables into one dense array with an axis per variable:
    unaries in variable order, then pairwise tables in file order, so
    each cell gets the same float additions, in the same order, as
    ``evaluate_cfn``.  ``argmin`` takes the first minimum in C order,
    which is lexicographic assignment order.
    """
    total = 1
    for v in cfn.variables:
        total *= v.cardinality
        if total > ENUM_ASSIGNMENT_CAP:
            return None
    cards = tuple(v.cardinality for v in cfn.variables)
    values = np.zeros(cards)

    def on_axes(costs, *axes):
        shape = [1] * len(cards)
        for a in axes:
            shape[a] = cards[a]
        return np.asarray(costs).reshape(shape)

    for i, costs in enumerate(cfn.unary_tables):
        values += on_axes(costs, i)
    for t in cfn.pairwise_tables:
        values += on_axes(t.costs, t.i, t.j)
    best = int(np.argmin(values))
    return float(values.flat[best]), tuple(int(c) + 1 for c in np.unravel_index(best, cards))


def run_pipeline(args) -> int:
    _resolve_threads(args.threads)
    if args.kmax < 1:
        raise CfnFormatError("--kmax must be >= 1")
    original, working, layout = _prepare(args)
    full = encode(working, layout)
    profile = table_spectrum(working, layout)
    cert = certify(full, args.kmax)
    weak_ok, strong_ok = noise_floor_ok(cert, args.weak_threshold, args.strong_threshold)
    noise_ok = weak_ok and strong_ok
    if not noise_ok:
        print(
            "tbe: noise-floor warning: "
            f"weak_ratio={cert.weak_noise_floor_ratio} strong_margin={cert.strong_noise_floor_margin}",
            file=sys.stderr,
        )
    truncated = truncate(full, args.kmax)

    qubo = None
    if args.quadratize:
        qubo = quadratize(truncated)

    solve_block = None
    corollary_block = None
    if args.solve:
        params = _anneal_params(args)
        target = qubo if qubo is not None else truncated
        result = solve(target, method=args.solve, seed=args.seed, anneal=params)
        result = decode_and_refine(result, layout, original, full_poly=full, refine=args.refine)
        solve_block = json.loads(solve_result_json(result))
        if args.solve == "exhaustive" and all(result.decoded_valid):
            opt = _true_optimum(original)
            if opt is not None:
                best_value, best_assignment = opt
                achieved = result.cfn_value
                if result.refined_cfn_value is not None:
                    achieved = min(achieved, result.refined_cfn_value)
                bound = best_value + 2.0 * cert.epsilon + 1e-9
                corollary_block = {
                    "true_optimum": best_value,
                    "true_argmin": list(best_assignment),
                    "achieved_value": achieved,
                    "bound": bound,
                    "holds": achieved <= bound,
                }

    report = {
        "config": {
            "input": args.input,
            "k_max": args.kmax,
            "assignment": args.assignment,
            "unused": args.unused,
            "center": not args.no_center,
            "quadratize": args.quadratize,
            "solve": args.solve,
            "seed": args.seed,
            "refine": args.refine,
            "weak_threshold": args.weak_threshold,
            "strong_threshold": args.strong_threshold,
        },
        "num_variables": working.num_variables,
        "num_qubits": layout.total_qubits,
        "k_full": k_full(working, layout),
        "encoded": {"num_terms": full.num_terms(), "degree": full.degree},
        "noise_floor": {
            "weak_ratio": cert.weak_noise_floor_ratio,
            "strong_margin": cert.strong_noise_floor_margin,
            "weak_ok": weak_ok,
            "strong_ok": strong_ok,
            "ok": noise_ok,
        },
        "certificate": json.loads(certificate_json(cert)),
        "truncated": {"num_terms": truncated.num_terms(), "degree": truncated.degree},
        "quadratization": (
            {
                "num_ancillas": qubo.num_ancilla_qubits,
                "penalty": qubo.penalty_weight,
            }
            if qubo is not None
            else None
        ),
        "solve": solve_block,
        "corollary_check": corollary_block,
    }

    if args.out_hubo:
        _write(args.out_hubo, hubo_to_json(full))
    if args.out_trunc:
        _write(args.out_trunc, hubo_to_json(truncated))
    if args.out_qubo and qubo is not None:
        _write(args.out_qubo, qubo_json(qubo))
    if args.out_spectrum:
        _write(args.out_spectrum, spectrum_csv(profile))
    if args.out_cert:
        _write(args.out_cert, certificate_json(cert))
    if args.out_report:
        _write(args.out_report, json.dumps(report, indent=2) + "\n")

    if args.strict and not noise_ok:
        return EXIT_NOISE_FLOOR
    return EXIT_OK


def run_verify(args) -> int:
    _resolve_threads(args.threads)
    if args.kmax < 1:
        raise CfnFormatError("--kmax must be >= 1")
    _, working, layout = _prepare(args)
    full = encode(working, layout)
    report = check_preservation(full, args.kmax)
    doc = {
        "num_qubits": report.num_qubits,
        "k_max": report.k_max,
        "epsilon": report.epsilon,
        "global_min_value": report.global_min_value,
        "global_argmin": [mask_to_string(m, report.num_qubits) for m in report.global_argmin],
        "energy_gap": report.energy_gap if math.isfinite(report.energy_gap) else None,
        "basin_barriers": {
            mask_to_string(m, report.num_qubits): b for m, b in sorted(report.basin_barrier_at.items())
        },
        "truncated_min_value": report.truncated_min_value,
        "truncated_argmin": [mask_to_string(m, report.num_qubits) for m in report.truncated_argmin],
        "gap_condition_holds": report.gap_condition_holds,
        "barrier_condition_holds": report.barrier_condition_holds,
        "claims": [
            {
                "claim": v.claim,
                "precondition_held": v.precondition_held,
                "asserted": v.asserted,
                "margin": v.margin,
                "details": v.details,
            }
            for v in report.verdicts
        ],
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out_report:
        _write(args.out_report, text)
    else:
        sys.stdout.write(text)
    if report.failed_verdicts():
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _anneal_params(args) -> AnnealParams:
    return AnnealParams(
        restarts=args.restarts if args.restarts is not None else AnnealParams.restarts,
        sweeps=args.sweeps if args.sweeps is not None else AnnealParams.sweeps,
        initial_temperature=args.t0,
        cooling=args.cooling if args.cooling is not None else AnnealParams.cooling,
    )


def run_solve(args) -> int:
    _resolve_threads(args.threads)
    with open(args.hubo, "rb") as fh:
        poly = hubo_from_json(fh.read())
    params = _anneal_params(args)
    result = solve(poly, method=args.method, seed=args.seed, anneal=params)
    text = solve_result_json(result)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def run_ensemble(args) -> int:
    _resolve_threads(args.threads)
    with open(args.profile, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        n = int(doc["n"])
        cutoff = int(doc["k_max"])
        family = doc.get("family", "gaussian")
        profile: dict[int, float] = {}
        for entry in doc["modes"]:
            mask = 0
            for q in entry["qubits"]:
                mask |= 1 << int(q)
            profile[mask] = profile.get(mask, 0.0) + float(entry["pi"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CfnFormatError(f"bad ensemble profile: {exc}") from exc
    spec = EnsembleSpec(
        variance_profile=profile, family=family, trials=args.trials, rng_seed=args.seed
    )
    residual = ensemble_residual_check(spec, n, cutoff)
    bitflip = bitflip_variance_check(spec, cutoff, args.coordinate, n=n)
    sign = sign_preservation_rate(spec, n, cutoff)
    out = {
        "n": n,
        "k_max": cutoff,
        "family": family,
        "trials": args.trials,
        "seed": args.seed,
        "residual_moments": {
            "num_modes": residual.num_modes,
            "target_variance": residual.target_variance,
            "sample_mean": residual.sample_mean,
            "sample_variance": residual.sample_variance,
            "variance_ok": residual.variance_ok,
            "skewness": residual.skewness,
            "excess_kurtosis": residual.excess_kurtosis,
            "max_variance_ratio": residual.max_variance_ratio,
            "gaussian_gate_applied": residual.gaussian_gate_applied,
            "skewness_ok": residual.skewness_ok,
            "kurtosis_ok": residual.kurtosis_ok,
            "fourth_moment_bound": residual.fourth_moment_bound,
            "fourth_moment_ratio": residual.fourth_moment_ratio,
        },
        "bitflip_variance": {
            "coordinate": bitflip.coordinate,
            "target_variance": bitflip.target_variance,
            "sample_variance": bitflip.sample_variance,
            "variance_ok": bitflip.variance_ok,
            "avg_variance": bitflip.avg_variance,
            "avg_bound": bitflip.avg_bound,
            "avg_bound_ok": bitflip.avg_bound_ok,
        },
        "sign_preservation": {
            "margin": sign.margin,
            "rate": sign.rate,
        },
    }
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def run_spectrum(args) -> int:
    _resolve_threads(args.threads)
    _, working, layout = _prepare(args)
    profile = table_spectrum(working, layout)
    text = spectrum_csv(profile)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compile": run_pipeline,
        "verify": run_verify,
        "solve": run_solve,
        "ensemble": run_ensemble,
        "spectrum": run_spectrum,
    }
    try:
        return handlers[args.command](args)
    except CfnFormatError as exc:
        print(f"tbe: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapacityError as exc:
        print(f"tbe: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"tbe: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"tbe: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

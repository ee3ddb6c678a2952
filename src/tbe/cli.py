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
import sys
from dataclasses import replace

import numpy as np

from .cfn import Cfn, parse_cfn
from .encoding import Fallback, Penalty, WalshBlocks, build_layout, encode, walsh_blocks
from .errors import CapacityError, CfnFormatError
from .polynomial import MAX_ABS_COST, finite_float, hubo_from_json, hubo_to_json, is_int, mask_to_string, qubit_mask
from .quadratization import quadratize, qubo_json, resolve_ancillas
from .solve import AnnealParams, decode_and_refine, solve, solve_result_json
from .spectrum import spectrum_csv, table_spectrum
from .truncation import certificate_json, certify, noise_floor_ok, truncate
from .verify import (
    FAMILIES,
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


class _Parser(argparse.ArgumentParser):
    """A command line that does not parse is malformed input: it raises
    ``CfnFormatError`` naming the argument, so ``main`` exits 3 with one
    line, where argparse would print its usage and exit 2."""

    def error(self, message: str):
        raise CfnFormatError(message)


def _ranged(kind: type, low: float, high: float = math.inf, *, low_open: bool = False):
    """An argparse ``type``: the text read as ``kind`` and within [low,
    high], or (low, high] with ``low_open``; an infinite ``high`` is
    excluded, so a float must be finite.  A refused value makes argparse
    name the flag."""
    interval = f"{'(' if low_open else '['}{low}, {high}{')' if high == math.inf else ']'}"
    what = "an integer" if kind is int else "a number"

    def read(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ((low < value if low_open else low <= value) and value <= high and value != math.inf):
            raise argparse.ArgumentTypeError(f"must be {what} in {interval}, got {text!r}")
        return value

    return read


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tbe",
        description="Compile cost function networks to degree-truncated spin polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kmax = {"type": _ranged(int, 1), "required": True, "help": "truncation degree cutoff"}
    seed = _ranged(int, 0)

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

    def add_anneal(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=seed, default=None, help="anneal seed (0 when not given)")
        p.add_argument("--restarts", type=_ranged(int, 1), default=None, help="anneal restarts")
        p.add_argument("--sweeps", type=_ranged(int, 0), default=None, help="anneal sweeps per restart")
        p.add_argument("--t0", type=_ranged(float, 0.0, low_open=True), default=None,
                       help="anneal starting temperature")
        p.add_argument("--cooling", type=_ranged(float, 0.0, 1.0, low_open=True), default=None,
                       help="anneal cooling factor per sweep")

    c = sub.add_parser("compile", help="run the full compilation pipeline")
    c.set_defaults(run=run_pipeline)
    add_common(c)
    c.add_argument("--kmax", **kmax)
    c.add_argument("--quadratize", action="store_true", help="reduce the truncation to degree 2")
    c.add_argument("--solve", choices=["exhaustive", "anneal"], default=None)
    add_anneal(c)
    c.add_argument("--refine", action="store_true", help="bit-flip descent on the full encoding")
    c.add_argument("--strict", action="store_true", help="fail (exit 2) on noise-floor warning")
    c.add_argument("--weak-threshold", type=_ranged(float, 0.0), default=0.1)
    c.add_argument("--strong-threshold", type=_ranged(float, 0.0), default=0.1)
    c.add_argument("--out-hubo", default=None, help="full exact HUBO-JSON path")
    c.add_argument("--out-trunc", default=None, help="truncated HUBO-JSON path")
    c.add_argument("--out-qubo", default=None, help="quadratized model JSON path")
    c.add_argument("--out-spectrum", default=None, help="spectrum CSV path")
    c.add_argument("--out-cert", default=None, help="certificate JSON path")
    c.add_argument("--out-report", default=None, help="pipeline report JSON path")

    v = sub.add_parser("verify", help="enumerate and check preservation claims")
    v.set_defaults(run=run_verify)
    add_common(v)
    v.add_argument("--kmax", **kmax)
    v.add_argument("--out-report", default=None)

    s = sub.add_parser("solve", help="minimize a HUBO-JSON polynomial")
    s.set_defaults(run=run_solve)
    s.add_argument("--hubo", required=True, help="HUBO-JSON input path")
    s.add_argument("--method", choices=["exhaustive", "anneal"], default="exhaustive")
    add_anneal(s)
    s.add_argument("--out", default=None, help="result JSON path")

    e = sub.add_parser("ensemble", help="Monte-Carlo checks for a variance profile")
    e.set_defaults(run=run_ensemble)
    e.add_argument("--profile", required=True, help="ensemble profile JSON path")
    e.add_argument("--trials", type=_ranged(int, 1), default=10000)
    e.add_argument("--seed", type=seed, default=0)
    e.add_argument("--coordinate", type=int, default=0)
    e.add_argument("--out", default=None, help="report JSON path")

    sp = sub.add_parser("spectrum", help="emit the per-degree spectral profile")
    sp.set_defaults(run=run_spectrum)
    add_common(sp)
    sp.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    return parser


def _parse_policy(text: str) -> Fallback | Penalty:
    if text == "fallback":
        return Fallback()
    if text.startswith("fallback:"):
        try:
            choice = int(text.split(":", 1)[1])
        except ValueError:
            raise CfnFormatError(f"--unused {text!r}: the fallback choice must be an integer") from None
        return Fallback(choice=choice)
    if text == "penalty":
        return Penalty()
    if text.startswith("penalty:"):
        try:
            return Penalty(weight=float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise CfnFormatError(f"--unused {text!r}: {exc}") from None
    raise CfnFormatError(f"unknown unused-bitstring policy {text!r}")


def _parse_strategy(text: str):
    if text in ("binary", "gray"):
        return text
    if text.startswith("custom:"):
        path = text.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                maps = json.load(fh)
        except OSError as exc:
            raise OSError(f"--assignment: cannot read custom map file {path!r}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise CfnFormatError(f"--assignment: custom map file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(maps, list) or not all(
            isinstance(m, list) and all(is_int(b) for b in m) for m in maps
        ):
            raise CfnFormatError(
                f"--assignment: custom map file {path!r} must hold a list of per-variable lists of integer bitstrings"
            )
        return maps
    raise CfnFormatError(f"unknown assignment strategy {text!r}")


def _load_cfn(path: str) -> Cfn:
    with open(path, "rb") as fh:
        return parse_cfn(fh.read())


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _prepare(args) -> tuple[Cfn, WalshBlocks]:
    """The input CFN and its Walsh blocks: the command's one transform pass."""
    cfn = _load_cfn(args.input)
    layout = build_layout(cfn, _parse_strategy(args.assignment), _parse_policy(args.unused))
    return cfn, walsh_blocks(cfn, layout)


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
    if args.out_qubo and not args.quadratize:
        raise CfnFormatError("--out-qubo writes the quadratized model, so it needs --quadratize")
    if args.refine and not args.solve:
        raise CfnFormatError("--refine refines a solve's answer, so it needs --solve")
    seed, params = _anneal_params(args, args.solve == "anneal", "--solve anneal")
    cfn, blocks = _prepare(args)
    full = encode(blocks)
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
        exhaustive = args.solve == "exhaustive"
        target = qubo if qubo is not None and not exhaustive else truncated
        result = solve(target, method=args.solve, seed=seed, anneal=params)
        if qubo is not None and exhaustive:
            # the QUBO's minimum over its ancillas is the truncation's,
            # reached where each ancilla is its parents' product
            result = replace(
                result, num_qubits=qubo.num_vars, best_spin=resolve_ancillas(qubo, result.best_spin)
            )
        result = decode_and_refine(result, blocks.layout, cfn, full_poly=full if args.refine else None)
        solve_block = json.loads(solve_result_json(result))
        if exhaustive and all(result.decoded_valid):
            opt = _true_optimum(cfn)
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
            "quadratize": args.quadratize,
            "solve": args.solve,
            "seed": seed,
            "refine": args.refine,
            "weak_threshold": args.weak_threshold,
            "strong_threshold": args.strong_threshold,
        },
        "num_variables": cfn.num_variables,
        "num_qubits": blocks.layout.total_qubits,
        "k_full": blocks.k_full,
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
        _write(args.out_spectrum, spectrum_csv(table_spectrum(blocks)))
    if args.out_cert:
        _write(args.out_cert, certificate_json(cert))
    if args.out_report:
        _write(args.out_report, json.dumps(report, indent=2, allow_nan=False) + "\n")

    if args.strict and not noise_ok:
        return EXIT_NOISE_FLOOR
    return EXIT_OK


def _finite_or_none(value: float | None) -> float | None:
    """JSON has no infinity, so an infinite gap, barrier or margin is written as null."""
    return value if value is not None and math.isfinite(value) else None


def run_verify(args) -> int:
    _, blocks = _prepare(args)
    full = encode(blocks)
    report = check_preservation(full, args.kmax)
    doc = {
        "num_qubits": report.num_qubits,
        "k_max": report.k_max,
        "epsilon": report.epsilon,
        "global_min_value": report.global_min_value,
        "global_argmin": [mask_to_string(m, report.num_qubits) for m in report.global_argmin],
        "energy_gap": _finite_or_none(report.energy_gap),
        "basin_barriers": {
            mask_to_string(m, report.num_qubits): _finite_or_none(b)
            for m, b in sorted(report.basin_barrier_at.items())
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
                "margin": _finite_or_none(v.margin),
                "details": v.details,
            }
            for v in report.verdicts
        ],
    }
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if args.out_report:
        _write(args.out_report, text)
    else:
        sys.stdout.write(text)
    if report.failed_verdicts():
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _anneal_params(args, anneals: bool, mode: str) -> tuple[int, AnnealParams]:
    """The seed and the anneal knobs given, as parameters (the seed not
    given is 0, each knob at its ``AnnealParams`` default); a run that
    does not anneal (``mode`` is the flag that makes it) takes none of
    them."""
    fields = {"--restarts": "restarts", "--sweeps": "sweeps", "--t0": "initial_temperature", "--cooling": "cooling"}
    given = [flag for flag in ("--seed", *fields) if getattr(args, flag[2:]) is not None]
    if given and not anneals:
        raise CfnFormatError(f"{given[0]} sets the annealer, so it needs {mode}")
    knobs = {fields[flag]: getattr(args, flag[2:]) for flag in given if flag != "--seed"}
    return args.seed or 0, AnnealParams(**knobs)


def run_solve(args) -> int:
    seed, params = _anneal_params(args, args.method == "anneal", "--method anneal")
    with open(args.hubo, "rb") as fh:
        poly = hubo_from_json(fh.read())
    result = solve(poly, method=args.method, seed=seed, anneal=params)
    text = solve_result_json(result)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def run_ensemble(args) -> int:
    with open(args.profile, "rb") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise CfnFormatError(f"--profile {args.profile!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CfnFormatError(f"--profile {args.profile!r} must hold a JSON object")
    n = doc.get("n")
    if not is_int(n) or n < 0:
        raise CfnFormatError(f"n must be an integer >= 0, got {n!r}")
    if not 0 <= args.coordinate < n:
        raise CfnFormatError(f"--coordinate must be in [0, {n}), got {args.coordinate!r}")
    cutoff = doc.get("k_max")
    if not is_int(cutoff) or cutoff < 1:
        raise CfnFormatError(f"k_max must be an integer >= 1, got {cutoff!r}")
    family = doc.get("family", "gaussian")
    if family not in FAMILIES:
        raise CfnFormatError(f"family must be one of {', '.join(FAMILIES)}, got {family!r}")
    modes = doc.get("modes")
    if not isinstance(modes, list) or not modes:
        raise CfnFormatError("modes must be a non-empty list")
    profile: dict[int, float] = {}
    for k, entry in enumerate(modes):
        if not isinstance(entry, dict):
            raise CfnFormatError(f"modes[{k}] must be an object with qubits and pi")
        mask = qubit_mask(entry.get("qubits"), n, f"modes[{k}].qubits")
        # a variance, and a repeated mode's running sum, is bounded as a
        # HUBO coefficient is: a draw, under 10 standard deviations, is
        # then under 1e51, and a fourth power of a sum of under 2^64
        # draws is under 1e282, so every moment stays finite
        pi = finite_float(entry.get("pi"))
        if pi is None or not 0 <= pi <= MAX_ABS_COST:
            raise CfnFormatError(f"modes[{k}].pi must be a number in [0, {MAX_ABS_COST:g}], got {entry.get('pi')!r}")
        total = profile.get(mask, 0.0) + pi
        if total > MAX_ABS_COST:
            raise CfnFormatError(
                f"modes[{k}].pi: the repeated mode's variances sum to {total!r}, which exceeds {MAX_ABS_COST:g}"
            )
        profile[mask] = total
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
    text = json.dumps(out, indent=2, allow_nan=False) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def run_spectrum(args) -> int:
    _, blocks = _prepare(args)
    text = spectrum_csv(table_spectrum(blocks))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
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

"""Command-line front end: compile, verify, solve, ensemble, spectrum.

Exit codes: 0 success; 1 generic/I-O error; 2 noise-floor warning
under --strict; 3 input parse or validation error; 4 capacity limit
exceeded or memory exhausted; 5 verification failure (an asserted
claim with its precondition held came back false).

All artifacts are emitted with fixed key order and shortest-round-trip
float formatting, so identical configurations and seeds produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict, replace

from .cfn import Cfn, parse_cfn
from .encoding import Fallback, Penalty, WalshBlocks, build_layout, encode, walsh_blocks
from .errors import CapacityError, CfnFormatError
from .json_reader import read_json
from .polynomial import MAX_ABS_COST, IsingPolynomial, finite_float, hubo_from_json, hubo_texts, is_int, mask_to_string
from .polynomial import qubit_key
from .quadratization import quadratize, qubo_json, resolve_ancillas
from .solve import AnnealParams, decode_and_refine, solve, solve_result_doc, solve_result_json
from .spectrum import spectrum_csv, table_spectrum
from .truncation import certificate_doc, certificate_json, certify, noise_floor_ok, truncate
from .verify import (
    FAMILIES,
    EnsembleSpec,
    RegisterLandscape,
    bitflip_variance_check,
    cfn_optimum,
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps
    no state in it, so every ``main`` call shares it."""
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

    v = sub.add_parser("verify", help="exact landscapes and the preservation claims")
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
        try:
            return Fallback(choice=choice)
        except ValueError as exc:
            raise CfnFormatError(f"--unused {text!r}: {exc}") from None
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
        invalid = f"--assignment: custom map file {path!r} is not valid JSON"
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise OSError(f"--assignment: cannot read custom map file {path!r}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # bytes that are not UTF-8
            raise CfnFormatError(f"{invalid}: {exc}") from None
        return read_json(source, functools.partial(_custom_maps, path), invalid)
    raise CfnFormatError(f"unknown assignment strategy {text!r}")


def _custom_maps(path: str, maps) -> list[list[int]]:
    if not isinstance(maps, list) or not all(
        isinstance(m, list) and all(is_int(b) for b in m) for m in maps
    ):
        raise CfnFormatError(
            f"--assignment: custom map file {path!r} must hold a list of per-variable lists of integer bitstrings"
        )
    return maps


def _load_cfn(path: str) -> Cfn:
    with open(path, "rb") as fh:
        return parse_cfn(fh.read())


def _write(path: str | None, text: str) -> None:
    """Write an artifact to ``path``, or to stdout when none is given,
    in slices of 2^16 characters, so it is encoded a slice at a time and
    never copied whole; a slice stays under the allocator's default
    128 KiB threshold for mapping fresh pages."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        for start in range(0, len(text), 1 << 16):
            fh.write(text[start : start + (1 << 16)])


def _prepare(args) -> tuple[Cfn, WalshBlocks]:
    """The input CFN and its Walsh blocks: the command's one transform pass."""
    cfn = _load_cfn(args.input)
    strategy, policy = _parse_strategy(args.assignment), _parse_policy(args.unused)
    try:
        layout = build_layout(cfn, strategy, policy)
    except CfnFormatError as exc:
        # the layout checks these two flags against the CFN
        raise CfnFormatError(f"--assignment {args.assignment!r} with --unused {args.unused!r}: {exc}") from None
    return cfn, walsh_blocks(cfn, layout)


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
        if exhaustive:
            target = RegisterLandscape(blocks, args.kmax)
        else:
            target = qubo if qubo is not None else truncated
        result = solve(target, method=args.solve, seed=seed, anneal=params)
        if qubo is not None and exhaustive:
            # the QUBO's minimum over its ancillas is the truncation's,
            # reached where each ancilla is its parents' product
            result = replace(
                result, num_qubits=qubo.num_vars, best_spin=resolve_ancillas(qubo, result.best_spin)
            )
        result = decode_and_refine(result, blocks.layout, cfn, full_poly=full if args.refine else None)
        solve_block = solve_result_doc(result)
        # a Fallback register on an unused bitstring decodes to a
        # choice of the same cost, so only a Penalty one voids the bound
        if exhaustive and (all(result.decoded_valid) or isinstance(blocks.layout.unused_policy, Fallback)):
            # the truncation's register graph is the CFN's: one elimination order
            best_value, best_assignment = cfn_optimum(cfn, target.steps)
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

    # one document for the report and --out-cert: past 4300 digits its
    # omitted_combinatorial takes a decimal conversion of quadratic cost
    cert_doc = certificate_doc(cert)
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
        "certificate": cert_doc,
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

    _write_hubos([(path, poly) for path, poly in ((args.out_trunc, truncated), (args.out_hubo, full)) if path])
    if args.out_qubo and qubo is not None:
        _write(args.out_qubo, qubo_json(qubo))
    if args.out_spectrum:
        _write(args.out_spectrum, spectrum_csv(table_spectrum(blocks)))
    if args.out_cert:
        _write(args.out_cert, certificate_json(cert, cert_doc))
    if args.out_report:
        _write(args.out_report, json.dumps(report, indent=2, allow_nan=False) + "\n")

    if args.strict and not noise_ok:
        return EXIT_NOISE_FLOOR
    return EXIT_OK


def _write_hubos(hubos: list[tuple[str, IsingPolynomial]]) -> None:
    """Write HUBO-JSON files of a polynomial and of its truncations, from
    the shortest (each a prefix of the next's terms) to the polynomial:
    their texts come from one formatting of the terms written."""
    if hubos:
        texts = hubo_texts(hubos[-1][1], [poly.num_terms() for _, poly in hubos])
        for (path, _), text in zip(hubos, texts):
            _write(path, text)


def _finite_or_none(value: float | None) -> float | None:
    """JSON has no infinity, so an infinite gap, barrier or margin is written as null."""
    return value if value is not None and math.isfinite(value) else None


def run_verify(args) -> int:
    _, blocks = _prepare(args)
    report = check_preservation(blocks, args.kmax)
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
    _write(args.out_report, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    if report.failed_verdicts():
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _anneal_params(args, anneals: bool, mode: str) -> tuple[int, AnnealParams]:
    """The seed and the anneal knobs given, as parameters (the seed not
    given is 0, each knob at its ``AnnealParams`` default); a run that
    does not anneal (``mode`` is the flag that makes it) takes none of
    them."""
    fields = {"--restarts": "restarts", "--sweeps": "sweeps", "--cooling": "cooling"}
    given = [flag for flag in ("--seed", *fields) if getattr(args, flag[2:]) is not None]
    if given and not anneals:
        raise CfnFormatError(f"{given[0]} sets the annealer, so it needs {mode}")
    knobs = {fields[flag]: getattr(args, flag[2:]) for flag in given if flag != "--seed"}
    return args.seed or 0, AnnealParams(**knobs)


def run_solve(args) -> int:
    seed, params = _anneal_params(args, args.method == "anneal", "--method anneal")
    with open(args.hubo, "rb") as fh:
        poly = hubo_from_json(fh.read())
    _write(args.out, solve_result_json(solve(poly, method=args.method, seed=seed, anneal=params)))
    return EXIT_OK


def run_ensemble(args) -> int:
    with open(args.profile, "rb") as fh:
        source = fh.read()
    n, cutoff, family, profile = read_json(
        source, functools.partial(_profile, args), f"--profile {args.profile!r} is not valid JSON"
    )
    spec = EnsembleSpec(
        variance_profile=profile, family=family, trials=args.trials, rng_seed=args.seed
    )
    out = {
        "n": n,
        "k_max": cutoff,
        "family": family,
        "trials": args.trials,
        "seed": args.seed,
        "residual_moments": asdict(ensemble_residual_check(spec, cutoff)),
        "bitflip_variance": asdict(bitflip_variance_check(spec, cutoff, args.coordinate, n=n)),
        "sign_preservation": asdict(sign_preservation_rate(spec, n, cutoff)),
    }
    _write(args.out, json.dumps(out, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


def _profile(args, doc) -> tuple[int, int, str, dict[int, float]]:
    """The qubit count, cutoff, family and {mode mask: variance} of a
    parsed ensemble profile, checked against ``args.coordinate``."""
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
        mask = sum(1 << q for q in qubit_key(entry.get("qubits"), n, f"modes[{k}].qubits"))
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
    return n, cutoff, family, profile


def run_spectrum(args) -> int:
    _, blocks = _prepare(args)
    _write(args.out, spectrum_csv(table_spectrum(blocks)))
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
    except MemoryError as exc:
        # memory grows with the product of several values (restarts x
        # active qubits, trials x modes), so no one flag's bound caps it
        print(f"tbe: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"tbe: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"tbe: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

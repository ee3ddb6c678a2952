"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions that ``tbe.cli``,
``tbe.solve``, ``tbe.verify``, ``tbe.encoding`` and ``tbe.spectrum``
look up in their module globals with wrappers that record a span per
call: name, start, end, parent span and op id.  Spans stay in memory
and are written out once the run ends.  A target that no longer exists
is skipped and listed in ``missing``, so a refactor of the program
cannot crash the benchmark; its time then shows as its caller's self
time.

Counts (terms, ancillas, flips, ...) are taken from the wrapped calls'
arguments and results after the op has finished, so computing them
never lands inside a timed span.
"""

from __future__ import annotations

import functools
import importlib
import time

ROOT = "cli.main"

# (module whose global is patched, attribute, span name)
TARGETS = (
    ("tbe.cli", "parse_cfn", "cfn.parse_cfn"),
    ("tbe.cli", "center", "cfn.center"),
    ("tbe.cli", "build_layout", "encoding.build_layout"),
    ("tbe.cli", "encode", "encoding.encode"),
    ("tbe.cli", "table_spectrum", "spectrum.table_spectrum"),
    ("tbe.cli", "certify", "truncation.certify"),
    ("tbe.cli", "truncate", "truncation.truncate"),
    ("tbe.cli", "certificate_json", "truncation.certificate_json"),
    ("tbe.cli", "quadratize", "quadratization.quadratize"),
    ("tbe.cli", "qubo_json", "quadratization.qubo_json"),
    ("tbe.cli", "hubo_to_json", "polynomial.hubo_to_json"),
    ("tbe.cli", "spectrum_csv", "spectrum.spectrum_csv"),
    ("tbe.cli", "solve", "solve.solve"),
    ("tbe.cli", "decode_and_refine", "solve.decode_and_refine"),
    ("tbe.cli", "solve_result_json", "solve.solve_result_json"),
    ("tbe.cli", "check_preservation", "verify.check_preservation"),
    ("tbe.solve", "dense_values", "verify.dense_values"),
    ("tbe.solve", "bitflip_descent", "verify.bitflip_descent"),
    ("tbe.solve", "decode", "encoding.decode"),
    ("tbe.verify", "dense_values", "verify.dense_values"),
    ("tbe.verify", "certify", "truncation.certify"),
    ("tbe.verify", "truncate", "truncation.truncate"),
    ("tbe.encoding", "extended_register_tables", "encoding.extended_register_tables"),
    ("tbe.encoding", "fwht", "walsh.fwht"),
    ("tbe.spectrum", "extended_register_tables", "encoding.extended_register_tables"),
    ("tbe.spectrum", "fwht", "walsh.fwht"),
)

CAPACITY_QUBITS = 64


def _proposals(result) -> int:
    return result.anneal.restarts * result.anneal.sweeps * result.num_qubits


def _penalty_ratio(quadratize_calls, _, calls) -> float:
    """Penalty weight over the largest non-constant truncated coupling."""
    truncated = calls["truncation.truncate"][0][1]
    largest = max(abs(c) for s, c in truncated.terms.items() if s)
    return quadratize_calls[0][1].penalty_weight / largest


# (metric, span it reads, count(calls of that span as (args, result),
# inclusive seconds of those calls, calls of every span)).  A count whose
# inputs changed shape is listed as unavailable instead of failing the run.
COUNTS = (
    ("cfn.parse_cfn.bytes_per_s", "cfn.parse_cfn", lambda c, sec, _: sum(len(a[0]) for a, _ in c) / sec),
    ("encoding.terms", "encoding.encode", lambda c, sec, _: len(c[0][1].terms)),
    ("encoding.degree", "encoding.encode", lambda c, sec, _: max(m.bit_count() for m in c[0][1].terms)),
    ("encoding.qubits", "encoding.encode", lambda c, sec, _: c[0][1].num_qubits),
    ("encoding.cap_headroom", "encoding.encode", lambda c, sec, _: CAPACITY_QUBITS - c[0][1].num_qubits),
    ("truncation.terms_kept", "truncation.truncate", lambda c, sec, _: len(c[0][1].terms)),
    ("quadratization.ancillas", "quadratization.quadratize", lambda c, sec, _: c[0][1].num_ancilla_qubits),
    ("quadratization.penalty_ratio", "quadratization.quadratize", _penalty_ratio),
    ("polynomial.hubo_to_json.bytes", "polynomial.hubo_to_json", lambda c, sec, _: sum(len(r) for _, r in c)),
    ("solve.anneal.proposals", "solve.anneal", lambda c, sec, _: _proposals(c[0][1])),
    ("solve.anneal.proposals_per_s", "solve.anneal", lambda c, sec, _: _proposals(c[0][1]) / sec),
    ("verify.bitflip_descent.flips", "verify.bitflip_descent", lambda c, sec, _: sum(r[1] for _, r in c)),
    ("solve.decode.valid_share", "solve.decode_and_refine",
     lambda c, sec, _: sum(c[0][1].decoded_valid) / len(c[0][1].decoded_valid)),
    ("verify.dense_values.states_per_s", "verify.dense_values", lambda c, sec, _: sum(r.size for _, r in c) / sec),
)


def _solve_name(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "exhaustive")
    return f"solve.{method}"


class Tracer:
    """Span recorder; spans are ``[name, start_ns, end_ns, parent, op_id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.unavailable: set[str] = set()
        self._calls: list[tuple[int, tuple, object]] = []
        self._stack: list[int] = []
        self._first_span: dict[int, int] = {}
        self._op = -1
        self.next_op = 0
        self._wrappers: list[tuple[object, str, object, object]] = []
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._wrappers.append((module, attr, original, self._wrap(name, original)))

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self._calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [
                _solve_name(args, kwargs) if name == "solve.solve" else name,
                0,
                0,
                stack[-1] if stack else -1,
                self._op,
            ]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            calls.append((index, args, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._wrappers:
            setattr(module, attr, original)

    def run_op(self, fn, *args):
        """Call ``fn`` as the root span of a new op with the wrappers in place."""
        self._op = self.next_op
        self.next_op += 1
        index = len(self.spans)
        self._first_span[self._op] = index
        span = [ROOT, 0, 0, -1, self._op]
        self.spans.append(span)
        self._stack.append(index)
        self.install()
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self.uninstall()
            self._stack.pop()

    def layers(self, first_op: int) -> dict[str, float]:
        """Self seconds per span name, and the counts, of ops ``first_op`` onwards."""
        start = self._first_span[first_op]
        spans = self.spans[start:]
        child_ns: dict[int, int] = {}
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] = child_ns.get(s[3], 0) + (s[2] - s[1])
        out: dict[str, float] = {}
        total_ns: dict[str, int] = {}
        for k, s in enumerate(spans, start):
            key = s[0] + ".s"
            out[key] = out.get(key, 0.0) + ((s[2] - s[1]) - child_ns.get(k, 0)) / 1e9
            total_ns[s[0]] = total_ns.get(s[0], 0) + (s[2] - s[1])
        out["cli.self.s"] = out.pop(ROOT + ".s")
        out.update(self._counts(total_ns))
        self._calls.clear()
        return out

    def _counts(self, total_ns: dict[str, int]) -> dict[str, float]:
        calls: dict[str, list] = {}
        for index, args, result in self._calls:
            calls.setdefault(self.spans[index][0], []).append((args, result))
        out = {}
        for metric, span, count in COUNTS:
            if span not in calls:
                continue
            try:
                out[metric] = float(count(calls[span], total_ns[span] / 1e9, calls))
            except (AttributeError, TypeError, KeyError, IndexError, ValueError, ZeroDivisionError):
                self.unavailable.add(metric)
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "missing": self.missing,
            "unavailable_counts": sorted(self.unavailable),
            "spans": self.spans,
        }

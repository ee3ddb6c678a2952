"""Cost function network model, validation and JSON I/O.

A CFN is a set of discrete variables with tabulated unary costs and
pairwise interaction costs.  Choice indices are 1-based in the public
API and in the file format; internal storage is 0-based.

The canonical file format (CFN-JSON) is::

    {
      "variables": [{"name": "v0", "cardinality": 4}, ...],
      "unary":     [{"var": 0, "costs": [...]}, ...],
      "pairwise":  [{"vars": [0, 1], "costs": [... row-major ...]}, ...]
    }

Missing unary entries are treated as all-zero tables; a missing
pairwise entry means no interaction between that pair.  Tables are
kept as given: the encoder moves interaction marginals onto the
registers itself (``encoding.walsh_blocks``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CfnFormatError
from .polynomial import MAX_ABS_COST, is_int
from .walsh import MAX_TRANSFORM_DIM

__all__ = [
    "MAX_ABS_COST",
    "VariableSpec",
    "PairwiseTable",
    "Cfn",
    "parse_cfn",
    "serialize_cfn",
    "evaluate_cfn",
]

@dataclass(frozen=True)
class VariableSpec:
    name: str
    cardinality: int


@dataclass(frozen=True)
class PairwiseTable:
    """Interaction costs for an unordered variable pair, row-major.

    ``costs[(ci - 1) * card_j + (cj - 1)]`` is the cost of choices
    (ci, cj); ``i < j`` always.
    """

    i: int
    j: int
    costs: tuple[float, ...]

    def value(self, ci: int, cj: int, card_j: int) -> float:
        return self.costs[(ci - 1) * card_j + (cj - 1)]


@dataclass(frozen=True)
class Cfn:
    """A validated cost function network.

    Immutable after construction; all operations on it are pure
    functions, so instances can be shared freely across threads.
    """

    variables: tuple[VariableSpec, ...]
    unary_tables: tuple[tuple[float, ...], ...]
    pairwise_tables: tuple[PairwiseTable, ...]

    def __post_init__(self) -> None:
        _validate(self.variables, self.unary_tables, self.pairwise_tables)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def cardinality(self, i: int) -> int:
        return self.variables[i].cardinality

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((t.i, t.j) for t in self.pairwise_tables)


def _validate(variables, unary_tables, pairwise_tables) -> None:
    n = len(variables)
    for k, v in enumerate(variables):
        if v.cardinality < 1:
            raise CfnFormatError(f"variables[{k}].cardinality must be >= 1")
    if len(unary_tables) != n:
        raise CfnFormatError("unary_tables length does not match variable count")
    for k, table in enumerate(unary_tables):
        if len(table) != variables[k].cardinality:
            raise CfnFormatError(
                f"table shape mismatch: unary table for var {k} has "
                f"{len(table)} entries, cardinality is {variables[k].cardinality}"
            )
        x = _first_out_of_bound(table)
        if x is not None:
            raise CfnFormatError(f"unary table for var {k}: cost {x!r} is non-finite or |cost| > {MAX_ABS_COST:g}")
    seen_pairs = set()
    for t in pairwise_tables:
        if not (0 <= t.i < n) or not (0 <= t.j < n):
            raise CfnFormatError(f"pairwise table references out-of-range variable ({t.i}, {t.j})")
        if t.i >= t.j:
            raise CfnFormatError(f"pairwise table pair ({t.i}, {t.j}) must satisfy i < j")
        if (t.i, t.j) in seen_pairs:
            raise CfnFormatError(f"duplicate pairwise table for pair ({t.i}, {t.j})")
        seen_pairs.add((t.i, t.j))
        expected = variables[t.i].cardinality * variables[t.j].cardinality
        if len(t.costs) != expected:
            raise CfnFormatError(
                f"table shape mismatch: pairwise table ({t.i}, {t.j}) has "
                f"{len(t.costs)} entries, expected {expected}"
            )
        x = _first_out_of_bound(t.costs)
        if x is not None:
            raise CfnFormatError(
                f"pairwise table ({t.i}, {t.j}): cost {x!r} is non-finite or |cost| > {MAX_ABS_COST:g}"
            )


def _first_out_of_bound(costs):
    """The first cost that is NaN or above ``MAX_ABS_COST`` in magnitude, else None."""
    try:
        bad = np.flatnonzero(~(np.abs(np.asarray(costs, dtype=float)) <= MAX_ABS_COST))
    except OverflowError:  # an int past the float range, in a table built by hand
        return next(x for x in costs if not abs(x) <= MAX_ABS_COST)
    return costs[bad[0]] if bad.size else None


def parse_cfn(data: bytes | str) -> Cfn:
    """Parse CFN-JSON into a validated Cfn.

    Raises CfnFormatError naming the offending field on any schema
    violation, shape mismatch, duplicate pair, or a cost that is not
    finite or exceeds ``MAX_ABS_COST`` in magnitude, and CapacityError
    naming the variable on a cardinality above 2^``MAX_TRANSFORM_DIM``.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CfnFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CfnFormatError("top-level value must be an object")
    if "variables" not in doc:
        raise CfnFormatError("missing field: variables")

    variables = []
    for k, entry in enumerate(doc["variables"]):
        if not isinstance(entry, dict) or "cardinality" not in entry:
            raise CfnFormatError(f"variables[{k}] must be an object with a cardinality")
        card = entry["cardinality"]
        if not is_int(card) or card < 1:
            raise CfnFormatError(f"variables[{k}].cardinality must be a positive integer")
        if card > 1 << MAX_TRANSFORM_DIM:  # refused before its zero table is built
            raise CapacityError(
                f"variables[{k}].cardinality {card} exceeds cap 2^{MAX_TRANSFORM_DIM}, "
                f"the largest register a Walsh transform takes"
            )
        name = entry.get("name", f"v{k}")
        if not isinstance(name, str):
            raise CfnFormatError(f"variables[{k}].name must be a string")
        variables.append(VariableSpec(name=name, cardinality=card))
    n = len(variables)

    unary = [tuple(0.0 for _ in range(v.cardinality)) for v in variables]
    given = set()
    for k, entry in enumerate(doc.get("unary", [])):
        if not isinstance(entry, dict) or "var" not in entry or "costs" not in entry:
            raise CfnFormatError(f"unary[{k}] must be an object with var and costs")
        var = entry["var"]
        if not is_int(var):
            raise CfnFormatError(f"unary[{k}].var must be an integer variable index")
        if not 0 <= var < n:
            raise CfnFormatError(f"unary[{k}].var out of range")
        if var in given:
            raise CfnFormatError(f"unary[{k}].var: variable {var} already has a unary table")
        given.add(var)
        costs = _float_list(entry["costs"], f"unary[{k}].costs")
        unary[var] = costs

    pairwise = []
    for k, entry in enumerate(doc.get("pairwise", [])):
        if not isinstance(entry, dict) or "vars" not in entry or "costs" not in entry:
            raise CfnFormatError(f"pairwise[{k}] must be an object with vars and costs")
        pair = entry["vars"]
        if (not isinstance(pair, list)) or len(pair) != 2 or not all(is_int(x) for x in pair):
            raise CfnFormatError(f"pairwise[{k}].vars must be a pair of variable indices")
        costs = _float_list(entry["costs"], f"pairwise[{k}].costs")
        pairwise.append(PairwiseTable(i=pair[0], j=pair[1], costs=costs))

    return Cfn(variables=tuple(variables), unary_tables=tuple(unary), pairwise_tables=tuple(pairwise))


def _float_list(values, where: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise CfnFormatError(f"{where} must be a list of numbers")
    # json gives exactly int or float for a number; a bool is neither
    types = set(map(type, values))
    costs = None
    if types <= {float, int}:
        try:
            costs = np.array(values, dtype=float)
        except OverflowError:  # an int past the float range
            pass
    if costs is None or not np.isfinite(costs).all():
        raise CfnFormatError(f"{where} must contain only finite numbers")
    # all floats: keep the parsed objects rather than make new ones
    return tuple(values) if types <= {float} else tuple(costs.tolist())


def serialize_cfn(cfn: Cfn) -> str:
    """Emit CFN-JSON with keys in canonical order (variables, unary, pairwise)."""
    doc = {
        "variables": [{"name": v.name, "cardinality": v.cardinality} for v in cfn.variables],
        "unary": [
            {"var": i, "costs": list(table)} for i, table in enumerate(cfn.unary_tables)
        ],
        "pairwise": [
            {"vars": [t.i, t.j], "costs": list(t.costs)}
            for t in sorted(cfn.pairwise_tables, key=lambda t: (t.i, t.j))
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def evaluate_cfn(cfn: Cfn, assignment: list[int] | tuple[int, ...]) -> float:
    """Total cost of a full assignment of 1-based choice indices."""
    if len(assignment) != cfn.num_variables:
        raise ValueError(
            f"assignment length {len(assignment)} does not match {cfn.num_variables} variables"
        )
    for i, c in enumerate(assignment):
        if not (1 <= c <= cfn.cardinality(i)):
            raise ValueError(f"choice {c} out of range for variable {i}")
    total = 0.0
    for i, c in enumerate(assignment):
        total += cfn.unary_tables[i][c - 1]
    for t in cfn.pairwise_tables:
        total += t.value(assignment[t.i], assignment[t.j], cfn.cardinality(t.j))
    return total

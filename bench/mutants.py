"""Planted faults that the quick mode feeds to the oracles.

Each mutant rewrites the real outputs of one op.  All but the last go
to the workload's oracle alone, so none is caught merely because its
bytes differ from the op's real output; the last goes through the
repeat check.  An oracle that lets any of them pass would be vacuous.
"""

from __future__ import annotations

import json


def _edit_json(files: dict, name: str, edit) -> dict:
    doc = json.loads(files[name])
    edit(doc)
    return {**files, name: (json.dumps(doc, indent=2) + "\n").encode("utf-8")}


def _bump_term(doc: dict) -> None:
    term = next(t for t in doc["terms"] if len(t["qubits"]) == 2)
    term["coeff"] += 1e-3


def _bump_quadratic(doc: dict) -> None:
    doc["quadratic"][0]["coeff"] += 1e-3


def _wrong_choice(doc: dict) -> None:
    assignment = doc["solve"]["decoded_assignment"]
    assignment[0] = 2 if assignment[0] == 1 else 1


def _shift(block: str | None, key: str):
    def edit(doc: dict) -> None:
        target = doc[block] if block else doc
        target[key] += 1e-6

    return edit


def _append_space(files: dict) -> dict:
    return {**files, "report": files["report"] + b" "}


MUTANTS = (
    ("perturbed coefficient in the full HUBO", "wide_qubo", "compile",
     lambda f: _edit_json(f, "hubo", _bump_term)),
    ("perturbed coefficient in the truncated HUBO", "wide_qubo", "compile",
     lambda f: _edit_json(f, "trunc", _bump_term)),
    ("perturbed QUBO coupling", "wide_qubo", "compile",
     lambda f: _edit_json(f, "qubo", _bump_quadratic)),
    ("wrong certificate epsilon", "wide_qubo", "compile",
     lambda f: _edit_json(f, "cert", _shift(None, "epsilon"))),
    ("wrong decoded assignment", "sparse_anneal", "anneal",
     lambda f: _edit_json(f, "report", _wrong_choice)),
    ("wrong decoded assignment", "dense_exact", "anneal",
     lambda f: _edit_json(f, "report", _wrong_choice)),
    ("wrong corollary true_optimum", "dense_exact", "exact",
     lambda f: _edit_json(f, "report", _shift("corollary_check", "true_optimum"))),
    ("wrong verify global_min_value", "dense_exact", "verify",
     lambda f: _edit_json(f, "report", _shift(None, "global_min_value"))),
)
REPEAT_MUTANT = ("report bytes differ between repeated ops", "dense_exact", "verify", _append_space)

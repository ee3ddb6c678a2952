#!/usr/bin/env python3
"""Exact verification far past 2^n enumeration: a 120-qubit chain and
a 120-qubit grid.

Every coupling of the encoding lies on one register or on two, so the
full and the truncated landscapes are networks of small tables over
register bitstrings.  Min-sum elimination minimizes them exactly, in
time and memory set by the elimination width, not by the 2^120 states:
``tbe verify`` reports the exact minimum set, energy gap and barriers
of both, and ``compile --solve exhaustive`` the exact truncation
minimizer and the CFN's true optimum.

Writes ``chain40.json`` (40 variables in a path) and ``grid5x8.json``
(a 5 x 8 lattice), both of cardinality 8 with N(0, 1) tables, into the
directory given as the first argument (a temporary one when omitted),
and runs on each the equivalent of

    tbe verify --input chain40.json --kmax 3
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tbe import Cfn, PairwiseTable, VariableSpec, parse_cfn, serialize_cfn
from tbe.cli import main
from tbe.elimination import elimination_order

CARD = 8


def gaussian_cfn(num_vars: int, edges: list[tuple[int, int]], seed: int) -> Cfn:
    rng = np.random.default_rng(seed)
    variables = tuple(VariableSpec(f"v{i}", CARD) for i in range(num_vars))
    unary = tuple(tuple(rng.standard_normal(CARD).tolist()) for _ in range(num_vars))
    pairs = tuple(PairwiseTable(i, j, tuple(rng.standard_normal(CARD * CARD).tolist())) for i, j in edges)
    return Cfn(variables, unary, pairs)


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    cell = lambda r, c: r * cols + c
    right = [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    down = [(cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return sorted(right + down)


def write_instances(out_dir: Path) -> list[Path]:
    """The chain and the grid, as CFN-JSON files in ``out_dir``."""
    instances = {
        "chain40.json": gaussian_cfn(40, [(i, i + 1) for i in range(39)], seed=40),
        "grid5x8.json": gaussian_cfn(40, grid_edges(5, 8), seed=58),
    }
    for name, cfn in instances.items():
        (out_dir / name).write_text(serialize_cfn(cfn), encoding="utf-8")
    return [out_dir / name for name in instances]


def run(out_dir: Path) -> None:
    for path in write_instances(out_dir):
        cfn = parse_cfn(path.read_bytes())
        steps = elimination_order(cfn.num_variables, [(t.i, t.j) for t in cfn.pairwise_tables])
        width = max(len(neighbours) for _, neighbours in steps)
        report = out_dir / f"{path.stem}.verify.json"
        start = time.perf_counter()
        code = main(["verify", "--input", str(path), "--kmax", "3", "--out-report", str(report)])
        seconds = time.perf_counter() - start
        if code != 0:
            sys.exit(f"tbe verify on {path.name} exited {code}")
        print(f"{path.name}: {3 * cfn.num_variables} qubits, elimination width {width} "
              f"(largest table 2^{3 * (width + 1)} entries), tbe verify --kmax 3 in {seconds:.3f} s")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run(Path(tmp))

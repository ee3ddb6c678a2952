import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import (
    CapacityError,
    Cfn,
    CfnFormatError,
    PairwiseTable,
    VariableSpec,
    evaluate_cfn,
    parse_cfn,
    serialize_cfn,
)
from tbe.cfn import MAX_ABS_COST
from helpers import all_assignments, edges, naive_cfn_eval, random_cfn


def test_parse_minimal_instance():
    cfn = parse_cfn(b'{"variables": [{"name": "x", "cardinality": 2}], "unary": [{"var": 0, "costs": [0, 1]}]}')
    assert cfn.num_variables == 1
    assert cfn.unary_tables[0] == (0.0, 1.0)
    assert cfn.pairwise_tables == ()


def test_parse_two_card32_variables():
    costs = list(range(32 * 32))
    doc = {
        "variables": [{"name": "a", "cardinality": 32}, {"name": "b", "cardinality": 32}],
        "unary": [],
        "pairwise": [{"vars": [0, 1], "costs": costs}],
    }
    import json

    cfn = parse_cfn(json.dumps(doc))
    assert cfn.num_variables == 2
    assert edges(cfn) == ((0, 1),)
    assert len(cfn.pairwise_tables[0].costs) == 1024


def test_parse_missing_unary_is_zero():
    cfn = parse_cfn('{"variables": [{"cardinality": 3}]}')
    assert cfn.unary_tables[0] == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ('{"variables": [{"cardinality": 2}], "unary": [{"var": 0, "costs": [1]}]}', "shape mismatch"),
        (
            '{"variables": [{"cardinality": 2}, {"cardinality": 2}],'
            ' "pairwise": [{"vars": [0, 1], "costs": [1, 2, 3]}]}',
            "shape mismatch",
        ),
        (
            '{"variables": [{"cardinality": 2}, {"cardinality": 2}],'
            ' "pairwise": [{"vars": [0, 1], "costs": [1,2,3,4]}, {"vars": [0, 1], "costs": [1,2,3,4]}]}',
            "duplicate",
        ),
        ('{"variables": [{"cardinality": 0}]}', "cardinality"),
        ('{"variables": [{"cardinality": 2}], "unary": [{"var": 3, "costs": [1, 2]}]}', "out of range"),
        (
            '{"variables": [{"cardinality": 2}, {"cardinality": 2}],'
            ' "pairwise": [{"vars": [1, 0], "costs": [1,2,3,4]}]}',
            "i < j",
        ),
        ('{"variables": [{"cardinality": 2}], "unary": [{"var": 0, "costs": [1, null]}]}', "numbers"),
        # an integer too large for a float is out of range, not a traceback
        pytest.param(
            '{"variables": [{"cardinality": 2}], "unary": [{"var": 0, "costs": [0, 1%s]}]}' % ("0" * 400),
            r"unary\[0\]\.costs must contain only finite numbers",
            id="unary-cost-past-float-range",
        ),
        pytest.param(
            '{"variables": [{"cardinality": 1}, {"cardinality": 1}],'
            ' "pairwise": [{"vars": [0, 1], "costs": [-1%s]}]}' % ("0" * 400),
            r"pairwise\[0\]\.costs must contain only finite numbers",
            id="pairwise-cost-past-float-range",
        ),
        ("not json", "invalid JSON"),
    ],
)
def test_parse_errors_name_the_field(doc, fragment):
    with pytest.raises(CfnFormatError, match=fragment):
        parse_cfn(doc)


def test_bytes_that_are_not_utf8_are_invalid_json():
    # a variable name holding byte 0xff: the UnicodeDecodeError escaped
    # parse_cfn, so the CLI exited 1 and not 3
    with pytest.raises(CfnFormatError, match="invalid JSON: 'utf-8' codec can't decode byte 0xff"):
        parse_cfn(b'{"variables": [{"name": "\xff", "cardinality": 2}]}')
    # a byte-order mark is read past, as in HUBO-JSON and ensemble profiles
    assert parse_cfn(b'\xef\xbb\xbf{"variables": [{"cardinality": 2}]}').num_variables == 1


def test_non_finite_cost_rejected():
    with pytest.raises(CfnFormatError, match="non-finite"):
        Cfn(
            (VariableSpec("x", 2),),
            ((0.0, math.inf),),
            (),
        )


def test_serialize_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfn = random_cfn(rng, max_vars=3, max_card=5)
        again = parse_cfn(serialize_cfn(cfn))
        assert again == cfn


@st.composite
def _cfns(draw):
    """A CFN of 1-4 variables, any names and costs within the bound,
    pairwise tables in (i, j) order as ``serialize_cfn`` writes them."""
    cards = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    costs = st.floats(-MAX_ABS_COST, MAX_ABS_COST)
    variables = tuple(VariableSpec(draw(st.text(max_size=8)), c) for c in cards)
    unary = tuple(tuple(draw(st.lists(costs, min_size=c, max_size=c))) for c in cards)
    pairs = [(i, j) for i in range(len(cards)) for j in range(i + 1, len(cards)) if draw(st.booleans())]
    pairwise = tuple(
        PairwiseTable(i, j, tuple(draw(st.lists(costs, min_size=cards[i] * cards[j], max_size=cards[i] * cards[j]))))
        for i, j in pairs
    )
    return Cfn(variables, unary, pairwise)


@settings(max_examples=200, deadline=None)
@given(_cfns())
def test_serialize_then_parse_is_identity(cfn):
    assert parse_cfn(serialize_cfn(cfn)) == cfn


def test_evaluate_single_table_lookup():
    cfn = Cfn((VariableSpec("x", 2),), ((3.5, -2.0),), ())
    assert evaluate_cfn(cfn, [2]) == -2.0


def test_evaluate_matrix_lookup():
    cfn = Cfn(
        (VariableSpec("x", 2), VariableSpec("y", 2)),
        ((0.0, 0.0), (0.0, 0.0)),
        (PairwiseTable(0, 1, (1.0, 2.0, 3.0, 4.0)),),
    )
    assert evaluate_cfn(cfn, [2, 1]) == 3.0


def test_evaluate_matches_independent_summation():
    rng = np.random.default_rng(11)
    cfn = random_cfn(rng, max_vars=3, max_card=4, edge_prob=1.0)
    for assignment in all_assignments(cfn):
        assignment = list(assignment)
        assert evaluate_cfn(cfn, assignment) == pytest.approx(
            naive_cfn_eval(cfn, assignment), rel=1e-12
        )


def test_evaluate_rejects_out_of_range_choice():
    cfn = Cfn((VariableSpec("x", 2),), ((0.0, 0.0),), ())
    with pytest.raises(ValueError, match="out of range"):
        evaluate_cfn(cfn, [3])
    with pytest.raises(ValueError, match="out of range"):
        evaluate_cfn(cfn, [0])


def test_cardinality_past_the_transform_cap_refused_before_any_table():
    # these 42 bytes used to build a unary table of 134217729 zeros
    # before anything checked the size, and could run out of memory
    data = '{"variables":[{"cardinality": 134217729}]}'
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"variables\[0\]\.cardinality 134217729 exceeds cap 2\^26"):
            parse_cfn(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert parse_cfn('{"variables":[{"cardinality": 3}, {"cardinality": 2}]}').num_variables == 2


def test_large_missing_unary_table_bounded_in_chunks():
    # bounding the 2^22 zeros as one float array (and its copies) peaked at 96 MiB
    data = '{"variables":[{"cardinality": 4194304}]}'
    tracemalloc.start()
    try:
        cfn = parse_cfn(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cfn.unary_tables[0]) == 1 << 22
    assert peak < 40 << 20


@pytest.mark.parametrize("bad", [math.nan, -math.inf, 1e301, 10**400], ids=["nan", "-inf", "1e301", "int-past-float-range"])
@pytest.mark.parametrize("where", [3, 70000])
def test_first_out_of_bound_cost_named_in_any_chunk(bad, where):
    table = [0.0] * 70010
    table[where] = bad
    table[-1] = 2 * bad  # a later bad cost is not the one named
    message = rf"unary table for var 0: cost {re.escape(repr(bad))} is non-finite or \|cost\| > "
    with pytest.raises(CfnFormatError, match=message):
        Cfn((VariableSpec("x", len(table)),), (tuple(table),), ())


def test_cardinality_one_variable_allowed():
    cfn = Cfn((VariableSpec("const", 1), VariableSpec("x", 2)), ((5.0,), (0.0, 1.0)), ())
    assert evaluate_cfn(cfn, [1, 2]) == 6.0


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ('{"variables": [{"cardinality": 2}, {"cardinality": 2}],'
         ' "unary": [{"var": true, "costs": [1, 2]}]}', r"unary\[0\]\.var must be an integer"),
        ('{"variables": [{"cardinality": 2}, {"cardinality": 2}],'
         ' "pairwise": [{"vars": [false, true], "costs": [1, 2, 3, 4]}]}', r"pairwise\[0\]\.vars"),
        ('{"variables": [{"cardinality": 2}],'
         ' "unary": [{"var": 0, "costs": [1, 2]}, {"var": 0, "costs": [3, 4]}]}',
         r"unary\[1\]\.var: variable 0 already has a unary table"),
    ],
    ids=["bool-unary-var", "bool-pairwise-vars", "repeated-unary-var"],
)
def test_parse_rejects_bool_indices_and_repeated_unary(doc, fragment):
    with pytest.raises(CfnFormatError, match=fragment):
        parse_cfn(doc)

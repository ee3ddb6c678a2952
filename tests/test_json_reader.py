"""The one JSON reader: orjson reads, json decides every refusal.

The CLI tests of the fallback boundary (NaN literals, byte-order marks,
UTF-16 and UTF-32 bytes, integers past 64 bits, lone surrogates, invalid
custom maps and profiles) pin what ``json`` alone gave; the properties
check that the fast path reads every number to the float ``json`` does.
"""

import json
import math
import os
import subprocess
import sys
from decimal import Context, Decimal
from itertools import combinations
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import CapacityError, CfnFormatError, hubo_from_json, parse_cfn
from tbe.cfn import _build_cfn
from tbe.cli import main
from tbe.json_reader import MAX_FAST_DEPTH, _depth_bound, read_json
from tbe.polynomial import MAX_ABS_COST, _build_hubo

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demos" / "data" / "two_card32.json"


def _compile(tmp_path, text: bytes | str, *flags: str) -> int:
    path = tmp_path / "input.json"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return main(["compile", "--input", str(path), "--kmax", "1", *flags])


def test_a_nan_literal_in_a_cost_exits_3(tmp_path, capsys):
    text = '{"variables": [{"cardinality": 2}], "unary": [{"var": 0, "costs": [NaN, 1]}]}'
    assert _compile(tmp_path, text) == 3
    assert capsys.readouterr().err == "tbe: unary[0].costs must contain only finite numbers\n"


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32"])
def test_bom_and_utf16_copies_compile_to_the_same_hubo(tmp_path, encoding):
    copy = tmp_path / f"demo.{encoding}.json"
    copy.write_bytes(DEMO.read_text(encoding="utf-8").encode(encoding))
    outs = []
    for name, path in (("utf-8", DEMO), (encoding, copy)):
        out = tmp_path / f"{name}.hubo.json"
        assert main(["compile", "--input", str(path), "--kmax", "3", "--out-hubo", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_a_cardinality_past_64_bits_exits_4_with_the_cap(tmp_path, capsys):
    assert _compile(tmp_path, '{"variables": [{"cardinality": %d}]}' % 2**70) == 4
    assert capsys.readouterr().err == (
        f"tbe: variables[0].cardinality {2**70} exceeds cap 2^26, the largest register a Walsh transform takes\n"
    )


def test_a_lone_surrogate_name_is_kept(tmp_path):
    text = '{"variables": [{"name": "\\ud800", "cardinality": 2}], "unary": [{"var": 0, "costs": [1.5, -2]}]}'
    cfn = parse_cfn(text.encode())
    assert cfn.variables[0].name == "\ud800" and cfn.unary_tables == ((1.5, -2.0),)
    assert parse_cfn(text) == cfn
    assert _compile(tmp_path, text) == 0


def test_a_hubo_qubit_of_2_to_the_64_exits_4(tmp_path, capsys):
    text = '{"num_qubits": %d, "terms": [{"qubits": [%d], "coeff": 1.0}]}' % (2**64 + 1, 2**64)
    with pytest.raises(CapacityError, match=r"terms\[0\]\.qubits: qubit 18446744073709551616 is past 2\^63 - 1"):
        hubo_from_json(text)
    path = tmp_path / "hubo.json"
    path.write_text(text)
    assert main(["solve", "--hubo", str(path)]) == 4
    assert "is past 2^63 - 1, the largest stored qubit index" in capsys.readouterr().err


def test_an_invalid_custom_map_keeps_its_message(tmp_path, capsys):
    maps = tmp_path / "maps.json"
    maps.write_text("[[0, 1], ")
    assert main(["compile", "--input", str(DEMO), "--kmax", "1", "--assignment", f"custom:{maps}"]) == 3
    assert capsys.readouterr().err == (
        f"tbe: --assignment: custom map file {str(maps)!r} is not valid JSON: Expecting value: line 1 column 10 (char 9)\n"
    )
    maps.write_bytes(b"\xef\xbb\xbf[[0, 1]]")  # read as UTF-8 text, so the BOM stays a character
    assert main(["compile", "--input", str(DEMO), "--kmax", "1", "--assignment", f"custom:{maps}"]) == 3
    assert "is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)" in capsys.readouterr().err


def test_an_invalid_profile_keeps_its_message(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text('{"n": 2, "k_max": 1,}')
    assert main(["ensemble", "--profile", str(profile), "--trials", "10"]) == 3
    assert capsys.readouterr().err == (
        f"tbe: --profile {str(profile)!r} is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 21 (char 20)\n"
    )


def test_a_hubo_integer_past_4300_digits_exits_3(tmp_path, capsys):
    # json refuses its text with a plain ValueError, which HUBO-JSON's
    # reader let through: exit 1 with no field named
    path = tmp_path / "hubo.json"
    path.write_text('{"num_qubits": 1, "terms": [{"qubits": [0], "coeff": 1%s}]}' % ("0" * 5000))
    assert main(["solve", "--hubo", str(path)]) == 3
    assert capsys.readouterr().err.startswith("tbe: invalid JSON: Exceeds the limit (4300 digits)")


def test_nesting_past_the_recursion_limit_exits_3_and_never_reaches_orjson(tmp_path):
    # json's RecursionError ended in a traceback (exit 1); orjson itself
    # has no depth limit and overflows the stack on this text, so it runs
    # in a process of its own
    depth = 1_000_000
    path = tmp_path / "deep.json"
    path.write_text('{"variables": [{"cardinality": 2}], "extra": %s%s}' % ("[" * depth, "]" * depth))
    code = "import sys; from tbe.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, "compile", "--input", str(path), "--kmax", "1"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 3
    assert done.stderr == "tbe: invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string\n"


def test_a_document_deeper_than_the_fast_path_is_read_by_json():
    depth = MAX_FAST_DEPTH + 1
    text = '{"variables": [{"cardinality": 2}], "extra": %s%s}' % ("[" * depth, "]" * depth)
    assert _depth_bound(text.encode()) == depth + 1
    assert parse_cfn(text).num_variables == 1


@pytest.mark.parametrize(
    "text, depth",
    [
        (b"", 0),
        (b"1.5", 0),
        (b'{"a": [[1], {"b": []}]}', 4),
        (b'["]]]]", [[[1]]]]', 4),  # closing brackets in a string do not end a level
        (b'["[[[[[", 1]', 1),
        (b'["\\"", [[1]]]', 3),  # with an escaped quote every opening bracket counts
        (b'[1, "unterminated [[', 4),
    ],
)
def test_depth_bound(text, depth):
    assert _depth_bound(text) == depth


def _nested(depth: int, leaf: str) -> object:
    return leaf if depth == 0 else [{"k[": _nested(depth - 1, leaf)}]


@given(st.integers(0, 6), st.text(alphabet='[]{}"\\ab', max_size=8))
def test_depth_bound_is_at_least_the_depth(depth, leaf):
    text = json.dumps(_nested(depth, leaf)).encode()
    assert _depth_bound(text) >= 2 * depth
    if b"\\" not in text:
        assert _depth_bound(text) == 2 * depth


def test_read_json_builds_once_on_the_fast_path():
    docs = []
    assert read_json(b'{"a": [1, 2.5]}', lambda doc: docs.append(doc) or len(docs), "invalid JSON") == 1
    assert docs == [{"a": [1, 2.5]}]


def test_read_json_rebuilds_a_refused_document_from_json():
    # orjson reads 2^64 as a float, which this build refuses; json's int passes
    def build(doc):
        if not isinstance(doc[0], int):
            raise CfnFormatError("not an int")
        return doc[0]

    assert read_json(b"[18446744073709551616]", build, "invalid JSON") == 2**64
    with pytest.raises(CfnFormatError, match=r"^maps: Expecting value: line 1 column 2 \(char 1\)$"):
        read_json(b"[", build, "maps")


# Numbers in the notations a CFN or HUBO writer might use, every one at
# most MAX_ABS_COST in magnitude: round-trip repr, long and exponent
# forms, subnormals, signed zeros, integers past 64 bits, and the exact
# decimal halfway between two adjacent floats.
_FLOATS = st.floats(-MAX_ABS_COST, MAX_ABS_COST, allow_nan=False)
_SUBNORMALS = st.floats(-2.3e-308, 2.3e-308)
_FORMATS = [repr, "%.25g".__mod__, "%.17e".__mod__, "%.40E".__mod__, "%.3e".__mod__, "%.0f".__mod__]


def _halfway(x: float) -> str:
    up = math.nextafter(abs(x), math.inf)
    mid = Context(prec=2000).divide(Decimal(abs(x)) + Decimal(up), 2)
    return ("-" if math.copysign(1.0, x) < 0 else "") + str(mid)


_NUMBERS = st.one_of(
    st.builds(lambda f, x: f(x), st.sampled_from(_FORMATS), st.one_of(_FLOATS, _SUBNORMALS)),
    st.builds(str, st.integers(-(10**30), 10**30)),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-(10**25), 10**25), st.integers(-360, 75)),
    st.builds(_halfway, st.floats(-1e99, 1e99, allow_nan=False)),
    st.sampled_from(["-0.0", "-0", "0", "0e0", "-0E-5", "5e-324", "2.2250738585072011e-308", "1e100", "-1e100"]),
)


def _outcome(read, text):
    """What reading ``text`` gives: its canonical value, with floats as
    their hex text, so signed zeros and every bit compare, or the refusal."""
    try:
        value = read(text)
    except (CfnFormatError, CapacityError) as exc:
        return type(exc), str(exc)
    return _canonical(value)


def _canonical(value):
    if hasattr(value, "variables"):
        return (
            [(v.name, type(v.cardinality), v.cardinality) for v in value.variables],
            [_floats(table) for table in value.unary_tables],
            [(t.i, t.j, _floats(t.costs)) for t in value.pairwise_tables],
        )
    return (
        value.num_qubits,
        value.qubits.tolist(),
        value.offsets.tolist(),
        value.coeffs.dtype,
        value.coeffs.view(np.int64).tolist(),
    )


def _floats(values):
    return [(type(x), x.hex()) for x in values]


@st.composite
def cfn_texts(draw):
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = len(cards)

    def costs(count):
        return "[" + ", ".join(draw(st.lists(_NUMBERS, min_size=count, max_size=count))) + "]"

    unary = [
        '{"var": %d, "costs": %s}' % (i, costs(cards[i]))
        for i in draw(st.lists(st.integers(0, n - 1), unique=True))
    ]
    every_pair = list(combinations(range(n), 2))
    pairs = draw(st.lists(st.sampled_from(every_pair), unique=True)) if every_pair else []
    pairwise = ['{"vars": [%d, %d], "costs": %s}' % (i, j, costs(cards[i] * cards[j])) for i, j in pairs]
    variables = ", ".join('{"name": "v%d", "cardinality": %d}' % (i, c) for i, c in enumerate(cards))
    return '{"variables": [%s], "unary": [%s], "pairwise": [%s]}' % (variables, ", ".join(unary), ", ".join(pairwise))


@st.composite
def hubo_texts(draw):
    n = draw(st.integers(1, 6))
    terms = draw(st.lists(st.tuples(st.lists(st.integers(0, n - 1), unique=True, max_size=3), _NUMBERS), max_size=8))
    return '{"num_qubits": %d, "terms": [%s]}' % (
        n,
        ", ".join('{"qubits": %s, "coeff": %s}' % (qubits, coeff) for qubits, coeff in terms),
    )


@settings(max_examples=300, deadline=None)
@given(cfn_texts())
def test_parse_cfn_reads_every_number_as_json_does(text):
    want = _outcome(lambda t: _build_cfn(json.loads(t)), text)
    assert _outcome(lambda t: _build_cfn(orjson.loads(t)), text) == want
    assert _outcome(parse_cfn, text.encode()) == want


@settings(max_examples=300, deadline=None)
@given(hubo_texts())
def test_hubo_from_json_reads_every_number_as_json_does(text):
    want = _outcome(lambda t: _build_hubo(json.loads(t)), text)
    assert _outcome(lambda t: _build_hubo(orjson.loads(t)), text) == want
    assert _outcome(hubo_from_json, text.encode()) == want

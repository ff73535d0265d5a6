"""CLI behavior: exit codes, deterministic outputs, expression parsing,
and the documented file formats."""

import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from selfsim.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY_FAILED,
    MAX_WORD_LENGTH,
    ElementExpr,
    ExprError,
    cycles,
    eval_expr,
    main,
    parse_expr,
)
from selfsim.instances import load_config
from selfsim.ring import MAX_POLY_DEGREE, DensePoly

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression parsing -------------------------------------------------------


def test_parse_expr_words():
    e = parse_expr("u x0^-1 u^2")
    assert e.terms == (("u", 1), ("x0", -1), ("u", 2))
    assert e.render() == "u x0^-1 u^2"


def test_parse_expr_drops_zero_exponents():
    assert parse_expr("u^0 x0").terms == (("x0", 1),)


def test_parse_expr_rejects_garbage():
    with pytest.raises(ExprError):
        parse_expr("u^^2")
    with pytest.raises(ExprError):
        parse_expr("3bad")
    with pytest.raises(ExprError):
        parse_expr("")
    with pytest.raises(ExprError):
        parse_expr("{not json")


@pytest.mark.parametrize(
    "text", ["u^", "u^ x0", "u^1_0", "u^\u0661\u0660", "u^2^3", "u^+-1", "u^ 2", "u^x0", "u^1.0"]
)
def test_parse_expr_caret_takes_only_a_signed_integer(capsys, text):
    # a bare caret, underscores and non-ASCII digits are refused, not read
    # as exponent 1 or 10
    with pytest.raises(ExprError, match="bad exponent"):
        parse_expr(text)
    code, out, err = run(capsys, "decompose", str(CONFIGS / "lamplighter_p2_n1.json"), text)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("expression error: bad exponent") and err.count("\n") == 1


def test_parse_expr_signed_exponents():
    assert parse_expr("u^+2 x0^-1 u^007").terms == (("u", 2), ("x0", -1), ("u", 7))


def test_parse_expr_bounds_word_length():
    # the length is the sum of |exponent| over the terms
    assert MAX_WORD_LENGTH == 256
    assert len(parse_expr("u^128 x0^-127 u").terms) == 3
    with pytest.raises(ExprError, match="length 257"):
        parse_expr("u^128 x0^-128 u")


@pytest.mark.parametrize("command", ["decompose", "automaton"])
@pytest.mark.parametrize(
    "expr, expected",
    [("u x1^-100000000", EXIT_PARSE), ("u x1^-255", EXIT_OK), ("u x1^-256", EXIT_PARSE)],
    ids=["huge", "length-256", "length-257"],
)
def test_word_length_bound_exits_3_before_group_work(capsys, command, expr, expected):
    extra = ["--cap", "64", "--format", "json"] if command == "automaton" else []
    code, out, err = run(capsys, command, str(CONFIGS / "lamplighter_p2_n2.json"), expr, *extra)
    assert code == expected
    if expected == EXIT_PARSE:
        assert out == ""
        assert err.count("\n") == 1 and "exceeds 256" in err
    else:
        assert err == "" and out


def test_expr_round_trip_reparses_to_equal_element():
    inst = load_config(CONFIGS / "lamplighter_p2_n2.json")
    for text in ("u x0^-1 u^2", "x1^3 u", "u*u*x0^-2", "e"):
        expr = parse_expr(text)
        round_tripped = parse_expr(expr.render())
        assert eval_expr(inst, expr) == eval_expr(inst, round_tripped)


def test_eval_expr_unknown_generator():
    inst = load_config(CONFIGS / "lamplighter_p2_n1.json")
    with pytest.raises(ExprError):
        eval_expr(inst, parse_expr("z9"))


def test_affine_literal():
    inst = load_config(CONFIGS / "affine_n3_p2.json")
    e = eval_expr(inst, parse_expr('{"v": [[1], [], []], "b": [[[1],[],[]],[[],[1],[]],[[],[],[1]]]}'))
    assert e == inst.generators()["t1"]


def test_borel_literal():
    inst = load_config(CONFIGS / "borel_m2_p2.json")
    lit = '{"n": [[[], [1]], [[], []]], "d": [{"c": 1, "exps": [0, 0]}, {"c": 1, "exps": [0, 0]}]}'
    e = eval_expr(inst, parse_expr(lit))
    assert e == inst.generators()["u1"]


def test_wreath_rejects_literals():
    inst = load_config(CONFIGS / "wreath_base_p2_d2.json")
    with pytest.raises(ExprError):
        eval_expr(inst, ElementExpr(literal={"r": []}))


# -- build ---------------------------------------------------------------------


def test_build_lamplighter(capsys):
    code, out, _ = run(capsys, "build", str(CONFIGS / "lamplighter_p2_n1.json"))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["degree"] == 2
    assert data["transversal"] == ["e", "u"]
    assert data["validation"]["ok"] is True


def test_build_borel_m3(capsys):
    code, out, _ = run(capsys, "build", str(CONFIGS / "borel_m3_p2.json"))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["degree"] == 16
    assert data["transversal_size"] == 16


def test_build_borel_large_p_sextic(tmp_path, capsys):
    # x^6+x+3 is irreducible over F_4093; deciding it must not search divisors
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"family": "borel", "p": 4093, "m": 2, "polys": [[0, 1], [3, 1, 0, 0, 0, 0, 1]]}
    ))
    code, out, _ = run(capsys, "build", str(path))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["degree"] == 4093
    assert data["validation"]["ok"] is True


def test_build_invalid_config_exits_1(capsys):
    code, out, err = run(capsys, "build", str(CONFIGS / "invalid_lamplighter.json"))
    assert code == EXIT_INVALID
    assert "x-1" in err


def test_build_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "build", str(CONFIGS / "nope.json"))
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frob"],
        ["build"],
        ["decompose", str(CONFIGS / "lamplighter_p2_n1.json"), "-u"],
        ["decompose", str(CONFIGS / "lamplighter_p2_n1.json"), "u", "--depth", "x"],
        ["verify", str(CONFIGS / "lamplighter_p2_n1.json"), "--suite", "nope"],
    ],
    ids=["no-command", "unknown-command", "missing-config", "option-like-expr", "non-int-depth", "bad-suite"],
)
def test_usage_error_exits_3_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: selfsim")


LAMP_F2 = {"family": "lamplighter", "p": 2}
WREATH_F2 = {"family": "wreath", "p": 2, "d": 2, "localized": True}


@pytest.mark.parametrize(
    "content, expected",
    [
        ({**LAMP_F2, "polys": [[0, "a"]]}, EXIT_INVALID),
        ({**LAMP_F2, "polys": [[0, 1.7]]}, EXIT_INVALID),
        ({**LAMP_F2, "polys": [[0, True]]}, EXIT_INVALID),
        ({**WREATH_F2, "g": 5}, EXIT_INVALID),
        (b'{"family": "\xff"}', EXIT_PARSE),
        (None, EXIT_PARSE),
        ({"family": "wreath", "p": 2, "d": True}, EXIT_INVALID),
        ({**WREATH_F2, "g": [1, 1, 1], "localized": "false"}, EXIT_INVALID),
        ({**LAMP_F2, "n": True, "polys": [[0, 1]]}, EXIT_INVALID),
        ({**LAMP_F2, "p": 10**18 + 3, "polys": [[0, 1]]}, EXIT_INVALID),
        ({"family": "wreath", "p": 4093, "d": 1}, EXIT_INVALID),
        ({"family": "borel", "p": 3, "m": 3000, "polys": [[0, 1]]}, EXIT_INVALID),
        ({"family": "wreath", "p": 2, "d": 10**8}, EXIT_INVALID),
        ({**LAMP_F2, "polys": [[0, 1], [1] * 200 + [1]]}, EXIT_INVALID),
        ({"family": "borel", "p": 4093, "m": 2, "polys": [[0, 1], [1] * 65 + [1]]}, EXIT_INVALID),
        ({**WREATH_F2, "g": [1] * 66}, EXIT_INVALID),
        ({"family": "wreath", "p": 2, "d": 2, "locallized": True, "g": [1, 1]}, EXIT_INVALID),
        ({"family": "wreath", "p": 2, "d": 2, "g": [1, 1]}, EXIT_INVALID),
        ({"family": "wreath", "p": 2, "d": 2, "g": [1, 1], "localized": False}, EXIT_INVALID),
        ({"family": "borel", "p": 2, "m": 2, "polys": [[0, 1]], "n": 2}, EXIT_INVALID),
        ({"family": "affine", "p": 2, "n": 3, "polys": [[0, 1]]}, EXIT_INVALID),
        ({**LAMP_F2, "polys": [[0, 1]], "m": 2}, EXIT_INVALID),
        ({**LAMP_F2, "polys": [[0, 1]], "P": 2}, EXIT_INVALID),
        ({"family": ["wreath"], "p": 2}, EXIT_INVALID),
        (b'{"family": "lamplighter", "p": 2, "polys": [[0,1]], "p": 3}', EXIT_INVALID),
        (b'{"family": "lamplighter", "p": 1' + b"0" * 5000 + b"}", EXIT_INVALID),
        (b"[" * 100000, EXIT_INVALID),
        ({"family": "affine", "p": 2, "n": 9}, EXIT_INVALID),
        ({"family": "affine", "p": 2, "n": 100000}, EXIT_INVALID),
        ({**LAMP_F2, "p": 0, "polys": [[0, 1]]}, EXIT_INVALID),
        ({"family": "borel", "p": -2, "m": 2, "polys": [[0, 1]]}, EXIT_INVALID),
    ],
    ids=[
        "string-coeff", "float-coeff", "bool-coeff", "scalar-g", "non-utf8", "directory",
        "bool-d", "string-localized", "bool-n", "huge-p", "huge-degree", "huge-borel-m",
        "huge-wreath-d", "huge-poly-degree", "huge-borel-poly-degree", "huge-g-degree",
        "wreath-misspelt-key", "wreath-g-unlocalized", "wreath-g-localized-false",
        "borel-extra-key", "affine-extra-key", "lamplighter-extra-key", "wrong-case-key",
        "list-family", "repeated-key", "int-over-digit-limit", "deeply-nested",
        "affine-n-over-bound", "huge-affine-n", "zero-p", "negative-p",
    ],
)
def test_build_bad_config_one_line_error(tmp_path, capsys, content, expected):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    code, out, err = run(capsys, "build", str(path))
    assert code == expected
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


# -- decompose -----------------------------------------------------------------


@pytest.mark.parametrize(
    "literal",
    [
        '{"d": [{"c": 0}, {"c": 1}]}',
        '{"d": "x"}',
        '{"d": [{"c": 1}]}',
        '{"d": [7, {}]}',
        '{"d": [{"c": true}, {}]}',
        '{"d": [{"c": 1, "exps": ["1", 0]}, {}]}',
        '{"d": [{"c": 1, "exps": 3}, {}]}',
        '{"n": [[[5,1], [1]], [[0,1], [7,0,1]]]}',
        '{"n": [[[], [1]]]}',
        '{"n": [[[], [1]], [[], []], [[], []]]}',
        '{"n": [[[], [1], []], [[], []]]}',
        '{"n": [[0, [1]], [[], []]]}',
        '{"n": [[[], [1]], [[], [1]]]}',
        '{"n": 5}',
        '{"d": [{"c": 1, "exps": [1]}, {}]}',
        '{"d": [{"c": 2}, {}]}',
        '{"d": [{"c": 1, "exps": [100000000, 0]}, {}]}',
        '{"n": [[[], {"num": [1], "den": [0, 257]}], [[], []]]}',
        '{"D": [{"c": 1, "exps": [1, 0]}, {}]}',
        '{"d": [{"c": 1, "exp": [1, 0]}, {}]}',
        '{"n": [[[], {"num": [1], "dem": [1, 0]}], [[], []]]}',
        '{"d": [{"c": 0, "c": 1}, {}]}',
        '{"d": [{"c": 1' + "0" * 5000 + '}, {}]}',
        '{"n": ' + "[" * 50000 + "]" * 50000 + "}",
    ],
    ids=[
        "non-unit", "string-d", "short-d", "int-unit", "bool-c", "string-exp", "scalar-exps",
        "filled-lower-cells", "short-n", "long-n", "long-row", "zero-diagonal-cell",
        "one-diagonal-cell", "scalar-n", "short-exps", "c-zero-mod-p", "huge-exp", "huge-den",
        "unknown-key", "unknown-d-key", "unknown-fraction-key", "repeated-key",
        "int-over-digit-limit", "deeply-nested",
    ],
)
def test_decompose_bad_borel_literal_one_line_error(capsys, literal):
    code, out, err = run(capsys, "decompose", str(CONFIGS / "borel_m2_p2.json"), literal)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, literal",
    [
        ("borel_m2_p2.json", '{"n": [[[], [1.7]], [[], []]]}'),
        ("borel_m2_p2.json", '{"n": [[[], ["1"]], [[], []]]}'),
        ("borel_m2_p2.json", '{"n": [[[], "11"], [[], []]]}'),
        ("borel_m2_p2.json", '{"n": [[[], {"num": [true]}], [[], []]]}'),
        ("borel_m2_p2.json", '{"n": [[[], {"num": [1], "den": [1.5, 0]}], [[], []]]}'),
        ("affine_n3_p2.json", '{"v": [["1"], [], [1.5]]}'),
        ("affine_n3_p2.json", '{"v": [[1], [], 7]}'),
        ("affine_n3_p2.json", '{"b": [[[1], [], []], [[], [1], []], [[], [], [1.0]]]}'),
        ("affine_n3_p2.json", '{"v": [[1], [], []], "B": []}'),
    ],
    ids=[
        "borel-float", "borel-string", "borel-string-cell", "borel-bool-num", "borel-float-den",
        "affine-string-float", "affine-scalar", "affine-float-matrix", "affine-unknown-key",
    ],
)
def test_decompose_literal_non_integer_one_line_error(capsys, config, literal):
    code, out, err = run(capsys, "decompose", str(CONFIGS / config), literal)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "literal, shape",
    [
        ('{"b": 5}', "'b' must be a list of rows of coefficient lists"),
        ('{"b": null}', "'b' must be a list of rows of coefficient lists"),
        ('{"b": [5, 5, 5]}', "'b' must be a list of rows of coefficient lists"),
        ('{"b": {"a": [1]}}', "'b' must be a list of rows of coefficient lists"),
        ('{"v": null}', "'v' must be a list of coefficient lists"),
        ('{"v": 5}', "'v' must be a list of coefficient lists"),
        ('{"v": {"a": [1]}}', "'v' must be a list of coefficient lists"),
        ('{"v": [[1]]}', "an affine element has 3 vector entries and 3 x 3 matrix entries"),
        ('{"b": [[[1], []], [[], [1]]]}', "an affine element has 3 vector entries and 3 x 3 matrix entries"),
    ],
    ids=["scalar-b", "null-b", "flat-b", "object-b", "null-v", "scalar-v", "object-v", "short-v", "small-b"],
)
def test_decompose_affine_literal_shape_one_line_error(capsys, literal, shape):
    # the message names the expected shape, not Python's own error text
    code, out, err = run(capsys, "decompose", str(CONFIGS / "affine_n3_p2.json"), literal)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert f"bad literal: {shape}" in err


A_LONG = "[" + ",".join(["1"] * 20000) + "]"


@pytest.mark.parametrize(
    "config, literal",
    [
        ("affine_n3_p2.json", '{"b": [[%s,[],[]],[[],%s,[]],[[],[],[1]]]}' % (A_LONG, A_LONG)),
        ("affine_n3_p2.json", '{"v": [[], [], %s]}' % ("[" + "0," * 65 + "1]")),
        ("borel_m2_p2.json", '{"n": [[[], %s], [[], []]]}' % A_LONG),
        ("borel_m2_p2.json", '{"n": [[[], {"num": %s, "den": [20000, 0]}], [[], []]]}' % (
            "[" + "0," * 20000 + "1]")),
    ],
    ids=["affine-matrix", "affine-vector", "borel-cell", "borel-fraction"],
)
def test_decompose_literal_past_degree_bound_one_line_error(capsys, config, literal):
    # each polynomial is checked against MAX_POLY_DEGREE as it is read, so
    # neither a determinant nor a cancellation sees it
    code, out, err = run(capsys, "decompose", str(CONFIGS / config), literal)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "bad literal: a polynomial has degree" in err and f"> {MAX_POLY_DEGREE}" in err


def test_decompose_literal_at_degree_bound(capsys):
    literal = '{"v": [[], [], %s]}' % ("[" + "0," * 64 + "1]")
    code, out, _ = run(capsys, "decompose", str(CONFIGS / "affine_n3_p2.json"), literal)
    assert code == EXIT_OK and out


def test_decompose_u_p3(capsys):
    code, out, _ = run(capsys, "decompose", str(CONFIGS / "lamplighter_p3_n2.json"), "u")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["perm"] == [1, 2, 0]
    assert data["cycles"] == "(0 1 2)"
    assert data["states"] == ["e", "e", "e"]


def _perm_cycles(images) -> str:
    """The cycle rendering of the former engine permutation class, kept
    as the oracle of `cycles`."""
    seen = [False] * len(images)
    parts = []
    for i in range(len(images)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = images[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = images[j]
        if len(cyc) > 1:
            parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def test_cycles_match_the_oracle_on_every_small_permutation():
    for m in range(6):
        for images in itertools.permutations(range(m)):
            assert cycles(images) == _perm_cycles(images)
    assert cycles((0, 1, 2)) == "()" and cycles((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"


def test_decompose_x0_inverse(capsys):
    code, out, _ = run(
        capsys, "decompose", str(CONFIGS / "lamplighter_p2_n1.json"), "x0^-1"
    )
    data = json.loads(out)
    assert data["states"][0] == "x0^-1"
    assert "u" in data["states"][1]


def test_decompose_identity_portrait(capsys):
    code, out, _ = run(
        capsys,
        "decompose",
        str(CONFIGS / "lamplighter_p2_n1.json"),
        "e",
        "--depth",
        "3",
    )
    data = json.loads(out)
    node = data["portrait"]
    assert node[0] == [0, 1]
    assert node[1][0][0] == [0, 1]


def test_decompose_parse_error_exit_3(capsys):
    code, _, err = run(
        capsys, "decompose", str(CONFIGS / "lamplighter_p2_n1.json"), "zz^"
    )
    assert code == EXIT_PARSE


# -- automaton ------------------------------------------------------------------


def test_automaton_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "lamp.json"
    code, _, _ = run(
        capsys,
        "automaton",
        str(CONFIGS / "lamplighter_p2_n1.json"),
        "x0^-1",
        "--cap",
        "8",
        "--format",
        "json",
        "-o",
        str(out_file),
    )
    assert code == EXIT_OK
    from selfsim.engine import MealyAutomaton

    blob = out_file.read_bytes()
    assert MealyAutomaton.from_json_bytes(blob).to_json_bytes() == blob
    data = json.loads(blob)
    assert len(data["states"]) == 2


def test_automaton_dot_stdout(capsys):
    code, out, _ = run(
        capsys,
        "automaton",
        str(CONFIGS / "lamplighter_p2_n1.json"),
        "x0^-1",
        "--cap",
        "8",
    )
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert "0|1" in out


def test_bad_cap_and_depth_exit_3(capsys):
    code, _, _ = run(
        capsys,
        "automaton",
        str(CONFIGS / "lamplighter_p2_n1.json"),
        "u",
        "--cap",
        "0",
    )
    assert code == EXIT_PARSE
    code, _, _ = run(
        capsys,
        "decompose",
        str(CONFIGS / "lamplighter_p2_n1.json"),
        "u",
        "--depth",
        "-2",
    )
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "config, depth",
    [("lamplighter_p2_n2.json", "40"), ("lamplighter_p2_n2.json", "21"),
     ("wreath_localized_p2_d2.json", "7"), ("lamplighter_p2_n2.json", str(10**9)),
     ("lamplighter_p2_n2.json", "17")],
)
def test_portrait_over_leaf_bound_exits_3(capsys, config, depth):
    # 2^40, 2^21, 8^7 = 2^21, 2^(10^9) and 2^17 leaves: refused before the
    # expression (itself over the length bound) is parsed
    code, out, err = run(capsys, "decompose", str(CONFIGS / config), "u x1^-100000000", "--depth", depth)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.count("\n") == 1 and "leaves" in err


def test_automaton_cap_exceeded_reported(capsys):
    code, out, _ = run(
        capsys,
        "automaton",
        str(CONFIGS / "wreath_base_p2_d2.json"),
        "a x1",
        "--cap",
        "4",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["cap_exceeded"] is True
    assert data["visited"] <= 4


def test_automaton_borel_diagonal_generator(capsys):
    # both spellings of the diagonal generator name are accepted
    for name in ("x1s1", "x1_1"):
        code, out, _ = run(
            capsys,
            "automaton",
            str(CONFIGS / "borel_m2_p2.json"),
            name,
            "--cap",
            "8",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert "cap_exceeded" not in data
        assert len(data["states"]) <= 8


def test_automaton_outputs_deterministic(capsys):
    args = (
        "automaton",
        str(CONFIGS / "lamplighter_p2_n2.json"),
        "x1^-1",
        "--cap",
        "16",
        "--format",
        "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


# -- verify -----------------------------------------------------------------------


def test_verify_core_lamplighter(capsys):
    code, out, _ = run(
        capsys, "verify", str(CONFIGS / "lamplighter_p2_n1.json"), "--suite", "core"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "transversal_valid" in names and "product_rule" in names


def test_verify_family_suite_requires_family(capsys):
    code, _, err = run(
        capsys, "verify", str(CONFIGS / "affine_n3_p2.json"), "--suite", "lamplighter"
    )
    assert code == EXIT_INVALID


def test_verify_lamplighter_suite(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        str(CONFIGS / "lamplighter_p2_n1.json"),
        "--suite",
        "lamplighter",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    assert any(c["name"] == "classical_two_state_machine" for c in data["checks"])


def test_verify_seeded_runs_are_reproducible(capsys):
    args = ("verify", str(CONFIGS / "lamplighter_p2_n2.json"), "--suite", "tame", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# -- tame -------------------------------------------------------------------------


def test_tame_reports(capsys):
    code, out, _ = run(capsys, "tame", str(CONFIGS / "lamplighter_p2_n1.json"))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["tame_degree"] == 1
    assert data["finitely_presented"] is False
    code, out, _ = run(capsys, "tame", str(CONFIGS / "lamplighter_p2_n2.json"))
    data = json.loads(out)
    assert data["tame_degree"] == 2 and data["finitely_presented"] is True


def test_tame_on_forty_basis_polynomials_is_fast(tmp_path):
    # x and the 39 irreducible polynomials of degree 2 to 7 over F_2 other
    # than x + 1 (each has f(1) = 1); a subset search over the 41 characters
    # would not finish
    polys = [[0, 1]]
    for bits in range(4, 256):
        coeffs = [(bits >> i) & 1 for i in range(bits.bit_length())]
        if DensePoly(2, coeffs).is_irreducible():
            polys.append(coeffs)
    assert len(polys) == 40
    path = tmp_path / "lamplighter_p2_n40.json"
    path.write_text(json.dumps({"family": "lamplighter", "p": 2, "polys": polys}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    for argv in (["tame"], ["verify", "--suite", "tame", "--seed", "0"]):
        done = subprocess.run(
            [sys.executable, "-m", "selfsim.cli", argv[0], str(path), *argv[1:]],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == EXIT_OK, done.stderr
        data = json.loads(done.stdout)
        if argv[0] == "tame":
            assert data["tame_degree"] == data["fp_type"] == 40
        else:
            assert data["passed"] and all(c["passed"] for c in data["checks"])
            assert data["checks"][0]["details"] == "degree 40, n 40"


def test_tame_unsupported_family(capsys):
    code, _, err = run(capsys, "tame", str(CONFIGS / "affine_n3_p2.json"))
    assert code == EXIT_INVALID
    assert "lamplighter" in err


# -- README ----------------------------------------------------------------------


def _readme_commands() -> list:
    """The argument lists of the `selfsim ...` lines of the README's CLI
    block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("selfsim ")]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    commands = _readme_commands()
    assert commands
    monkeypatch.chdir(ROOT)
    for argv in commands:
        if "-o" in argv:
            k = argv.index("-o") + 1
            argv[k] = str(tmp_path / argv[k])
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        assert out
    assert (tmp_path / "aut.json").exists()

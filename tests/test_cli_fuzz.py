"""Fuzzed CLI input, run in process through `selfsim.cli.main`.

Arbitrary config files and arbitrary expressions on the shipped configs
must each end in a documented exit code (0/1/2/3) with at most one line
on stderr and no warning, and no exception may escape `main`.  Examples
are drawn deterministically (`derandomize=True`) and their number is
bounded.
"""

import functools
import json
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from selfsim.cli import main  # noqa: E402
from selfsim.instances import InstanceConfigError, load_config  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(str(path) for path in CONFIGS.glob("*.json"))

FUZZ = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)

# configs with a family's keys and small values, which build in a fraction
# of a second, as they are or with one value replaced by any JSON value
P = st.sampled_from([2, 3, 5, 4, 1, -3])
POLYS = st.lists(st.sampled_from([[1, 1, 1], [2, 1, 1], [1, 1], [1, 0, 1], [1, 1, 0, 1]]), max_size=2).map(
    lambda fs: [[0, 1]] + fs
)
FAMILY_FIELDS = {
    "borel": {"m": st.integers(0, 4), "polys": POLYS},
    "affine": {"n": st.integers(0, 12)},
    "lamplighter": {"polys": POLYS},
    "wreath": {"d": st.integers(0, 3), "g": POLYS.map(lambda fs: fs[-1]), "localized": st.booleans()},
}
FAMILY_CONFIG = st.one_of([
    st.fixed_dictionaries({"family": st.just(family), "p": P, **fields})
    for family, fields in FAMILY_FIELDS.items()
])
SPOILT_CONFIG = FAMILY_CONFIG.flatmap(
    lambda config: st.tuples(st.sampled_from(sorted(config)), JSON).map(lambda kv: {**config, kv[0]: kv[1]})
)
CONFIG_TEXT = (
    FAMILY_CONFIG.map(json.dumps)
    | SPOILT_CONFIG.map(json.dumps)
    | JSON.map(json.dumps)
    | st.text(max_size=40)
)


@functools.cache
def _names(config):
    try:
        return sorted(load_config(config).generators()) + ["zz"]
    except InstanceConfigError:
        return ["u", "zz"]


# words over the config's generator names and an unknown one, literals
# with the matrix families' keys, and any text
LITERAL = st.dictionaries(st.sampled_from(["n", "d", "v", "b", "c"]), JSON, max_size=2).map(json.dumps)


def _expressions(config):
    name = st.sampled_from(_names(config))
    term = name | st.tuples(name, st.integers(-6, 6)).map(lambda t: f"{t[0]}^{t[1]}")
    return st.lists(term, max_size=6).map(" ".join) | LITERAL | st.text(max_size=30)


CONFIG_AND_EXPR = st.sampled_from(SHIPPED).flatmap(lambda c: st.tuples(st.just(c), _expressions(c)))
OPTIONS = st.sampled_from([
    ("decompose",),
    ("decompose", "--depth", "1"),
    ("automaton", "--cap", "8", "--format", "json"),
])


def _run(capsys, argv):
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    except SystemExit as exc:
        # only -h/--help, which prints the usage to stdout, leaves this way
        assert exc.code == 0 and capsys.readouterr().out.startswith("usage:")
        event("help")
        return
    # a warning would be one more stderr line outside pytest's capture
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1
    event(f"exit {code}")


@FUZZ
@given(text=CONFIG_TEXT, command=st.sampled_from(["build", "decompose"]))
def test_fuzzed_config_ends_in_an_exit_code(tmp_path, capsys, text, command):
    path = tmp_path / "config.json"
    path.write_text(text)
    _run(capsys, [command, str(path)] + (["e"] if command == "decompose" else []))


@FUZZ
@given(config_and_expr=CONFIG_AND_EXPR, options=OPTIONS)
def test_fuzzed_expression_ends_in_an_exit_code(capsys, config_and_expr, options):
    config, expr = config_and_expr
    command, *rest = options
    _run(capsys, [command, config, expr, *rest])

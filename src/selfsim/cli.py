"""Command-line front end.

Subcommands:

* ``build CONFIG``                     -- validate and summarize an instance;
* ``decompose CONFIG EXPR [--depth]``  -- level permutation and states, or a
                                          nested portrait;
* ``automaton CONFIG EXPR --cap N``    -- breadth-first state closure as a
                                          DOT or JSON file;
* ``verify CONFIG [--suite] [--seed]`` -- machine-readable pass/fail report;
* ``tame CONFIG``                      -- finiteness report of a metabelian
                                          instance.

Element expressions are words of named generators with integer exponents
("u x0^-1 u^2"), of length (the sum of |exponent|) at most
MAX_WORD_LENGTH; matrix families also accept one JSON literal
('{"v": [[1]], "b": [[...]]}' for the affine family, '{"n": ..., "d": ...}'
for the triangular one).  Exit codes: 0 success, 1 hypothesis/validation
failure, 2 verification failure, 3 I/O, parse or usage error.

Outputs are deterministic: fixed orderings everywhere, and the only
randomness (verification sampling) is seeded via --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple

from .instances import MAX_WORD_LENGTH, InstanceConfigError, load_config
from .engine import CapExceeded, decompose, portrait, states_bfs
from .ring import NotInvertible, parse_json
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_PARSE = 3

# The most leaves (degree^depth) a portrait may have; the portrait is built
# whole in memory and printed indented.
MAX_PORTRAIT_LEAVES = 2**16


# An exponent is ASCII digits with an optional sign; int() alone would also
# take underscores, surrounding blanks and non-ASCII digits.
_EXPONENT = re.compile(r"[+-]?[0-9]+")


class ExprError(ValueError):
    """An element expression failed to parse or evaluate."""


class ElementExpr(namedtuple("ElementExpr", "terms literal", defaults=((), None))):
    """A word `terms` of (generator name, integer exponent) pairs, or one
    JSON `literal` dict for the matrix families."""

    __slots__ = ()

    def render(self) -> str:
        if self.literal is not None:
            return json.dumps(self.literal, sort_keys=True)
        if not self.terms:
            return "e"
        return " ".join(
            name if exp == 1 else f"{name}^{exp}" for name, exp in self.terms
        )


def parse_expr(text: str) -> ElementExpr:
    text = text.strip()
    if not text:
        raise ExprError("empty expression")
    if text.startswith("{"):
        try:
            return ElementExpr(literal=parse_json(text))
        except ValueError as exc:
            raise ExprError(f"bad JSON literal: {exc}") from exc
    terms = []
    for token in text.replace("*", " ").split():
        name, caret, exp = token.partition("^")
        if not name.isidentifier():
            raise ExprError(f"bad generator name: {name!r}")
        if not caret:
            k = 1
        elif _EXPONENT.fullmatch(exp):
            k = int(exp)
        else:
            raise ExprError(f"bad exponent in {token!r}")
        if k != 0:
            terms.append((name, k))
    length = sum(abs(k) for _, k in terms)
    if length > MAX_WORD_LENGTH:
        raise ExprError(f"expression length {length} exceeds {MAX_WORD_LENGTH}")
    return ElementExpr(terms=tuple(terms))


def eval_expr(inst, expr: ElementExpr):
    if expr.literal is not None:
        maker = getattr(inst, "from_literal", None)
        if maker is None:
            raise ExprError(f"the {inst.family} family takes no JSON literals")
        try:
            return maker(expr.literal)
        except (KeyError, IndexError, TypeError, ValueError, NotInvertible) as exc:
            raise ExprError(f"bad literal: {exc}") from exc
    gens = inst.generators()
    out = inst.identity()
    for name, exp in expr.terms:
        g = gens.get(name)
        if g is None:
            known = ", ".join(sorted(k for k in gens if k != "e"))
            raise ExprError(f"unknown generator {name!r} (known: {known})")
        out = inst.multiply(out, inst.elem_pow(g, exp))
    return out


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load(config_path: str):
    try:
        return load_config(config_path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(EXIT_PARSE, f"cannot read config: {exc}") from exc
    except InstanceConfigError as exc:
        raise _Exit(EXIT_INVALID, f"invalid instance configuration: {exc}") from exc


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def cmd_build(args) -> int:
    inst = _load(args.config)
    summary = inst.describe()
    summary["transversal_size"] = len(inst.transversal)
    if len(inst.transversal) <= 16:
        summary["transversal"] = [inst.render(t) for t in inst.transversal]
    report = getattr(inst, "validation", None)
    if report is not None:
        summary["validation"] = report.to_json()
    _emit(summary)
    return EXIT_OK


def cycles(images) -> str:
    """Cycle notation of the permutation i -> images[i]: each cycle of
    length > 1 from its least point, in order of that point; "()" for
    the identity."""
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


def cmd_decompose(args) -> int:
    inst = _load(args.config)
    if args.depth < 0:
        raise _Exit(EXIT_PARSE, "portrait depth must be nonnegative")
    # every degree is at least 2, so a capped exponent decides the bound
    if inst.degree ** min(args.depth, MAX_PORTRAIT_LEAVES.bit_length()) > MAX_PORTRAIT_LEAVES:
        raise _Exit(
            EXIT_PARSE,
            f"a depth-{args.depth} portrait has more than {MAX_PORTRAIT_LEAVES} leaves",
        )
    expr = parse_expr(args.expr)
    g = eval_expr(inst, expr)
    if args.depth:
        _emit({"expr": expr.render(), "portrait": portrait(inst, g, args.depth)})
        return EXIT_OK
    dec = decompose(inst, g)
    # states repeat, so each distinct one is rendered once
    names = {s: inst.render(s) for s in dict.fromkeys(dec.states)}
    _emit(
        {
            "expr": expr.render(),
            "perm": list(dec.perm),
            "cycles": cycles(dec.perm),
            "states": [names[s] for s in dec.states],
        }
    )
    return EXIT_OK


def cmd_automaton(args) -> int:
    inst = _load(args.config)
    if args.cap < 1:
        raise _Exit(EXIT_PARSE, "state cap must be >= 1")
    expr = parse_expr(args.expr)
    g = eval_expr(inst, expr)
    res = states_bfs(inst, g, args.cap)
    if isinstance(res, CapExceeded):
        _emit(
            {
                "cap_exceeded": True,
                "cap": args.cap,
                "visited": res.visited,
                "frontier": res.frontier,
            }
        )
        return EXIT_OK
    blob = res.to_dot_bytes() if args.format == "dot" else res.to_json_bytes()
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            raise _Exit(EXIT_PARSE, f"cannot write output: {exc}") from exc
        _emit({"states": len(res), "written": args.output})
    else:
        sys.stdout.write(blob.decode())
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load(args.config)
    try:
        results = run_suite(args.suite, inst, seed=args.seed)
    except ValueError as exc:
        raise _Exit(EXIT_INVALID, str(exc)) from exc
    passed = all(r.passed for r in results)
    _emit(
        {
            "suite": args.suite,
            "seed": args.seed,
            "checks": [r.to_json() for r in results],
            "passed": passed,
        }
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_tame(args) -> int:
    inst = _load(args.config)
    if inst.family != "lamplighter":
        raise _Exit(
            EXIT_INVALID, f"finiteness reports require the lamplighter family, got {inst.family}"
        )
    from .tame import finiteness_report

    _emit(finiteness_report(inst))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a parse error: exit 3 with one line."""

    def error(self, message):
        raise _Exit(EXIT_PARSE, f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selfsim",
        description="exact self-similar group actions from virtual endomorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="validate and summarize an instance config")
    b.add_argument("config")
    b.set_defaults(func=cmd_build)

    d = sub.add_parser("decompose", help="wreath decomposition or portrait")
    d.add_argument("config")
    d.add_argument("expr")
    d.add_argument("--depth", type=int, default=0, help="portrait depth")
    d.set_defaults(func=cmd_decompose)

    a = sub.add_parser("automaton", help="state closure as a Mealy automaton")
    a.add_argument("config")
    a.add_argument("expr")
    a.add_argument("--cap", type=int, required=True, help="state cap for the search")
    a.add_argument("--format", choices=("dot", "json"), default="dot")
    a.add_argument("-o", "--output", help="output file (stdout if omitted)")
    a.set_defaults(func=cmd_automaton)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("config")
    v.add_argument("--suite", choices=SUITES, default="core")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("tame", help="finiteness report for a metabelian instance")
    t.add_argument("config")
    t.set_defaults(func=cmd_tame)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except ExprError as exc:
        sys.stderr.write(f"expression error: {exc}\n")
        return EXIT_PARSE
    except InstanceConfigError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

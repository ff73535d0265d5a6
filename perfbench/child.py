"""Run one benchmark job in-process with every layer boundary traced.

    python perfbench/child.py TRACE_OUT cli|prule ARGV...

Before calling ``selfsim.cli.main(ARGV)`` (or the ``prule`` script) this
wraps the functions of ``cli``, ``instances``, ``ring``, ``matrix``,
``engine``, ``verify`` and ``tame`` that the per-layer metrics name.  A
module-level function is replaced under every name it is bound to in a
loaded ``selfsim`` module (``decompose`` is imported by name into ``cli``
and ``verify``, so patching ``engine`` alone would miss those calls).

For every wrapped name the tracer counts calls and self time (the span
minus the time covered by its wrapped children).  A ``decompose`` call
is a memo hit when the instance's ``_decomp_cache`` did not grow across
it; Borel multiplies and ``tri_inverse`` calls made inside a
``decompose`` are counted per Borel memo miss.  Spans themselves --
name, start, end, parent -- are kept in memory for the outer layers only
(nesting depth below SPAN_DEPTH, at most SPAN_CAP per job), since the
inner ring calls number in the millions.  Everything is written to
TRACE_OUT as JSON when the job ends; stdout and the exit code are the
program's own.
"""

from __future__ import annotations

import gc
import json
import sys
from time import perf_counter

SPAN_DEPTH = 4
SPAN_CAP = 20000

FAMILIES = {
    "borel": ("borel", "BorelInstance"),
    "affine": ("affine", "AffineInstance"),
    "lamplighter": ("lamplighter", "LampInstance"),
    "wreath": ("wreath", "WreathInstance"),
}
FAMILY_OPS = ("multiply", "invert", "coset_index", "h_member", "endo_f")

# metric prefix -> (module, function name); each is rebound everywhere
FUNCTIONS = {
    "cli.parse_expr": ("cli", "parse_expr"),
    "cli.eval_expr": ("cli", "eval_expr"),
    "instances.load_config": ("instances", "load_config"),
    "ring.validate_config": ("ring", "validate_config"),
    "ring.is_prime": ("ring", "is_prime"),
    "ring.canonicalize": ("ring", "canonicalize"),
    "ring.divide_exact": ("ring", "divide_exact"),
    "matrix.conj_by_A": ("matrix", "conj_by_A"),
    "engine.portrait": ("engine", "portrait"),
    "engine.act_on_word": ("engine", "act_on_word"),
    "engine.faithfulness_probe": ("engine", "faithfulness_probe"),
    "engine.transversal_validate": ("engine", "transversal_validate"),
    "verify.run_suite": ("verify", "run_suite"),
    "verify.word_bijectivity_check": ("verify", "word_bijectivity_check"),
    "tame.tame_degree": ("tame", "tame_degree"),
    "tame.finiteness_report": ("tame", "finiteness_report"),
}
# metric prefix -> (module, class, attribute)
METHODS = {
    "engine.Instance.elem_pow": ("engine", "Instance", "elem_pow"),
    "ring.DensePoly.is_irreducible": ("ring", "DensePoly", "is_irreducible"),
    "ring.DensePoly.mul": ("ring", "DensePoly", "__mul__"),
    "ring.DensePoly.divmod": ("ring", "DensePoly", "__divmod__"),
    "ring.DensePoly.pow": ("ring", "DensePoly", "__pow__"),
    "ring.SFraction.add": ("ring", "SFraction", "__add__"),
    "ring.SFraction.mul": ("ring", "SFraction", "__mul__"),
    "ring.SFraction.mul_unit": ("ring", "SFraction", "mul_unit"),
    "ring.SFraction.reduce_mod_pivot_pow": ("ring", "SFraction", "reduce_mod_pivot_pow"),
    "ring.MultiLaurent.mul": ("ring", "MultiLaurent", "__mul__"),
    "ring.MultiLaurent.divexact_univariate": ("ring", "MultiLaurent", "divexact_univariate"),
    "ring.MultiLocalizedRing.fraction": ("ring", "MultiLocalizedRing", "fraction"),
    "ring.MultiSFraction.add": ("ring", "MultiSFraction", "__add__"),
    "ring.MultiSFraction.mul": ("ring", "MultiSFraction", "__mul__"),
    "ring.MultiSFraction.mul_monomial": ("ring", "MultiSFraction", "mul_monomial"),
    "ring.MultiSFraction.mul_g_power": ("ring", "MultiSFraction", "mul_g_power"),
    "matrix.TriMat.mul": ("matrix", "TriMat", "__mul__"),
    "matrix.PolyMat.mul": ("matrix", "PolyMat", "__mul__"),
    "matrix.PolyMat.inverse_gl": ("matrix", "PolyMat", "inverse_gl"),
}


class Tracer:
    """Call counts, self times, outer-layer spans and engine counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.stack: list[list] = []  # per open span: [child_s, span_id]
        self.spans: list[list] = []  # [name, start, end, parent_id]
        self.counters = {
            "engine.decompose.hits": 0,
            "engine.decompose.borel_misses": 0,
            "engine.states_bfs.states": 0,
            "instances.borel.multiply.in_decompose": 0,
            "matrix.tri_inverse.in_decompose": 0,
            "ring.DensePoly.new.calls": 0,
            "runtime.gc.collections": 0,
            "runtime.gc_s": 0.0,
        }
        self.instances: dict[int, object] = {}
        self.in_decompose = 0
        self._gc_start = 0.0

    def wrap(self, name, fn):
        st = self.stats.setdefault(name, [0, 0.0])
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            depth = len(stack)
            sid = -1
            t0 = perf_counter()
            if depth < SPAN_DEPTH and len(spans) < SPAN_CAP:
                sid = len(spans)
                spans.append([name, t0, t0, stack[-1][1] if stack else -1])
            frame = [0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                st[0] += 1
                st[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if sid >= 0:
                    spans[sid][2] = t1

        traced.__wrapped__ = fn
        return traced

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.counters["runtime.gc.collections"] += 1
            self.counters["runtime.gc_s"] += perf_counter() - self._gc_start

    def memo_sizes(self):
        dec = sum(_memo_len(i, "_decomp_cache") for i in self.instances.values())
        pr = sum(_memo_len(i, "_prule_cache") for i in self.instances.values())
        return dec, pr


def _rebind(modules, old, new):
    """Replace `old` by `new` under every name any loaded module binds it to."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    import importlib

    from selfsim import cli, engine, instances, matrix, ring, tame, verify  # noqa: F401

    fam_mods = {f: importlib.import_module(f"selfsim.instances.{m}") for f, (m, _) in FAMILIES.items()}
    mods = {
        "cli": cli, "engine": engine, "instances": instances, "matrix": matrix,
        "ring": ring, "tame": tame, "verify": verify,
    }
    loaded = [m for n, m in sys.modules.items() if n.startswith("selfsim") and m is not None]
    loaded += [m for n, m in sys.modules.items() if n == "prule"]
    counters = tracer.counters

    for name, (mod, attr) in FUNCTIONS.items():
        old = getattr(mods[mod], attr)
        _rebind(loaded, old, tracer.wrap(name, old))

    for name, (mod, cls, attr) in METHODS.items():
        klass = getattr(mods[mod], cls)
        setattr(klass, attr, tracer.wrap(name, getattr(klass, attr)))

    for fam, (mod, cls) in FAMILIES.items():
        klass = getattr(fam_mods[fam], cls)
        for op in FAMILY_OPS:
            fn = getattr(klass, op)
            if fam == "borel" and op == "multiply":
                fn = _counting_in_decompose(tracer, fn, "instances.borel.multiply.in_decompose")
            setattr(klass, op, tracer.wrap(f"instances.{fam}.{op}", fn))

    old = matrix.tri_inverse
    counted = _counting_in_decompose(tracer, old, "matrix.tri_inverse.in_decompose")
    _rebind(loaded, old, tracer.wrap("matrix.tri_inverse", counted))

    prop = engine.Instance.__dict__["transversal"]
    prop.func = tracer.wrap("engine.Instance.transversal", prop.func)

    def counting_new(cls, *args, **kwargs):
        counters["ring.DensePoly.new.calls"] += 1
        return object.__new__(cls)

    ring.DensePoly.__new__ = counting_new

    old_decompose = engine.decompose

    def decompose(inst, g):
        tracer.instances[id(inst)] = inst
        before = _memo_len(inst, "_decomp_cache")
        tracer.in_decompose += 1
        try:
            out = old_decompose(inst, g)
        finally:
            tracer.in_decompose -= 1
        if _memo_len(inst, "_decomp_cache") == before:
            counters["engine.decompose.hits"] += 1
        elif inst.family == "borel":
            counters["engine.decompose.borel_misses"] += 1
        return out

    _rebind(loaded, old_decompose, tracer.wrap("engine.decompose", decompose))

    old_bfs = engine.states_bfs

    def states_bfs(inst, g, cap):
        res = old_bfs(inst, g, cap)
        counters["engine.states_bfs.states"] += (
            res.visited if isinstance(res, engine.CapExceeded) else len(res)
        )
        return res

    _rebind(loaded, old_bfs, tracer.wrap("engine.states_bfs", states_bfs))

    old_prc = engine.product_rule_check

    def product_rule_check(inst, g, h, depth):
        tracer.instances[id(inst)] = inst
        return old_prc(inst, g, h, depth)

    _rebind(loaded, old_prc, tracer.wrap("engine.product_rule_check", product_rule_check))


def _memo_len(inst, attr: str) -> int:
    """Entries in an instance's memo dict (absent until first used)."""
    return len(inst.__dict__.get(attr, ()))


def _counting_in_decompose(tracer: Tracer, fn, counter: str):
    counters = tracer.counters

    def counted(*args, **kwargs):
        if tracer.in_decompose:
            counters[counter] += 1
        return fn(*args, **kwargs)

    return counted


def main() -> int:
    out_path, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if kind == "cli":
        from selfsim.cli import main as entry
    else:
        from prule import main as entry
    tracer = Tracer()
    install(tracer)
    gc.callbacks.append(tracer.on_gc)
    job = tracer.wrap("job", lambda: entry(argv))
    try:
        code = job()
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    gc.callbacks.remove(tracer.on_gc)
    sys.stdout.flush()
    dec, pr = tracer.memo_sizes()
    tracer.counters["engine.decompose.memo_entries"] = dec
    tracer.counters["engine.product_rule.memo_entries"] = pr
    with open(out_path, "w") as fh:
        json.dump(
            {
                "stats": tracer.stats,
                "counters": tracer.counters,
                "span_fields": ["name", "start", "end", "parent"],
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Verification suites across all families, plus negative controls through
broken test doubles and the failing-verification CLI exit code."""

import gc
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from selfsim.engine import ContractViolation, Instance, WreathDecomp, act_on_word, decompose
from selfsim.instances import load_config
from selfsim.instances.lamplighter import LampElem, LampInstance
from selfsim.ring import DensePoly
from selfsim.verify import _image_codes, run_suite, word_bijectivity_check

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "config,suites",
    [
        ("lamplighter_p2_n1", ("core", "lamplighter", "tame")),
        ("lamplighter_p3_n2", ("lamplighter",)),
        ("borel_m2_p2", ("core", "borel")),
        ("borel_m2_p3", ("borel",)),
        ("affine_n3_p2", ("core", "affine")),
        ("wreath_base_p2_d2", ("core", "wreath")),
        ("wreath_localized_p2_d2", ("wreath",)),
    ],
)
def test_suites_pass(config, suites):
    inst = load_config(CONFIGS / f"{config}.json")
    for name in suites:
        results = run_suite(name, inst, seed=0)
        bad = [r.name for r in results if not r.passed]
        assert not bad, f"{config}/{name} failed: {bad}"


def test_unknown_suite_rejected():
    inst = load_config(CONFIGS / "lamplighter_p2_n1.json")
    with pytest.raises(ValueError):
        run_suite("nope", inst)


def test_family_mismatch_rejected():
    inst = load_config(CONFIGS / "affine_n3_p2.json")
    with pytest.raises(ValueError):
        run_suite("borel", inst)


class _BrokenEndo(LampInstance):
    """Endomorphism off by an additive constant: not a homomorphism."""

    def endo_f(self, g):
        good = super().endo_f(g)
        return LampElem(good.r + self.ring.one, good.q)


class _BrokenTransversal(LampInstance):
    # the generic walk, which multiplies by the broken transversal
    letters = Instance.letters

    def _build_transversal(self):
        base = super()._build_transversal()
        return [base[0]] * len(base)


def test_corrupted_instance_reports_failures():
    inst = _BrokenEndo(2, [DensePoly.x(2)])
    results = run_suite("core", inst, seed=0)
    assert any(not r.passed for r in results)


def test_broken_transversal_raises_or_fails():
    inst = _BrokenTransversal(2, [DensePoly.x(2)])
    with pytest.raises(ContractViolation):
        decompose(inst, inst.generators()["u"])


def test_broken_coset_map_is_contract_violation():
    class _ConstantCoset(LampInstance):
        # the generic walk, which reads the coset from coset_index
        letters = Instance.letters

        def coset_index(self, g):
            return 0

    inst = _ConstantCoset(2, [DensePoly.x(2)])
    with pytest.raises(ContractViolation):
        decompose(inst, inst.generators()["u"])


@pytest.mark.parametrize(
    "config",
    ["lamplighter_p2_n2", "borel_m2_p2", "affine_n3_p2", "wreath_base_p2_d2", "wreath_localized_p2_d2"],
)
def test_invert_returning_its_argument_fails_the_core_suite(config):
    # at p = 2 every transversal letter of these configs lies in the coset
    # of its inverse, so only the product g * invert(g) on the sampled
    # elements sees this mutant
    inst = load_config(CONFIGS / f"{config}.json")
    inst.invert = lambda g: g
    results = run_suite("core", inst, seed=0)
    assert [r.name for r in results if not r.passed] == ["transversal_valid"]


def test_word_bijectivity_helper():
    inst = load_config(CONFIGS / "lamplighter_p2_n2.json")
    rng = random.Random(0)
    assert word_bijectivity_check(inst, inst.random_element(rng), 5)


@pytest.mark.parametrize(
    "config",
    ["borel_m2_p3", "borel_m3_p2", "affine_n3_p2", "lamplighter_p3_n2", "wreath_localized_p2_d2"],
)
def test_word_images_match_act_on_word(config):
    # the one tree walk yields the base-m code of act_on_word's image of
    # every word, in the order of itertools.product
    inst = load_config(CONFIGS / f"{config}.json")
    g = inst.random_element(random.Random(71))
    m = inst.degree
    for level in range(5):
        words = itertools.product(range(m), repeat=level)
        codes = [sum(b * m ** (level - 1 - t) for t, b in enumerate(act_on_word(inst, g, w))) for w in words]
        assert list(_image_codes(inst, g, level)) == codes


SHIPPED = sorted(f.stem for f in CONFIGS.glob("*.json") if not f.stem.startswith("invalid"))


@pytest.mark.parametrize("config", SHIPPED)
def test_streaming_word_check_agrees_with_the_image_set(config):
    # the streaming check against the set of act_on_word's images of
    # every word, on random elements at levels 0-4
    inst = load_config(CONFIGS / f"{config}.json")
    rng = random.Random(83)
    m = inst.degree
    for _ in range(2):
        g = inst.random_element(rng)
        for level in range(5):
            images = [act_on_word(inst, g, w) for w in itertools.product(range(m), repeat=level)]
            assert word_bijectivity_check(inst, g, level) == (len(set(images)) == m**level)


def test_word_check_holds_only_the_marks_in_memory():
    # on a warm instance the check's transient is its m^L marks and the
    # walk's current path, not one entry per word (5 MB at level 5)
    inst = load_config(CONFIGS / "wreath_localized_p2_d2.json")
    g = inst.random_element(random.Random(89))
    assert word_bijectivity_check(inst, g, 5)
    gc.collect()
    tracemalloc.start()
    try:
        assert word_bijectivity_check(inst, g, 5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 2**20


def test_word_bijectivity_detects_a_non_bijective_action(monkeypatch):
    # decompose refuses a non-bijective level map, so the double replaces
    # the decomposition the check reads: the identity's level map sends
    # every letter to 0, which u, whose states are the identity, reaches at
    # level 2
    inst = load_config(CONFIGS / "lamplighter_p2_n1.json")
    e = inst.identity()

    def folding(inst_, g):
        dec = decompose(inst_, g)
        return WreathDecomp((0,) * inst.degree, dec.states) if g == e else dec

    monkeypatch.setattr("selfsim.verify.decompose", folding)
    u = inst.generators()["u"]
    assert word_bijectivity_check(inst, u, 1)
    assert not word_bijectivity_check(inst, u, 2)
    assert not word_bijectivity_check(inst, u, 5)


@pytest.mark.parametrize("level_map", [(0,), (0, 1, 2), (0, 1, 1)])
def test_word_bijectivity_counts_every_word(monkeypatch, level_map):
    # a level map of the identity with one letter too few (every image
    # distinct, some word missing) or one too many (more words than m^L,
    # out of range or repeated)
    inst = load_config(CONFIGS / "lamplighter_p2_n1.json")
    e = inst.identity()

    def resized(inst_, g):
        dec = decompose(inst_, g)
        return WreathDecomp(level_map, (e,) * len(level_map)) if g == e else dec

    monkeypatch.setattr("selfsim.verify.decompose", resized)
    u = inst.generators()["u"]
    assert word_bijectivity_check(inst, u, 1)
    for level in (2, 3):
        assert not word_bijectivity_check(inst, u, level)


def test_cli_verify_failure_exits_2(monkeypatch, capsys, tmp_path):
    import selfsim.cli as cli

    broken = _BrokenEndo(2, [DensePoly.x(2)])
    monkeypatch.setattr(cli, "load_config", lambda path: broken)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    code = cli.main(["verify", str(cfg), "--suite", "core"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_VERIFY_FAILED
    data = json.loads(out)
    assert data["passed"] is False
    assert any(not c["passed"] for c in data["checks"])

import glob
import os
import random

from atmod import semantics
from atmod.formulas import FALSE, Literal, parse_formula
from atmod.theory import (BoxQuery, ClassicalQuery, DiamondQuery,
                          load_theory, parse_query, parse_theory)
from conftest import FIXTURES, random_formula, random_theory

GUNS = """
theory guns {
  fluents hasGun loaded;
  actions load;
  action load {
    causes loaded;
    effect loaded;
    executable hasGun;
  }
}
"""


def _mask(theory, **true):
    return sum(1 << i for i, f in enumerate(theory.fluents) if true.get(f))


def test_big_model_edges():
    t = parse_theory(GUNS)
    model = semantics.big_model(t)
    assert set(model.worlds) == {0, 1, 2, 3}
    edges = set(model.relation["load"])
    # loading cannot change hasGun and must end with the gun loaded
    has, loaded = _mask(t, hasGun=True), _mask(t, loaded=True)
    assert (has, has | loaded) in edges
    assert (0, loaded) in edges
    assert (has, loaded) not in edges          # drops the gun
    assert (0, has | loaded) not in edges      # conjures a gun
    assert (has, has) not in edges             # effect law violated


def _pair_filter(t, action):
    """The edges of big_model by definition: every world pair, in order,
    that permitted_edge accepts."""
    index = {f: i for i, f in enumerate(t.fluents)}
    worlds = semantics.static_worlds(t)
    return tuple((v, w) for v in worlds for w in worlds
                 if semantics.permitted_edge(t, action, index, v, w))


def _assert_pair_filter(t):
    model = semantics.big_model(t)
    assert model.worlds == semantics.static_worlds(t)
    assert set(model.relation) == set(t.actions)
    for action in t.actions:
        assert model.relation[action] == _pair_filter(t, action)


def test_big_model_equals_the_pair_filter():
    rng = random.Random(31)
    theories = [load_theory(p)
                for p in sorted(glob.glob(os.path.join(FIXTURES, "*.at")))]
    theories += [random_theory(rng) for _ in range(100)]
    for t in theories:
        _assert_pair_filter(t)
        _assert_pair_filter(t.with_total_dependence())
        for action in t.actions:
            _assert_pair_filter(t.for_action(action))


def test_big_model_without_dependence_keeps_self_loops():
    t = parse_theory("""
        theory frozen {
          fluents p q;
          actions a;
          static { p | q; }
          action a { effect p => p; }
        }
    """)
    model = semantics.big_model(t)
    assert model.relation["a"] == tuple((v, v) for v in model.worlds)
    _assert_pair_filter(t)


def test_big_model_inexecutable_world_has_no_successor():
    t = parse_theory("""
        theory blocked {
          fluents p q;
          actions a;
          action a { causes q, ~q; inexecutable p; }
        }
    """)
    model = semantics.big_model(t)
    p = _mask(t, p=True)
    assert not any(v & p for v, _ in model.relation["a"])
    assert {v for v, _ in model.relation["a"]} == {0, _mask(t, q=True)}
    _assert_pair_filter(t)


def test_big_model_work_follows_the_free_bits(monkeypatch):
    # 12 fluents, no static laws: W = 4096 worlds, W^2 = 16.7 M pairs;
    # the action may flip 2 fluents, so each world has 4 candidates
    fluents = ["f%d" % i for i in range(12)]
    t = parse_theory("""
        theory wide {
          fluents %s;
          actions a;
          action a { causes f0, ~f0, f1, ~f1; effect f2 => f0; }
        }
    """ % " ".join(fluents))
    calls = []
    original = semantics.eval_mask

    def counting(formula, mask, index):
        calls.append(formula)
        return original(formula, mask, index)

    monkeypatch.setattr(semantics, "eval_mask", counting)
    model = semantics.big_model(t)
    worlds, consq = len(model.worlds), len(t.consq("a"))
    assert worlds == 4096 and consq == 1
    assert len(calls) <= worlds * consq * (1 + 2 ** 2)
    # f2 false: all 4 candidates; f2 true: the 2 with f0 true
    assert len(model.relation["a"]) == 2048 * 4 + 2048 * 2


def test_prune_fixpoint_keeps_everything_when_consistent():
    t = parse_theory(GUNS)
    model = semantics.prune_fixpoint(t)
    assert set(model.worlds) == {0, 1, 2, 3}


def test_prune_fixpoint_cascades(theory):
    t = theory("t1").for_action("tease")
    model = semantics.prune_fixpoint(t)
    index = {f: i for i, f in enumerate(t.fluents)}
    # every ~alive world is deleted: tease is both forced and impossible
    assert model.worlds
    assert all(semantics.eval_mask(parse_formula("alive"), w, index)
               for w in model.worlds)


def test_prune_fixpoint_can_empty(theory):
    t = theory("hidden_inexec")
    model = semantics.prune_fixpoint(t)
    assert set(model.worlds) == {0}            # only the ~p1 & ~p2 world


def test_entails_dep_vs_pdl_frame_law():
    t = parse_theory(GUNS)
    keeps_gun = BoxQuery("load", parse_formula("hasGun"),
                         parse_formula("hasGun"))
    assert semantics.entails_dep(t, keeps_gun)
    assert not semantics.entails_pdl(t, keeps_gun)


def test_entails_dep_frame_law(theory):
    t = theory("t2")
    q = parse_query("walking => [tease] walking", t)
    assert semantics.entails_dep(t, q)
    q = parse_query("~alive => [tease] ~alive", t)
    # with dependence there is no tease edge out of a dead world at all;
    # without it the turkey may end up walking, hence alive
    assert semantics.entails_dep(t, q)
    assert not semantics.entails_pdl(t, q)


def test_entails_pdl_effect_propagation(theory):
    t = theory("t2")
    q = parse_query("true => [tease] alive", t)
    # any tease edge makes walking true, and statics then force alive
    assert semantics.entails_pdl(t, q)
    assert semantics.entails_dep(t, q)


def test_entails_dep_classical(theory):
    t = theory("t1")
    assert semantics.entails_dep(t, ClassicalQuery(parse_formula("alive")))
    assert not semantics.entails_dep(
        t, ClassicalQuery(parse_formula("walking")))


def test_entails_dep_diamond(theory):
    t = theory("t1")
    assert semantics.entails_dep(t, parse_query("alive => <tease> true", t))
    assert not semantics.entails_dep(
        t, parse_query("alive => <shoot> true", t))


def test_satisfies(theory):
    t = parse_theory(GUNS)
    model = semantics.prune_fixpoint(t)
    assert semantics.satisfies(model, t)
    broken = semantics.KripkeModel(model.fluents, model.worlds,
                                   {"load": ()})
    assert not semantics.satisfies(broken, t)  # executability unmet


def test_countermodel_absent_for_entailed(theory):
    t = theory("t1")
    q = ClassicalQuery(parse_formula("alive"))
    assert semantics.enumerate_countermodel(t, q, max_worlds=2) is None


def test_countermodel_found(theory):
    t = theory("t2")
    q = ClassicalQuery(parse_formula("alive"))
    model = semantics.enumerate_countermodel(t, q, max_worlds=2)
    assert model is not None
    assert semantics.satisfies(model, t)
    index = model.index
    assert any(not semantics.eval_mask(parse_formula("alive"), w, index)
               for w in model.worlds)


def test_countermodel_diamond(theory):
    t = theory("t2")
    q = DiamondQuery("tease", parse_formula("~alive"))
    model = semantics.enumerate_countermodel(t, q, max_worlds=2)
    assert model is not None
    index = model.index
    succ = {v for v, _ in model.relation["tease"]}
    assert any(semantics.eval_mask(parse_formula("~alive"), w, index)
               and w not in succ for w in model.worlds)


def test_countermodel_agrees_with_entailment_random():
    rng = random.Random(23)
    for _ in range(40):
        t = random_theory(rng)
        bound = 1 << len(t.fluents)
        for _ in range(5):
            q = _random_query(rng, t)
            entailed = semantics.entails_dep(t, q)
            counter = semantics.enumerate_countermodel(t, q, bound)
            assert entailed == (counter is None)
            if counter is not None:
                assert semantics.satisfies(counter, t)


def _random_query(rng, t):
    kind = rng.randrange(3)
    pre = random_formula(rng, list(t.fluents))
    if kind == 0:
        return ClassicalQuery(pre)
    action = rng.choice(t.actions)
    if kind == 1:
        return BoxQuery(action, pre, random_formula(rng, list(t.fluents)))
    return DiamondQuery(action, pre)


def test_model_export(theory):
    t = parse_theory(GUNS)
    model = semantics.prune_fixpoint(t)
    doc = semantics.model_to_json(model)
    assert doc["fluents"] == ["hasGun", "loaded"]
    assert len(doc["worlds"]) == 4
    names = {w["name"] for w in doc["worlds"]}
    for v, w in doc["relation"]["load"]:
        assert v in names and w in names
    dot = semantics.model_to_dot(model)
    assert dot.startswith("digraph")
    assert 'label="load"' in dot

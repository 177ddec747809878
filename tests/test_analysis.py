import pytest

from atmod import analysis, engine, semantics
from atmod.errors import ResourceLimitError
from atmod.formulas import FALSE, parse_formula
from atmod.theory import (BoxQuery, ClassicalQuery, EffectLaw, parse_theory)
from dataclasses import replace


def _static_strs(t, action, base="fixed"):
    return [str(f) for f in analysis.implicit_static_laws(t, action, base)]


def _inexec_strs(t, action):
    return [str(f) for f in analysis.implicit_inexec_laws(t, action)]


def test_implicit_static_teasing(theory):
    t = theory("t1")
    assert _static_strs(t, "tease") == ["alive"]
    assert _static_strs(t, "shoot") == []


def test_implicit_static_unreachable_exec(theory):
    t = theory("shoot_nogun")
    assert _static_strs(t, "shoot") == ["~hasGun"]


def test_implicit_static_pairwise_exclusion(theory):
    t = theory("intline")
    assert _static_strs(t, "goLeft") == \
        ["~(at_m1 & at_0)", "~(at_m1 & at_1)"]
    assert _static_strs(t, "goLeft", "grow") == \
        ["~(at_m1 & at_0)", "~(at_m1 & at_1)", "~(at_0 & at_1)"]


def test_implicit_static_none(theory):
    for name in ("t2", "coffee", "t4", "empty"):
        t = theory(name)
        for action in t.actions:
            assert _static_strs(t, action) == []


def test_implicit_static_findings_are_sound(theory):
    # every caught law holds in all intended models yet is not explicit
    for name in ("t1", "shoot_nogun", "intline", "hidden_inexec"):
        t = theory(name)
        for action in t.actions:
            for f in analysis.implicit_static_laws(t, action, "grow"):
                sub = t.for_action(action)
                assert semantics.entails_dep(
                    sub, ClassicalQuery(f.formula))
                assert not engine.entails(t.static_formulas(), f.formula)


def test_implicit_inexec_teasing(theory):
    assert _inexec_strs(theory("t2"), "tease") == ["~alive -> [tease]false"]


def test_implicit_inexec_conflicting_effects(theory):
    assert _inexec_strs(theory("coffee"), "drink") == \
        ["sugar & salt -> [drink]false"]


def test_implicit_inexec_none(theory):
    assert _inexec_strs(theory("t1"), "tease") == []
    assert _inexec_strs(theory("t4"), "shoot") == []


def test_implicit_inexec_findings_are_sound(theory):
    for name in ("t2", "coffee"):
        t = theory(name)
        for action in t.actions:
            for f in analysis.implicit_inexec_laws(t, action):
                sub = t.for_action(action)
                assert semantics.entails_dep(
                    sub, BoxQuery(action, f.law.pre, FALSE))
                assert not analysis.pdl_covers(
                    t.static_formulas(), t.inexecs_for(action), f.law.pre)


def test_pdl_entailment_reductions(theory):
    t = theory("t1")
    statics = t.static_formulas()
    assert analysis.pdl_covers(statics, t.inexecs_for("tease"),
                               parse_formula("~alive"))
    assert analysis.pdl_covers(statics, t.inexecs_for("tease"),
                               parse_formula("~alive & walking"))
    assert not analysis.pdl_covers(statics, t.inexecs_for("tease"),
                                   parse_formula("walking"))
    assert analysis.pdl_covers(statics, t.execs_for("shoot"),
                               parse_formula("hasGun & loaded"))
    assert not analysis.pdl_covers(statics, t.execs_for("shoot"),
                                   parse_formula("loaded"))


def test_postulates_t1(theory):
    t = theory("t1")
    assert analysis.check_postulate(t, "PC", "tease").ok
    ps = analysis.check_postulate(t, "PS", "tease")
    assert ps.status == "fail"
    assert [str(f) for f in ps.findings] == ["alive"]
    assert analysis.check_postulate(t, "PS", "shoot").ok
    assert analysis.check_postulate(t, "PI", "tease").status == "blocked-by-PS"
    assert analysis.check_postulate(t, "PI", "shoot").ok
    assert analysis.check_postulate(t, "PS*").status == "fail"
    assert analysis.check_postulate(t, "PI*").status == "blocked-by-PS"
    assert analysis.check_postulate(t, "PC*").ok


def test_postulates_t2(theory):
    t = theory("t2")
    assert analysis.check_postulate(t, "PS", "tease").ok
    pi = analysis.check_postulate(t, "PI", "tease")
    assert pi.status == "fail"
    assert [str(f) for f in pi.findings] == ["~alive -> [tease]false"]
    assert analysis.check_postulate(t, "PI'", "tease").status == "fail"


def test_postulates_blocked_suppresses_findings(theory):
    t = theory("hidden_inexec")
    assert analysis.check_postulate(t, "PS", "a").status == "fail"
    pi = analysis.check_postulate(t, "PI", "a")
    assert pi.status == "blocked-by-PS"
    assert pi.findings == ()
    # the raw detection still reports the law hiding underneath
    assert _inexec_strs(t, "a") == ["p1 & ~p2 -> [a]false"]


def test_postulates_t4_modular(theory):
    t = theory("t4")
    for pid in ("PC", "PS", "PI", "PI'", "PX", "PX+", "P-bot"):
        assert analysis.check_postulate(t, pid, "shoot").ok, pid
    for pid in ("PC*", "PS*", "PI*"):
        assert analysis.check_postulate(t, pid).ok, pid


def test_postulate_pc_fails_on_unsatisfiable():
    t = parse_theory("""
        theory stuck {
          fluents p;
          actions a;
          action a {
            executable true;
            inexecutable true;
          }
        }
    """)
    assert analysis.check_postulate(t, "PC", "a").status == "fail"
    assert analysis.check_postulate(t, "PC*").status == "fail"


def test_postulate_px(theory):
    t = theory("t1")
    # tease is forced everywhere, and its exec law covers everything
    assert analysis.check_postulate(t, "PX", "tease").ok
    # shoot is executable in gunless worlds with no covering law
    assert analysis.check_postulate(t, "PX+", "shoot").status == "fail"
    assert analysis.check_postulate(t, "PX+", "tease").ok


def test_postulate_pbot():
    t = parse_theory("""
        theory vacuous {
          fluents p q;
          actions a;
          action a {
            causes q;
            effect p => q;
            inexecutable p;
          }
        }
    """)
    assert analysis.check_postulate(t, "P-bot", "a").status == "fail"


def test_check_postulates_order(theory):
    verdicts = analysis.check_postulates(theory("t1"), ("PS", "PC*"))
    assert [(v.postulate, v.action) for v in verdicts] == \
        [("PS", "tease"), ("PS", "shoot"), ("PC*", None)]


def test_unknown_postulate(theory):
    with pytest.raises(ValueError):
        analysis.check_postulate(theory("t1"), "PZ", "tease")
    with pytest.raises(ValueError):
        analysis.check_postulate(theory("t1"), "PS")


def test_consequence_law_guard(theory):
    t = theory("t2")
    law = t.effects[0]
    flooded = replace(t, effects=tuple(
        EffectLaw("tease", law.pre, law.post) for _ in range(17)))
    with pytest.raises(ResourceLimitError):
        analysis.implicit_static_laws(flooded, "tease")
    with pytest.raises(ResourceLimitError):
        analysis.implicit_inexec_laws(flooded, "tease")

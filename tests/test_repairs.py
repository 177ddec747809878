from atmod import analysis
from atmod.formulas import parse_formula
from atmod.repairs import (AddDependence, AddInexecutability, AddStatic,
                           WeakenLaw, suggest_repairs)
from atmod.theory import EffectLaw, ExecutabilityLaw, parse_theory


def _describe(repairs):
    return [r.describe() for r in repairs]


def test_static_finding_repairs(theory):
    t = theory("t1")
    finding = analysis.implicit_static_laws(t, "tease")[0]
    repairs = suggest_repairs(t, finding)
    assert _describe(repairs) == [
        "add static law alive",
        "replace executability law <tease>true with alive -> <tease>true",
    ]
    # weakening the effect law or extending dependence leaves the
    # implicit law in place, so neither is suggested
    assert not any(isinstance(r, WeakenLaw) and isinstance(r.old, EffectLaw)
                   for r in repairs)
    assert not any(isinstance(r, AddDependence) for r in repairs)


def test_static_finding_repairs_weaken_inexec(theory):
    t = theory("shoot_nogun")
    finding = analysis.implicit_static_laws(t, "shoot")[0]
    repairs = suggest_repairs(t, finding)
    assert _describe(repairs) == [
        "add static law ~hasGun",
        "replace inexecutability law [shoot]false"
        " with ~hasGun -> [shoot]false",
    ]


def test_inexec_finding_repairs(theory):
    t = theory("t2")
    finding = analysis.implicit_inexec_laws(t, "tease")[0]
    repairs = suggest_repairs(t, finding)
    assert _describe(repairs) == [
        "add inexecutability law ~alive -> [tease]false",
        "let tease cause alive",
        "replace effect law [tease]walking with alive -> [tease]walking",
    ]


def test_repairs_are_effective(theory):
    for name in ("t1", "t2", "shoot_nogun", "coffee", "intline"):
        t = theory(name)
        for action in t.actions:
            findings = list(analysis.implicit_static_laws(t, action)) \
                + list(analysis.implicit_inexec_laws(t, action))
            for finding in findings:
                for repair in suggest_repairs(t, finding):
                    patched = repair.apply(t)
                    if isinstance(finding, analysis.StaticLawFinding):
                        left = analysis.implicit_static_laws(patched, action)
                        assert finding.formula not in \
                            [f.formula for f in left]
                    else:
                        left = analysis.implicit_inexec_laws(patched, action)
                        assert finding.law.pre not in \
                            [f.law.pre for f in left]


def test_apply_add_static(theory):
    t = theory("t1")
    finding = analysis.implicit_static_laws(t, "tease")[0]
    patched = AddStatic(finding.formula).apply(t)
    assert [str(l) for l in patched.statics] == ["walking -> alive", "alive"]
    assert analysis.check_postulate(patched, "PS", "tease").ok


def test_apply_weaken_swaps_in_place(theory):
    t = theory("t1")
    old = t.execs_for("tease")[0]
    finding = analysis.implicit_static_laws(t, "tease")[0]
    repair = next(r for r in suggest_repairs(t, finding)
                  if isinstance(r, WeakenLaw)
                  and isinstance(r.old, ExecutabilityLaw))
    patched = repair.apply(t)
    assert old not in patched.execs
    assert repair.new in patched.execs
    assert len(patched.execs) == len(t.execs)


def test_apply_add_dependence(theory):
    t = theory("t2")
    finding = analysis.implicit_inexec_laws(t, "tease")[0]
    repair = next(r for r in suggest_repairs(t, finding)
                  if isinstance(r, AddDependence))
    patched = repair.apply(t)
    assert patched.may_change("tease", repair.literal)
    assert analysis.implicit_inexec_laws(patched, "tease") == []


def test_inexec_repair_restores_postulates(theory):
    t = theory("t2")
    finding = analysis.implicit_inexec_laws(t, "tease")[0]
    repair = suggest_repairs(t, finding)[0]
    assert isinstance(repair, AddInexecutability)
    patched = repair.apply(t)
    assert analysis.check_postulate(patched, "PS", "tease").ok
    assert analysis.check_postulate(patched, "PI", "tease").ok


def test_degenerate_weakening_dropped():
    # weakening the only executability law would give the condition
    # hasGun & ~hasGun, so only the explicit static law is offered
    t = parse_theory("""
        theory narrow {
          fluents hasGun;
          actions shoot;
          action shoot {
            executable hasGun;
            inexecutable hasGun;
          }
        }
    """)
    finding = analysis.implicit_static_laws(t, "shoot")[0]
    assert str(finding) == "~hasGun"
    repairs = suggest_repairs(t, finding)
    assert not any(isinstance(r, WeakenLaw)
                   and isinstance(r.old, ExecutabilityLaw) for r in repairs)
    assert any(isinstance(r, AddStatic) for r in repairs)

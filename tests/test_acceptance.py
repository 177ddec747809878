"""Acceptance gate: one test per acceptance criterion.

Every test prints a single "criterion ...: PASS/FAIL" line so the gate
can be read off the pytest -s output at a glance.  All comparisons are
exact symbolic equality on canonical forms; no tolerances anywhere.
"""

import itertools
import random
import time

from atmod import analysis, engine, report, semantics
from atmod.formulas import (FALSE, Literal, clause_formula, parse_formula)
from atmod.theory import (BoxQuery, ClassicalQuery, DiamondQuery,
                          parse_theory)
from conftest import random_formula, random_theory
from test_semantics import GUNS


def _gate(name, ok):
    print("criterion %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %s failed" % name


def _static(theory, action, base="grow"):
    start = time.perf_counter()
    found = analysis.implicit_static_laws(theory, action, base)
    elapsed = time.perf_counter() - start
    return {str(f) for f in found}, elapsed


def test_criterion_1_implicit_static_laws(theory):
    laws, dt1 = _static(theory("t1"), "tease")
    nogun, dt2 = _static(theory("shoot_nogun"), "shoot")
    pairs, dt3 = _static(theory("intline"), "goLeft")
    ok = laws == {"alive"} \
        and nogun == {"~hasGun"} \
        and pairs == {"~(at_m1 & at_0)", "~(at_m1 & at_1)",
                      "~(at_0 & at_1)"} \
        and max(dt1, dt2, dt3) < 1.0
    _gate("1 implicit static laws", ok)


def test_criterion_2_implicit_inexecutability_laws(theory):
    start = time.perf_counter()
    t2 = {str(f) for f in analysis.implicit_inexec_laws(theory("t2"),
                                                        "tease")}
    coffee = {str(f) for f in analysis.implicit_inexec_laws(
        theory("coffee"), "drink")}
    hidden = theory("hidden_inexec")
    ps = analysis.check_postulate(hidden, "PS", "a")
    pi = analysis.check_postulate(hidden, "PI", "a")
    raw = analysis.implicit_inexec_laws(hidden, "a")
    oracle = semantics.entails_dep(
        hidden, BoxQuery("a", parse_formula("p1"), FALSE))
    pdl = analysis.pdl_covers(hidden.static_formulas(),
                              [f.law for f in raw],
                              parse_formula("p1"))
    elapsed = time.perf_counter() - start
    ok = t2 == {"~alive -> [tease]false"} \
        and coffee == {"sugar & salt -> [drink]false"} \
        and ps.status == "fail" \
        and pi.status == "blocked-by-PS" and pi.findings == () \
        and oracle is True and pdl is False \
        and elapsed < 3.0
    _gate("2 implicit inexecutability laws", ok)


def test_criterion_3_prime_implicates_and_new_consequences():
    pi = engine.prime_implicates(
        [parse_formula("p1 & (~p1 | p2) & (~p1 | p3 | p4)")])
    golden = pi == ((Literal("p1", False),), (Literal("p2", False),),
                    (Literal("p3", False), Literal("p4", False)))
    walking, alive = Literal("walking", False), Literal("alive", False)
    newcons = engine.new_cons([parse_formula("walking -> alive")],
                              parse_formula("walking")) == \
        ((alive,), (walking,)) \
        and engine.new_cons([], parse_formula("false")) == ((),) \
        and engine.new_cons([parse_formula("p1")],
                            parse_formula("p1")) == ()
    rng = random.Random(17)
    atoms = ["p1", "p2", "p3", "p4", "p5"]
    start = time.perf_counter()
    props = True
    for _ in range(500):
        base = [random_formula(rng, atoms)
                for _ in range(rng.randint(0, 2))]
        psi = random_formula(rng, atoms)
        fresh = engine.new_cons(base, psi)
        for chi in fresh:
            f = clause_formula(chi)
            # 1: new consequences follow from base + psi
            props &= engine.entails(base + [psi], f)
            # 2: but not from base alone
            props &= not engine.entails(base, f)
        # 3: nothing is new exactly when psi is already entailed
        props &= (fresh == ()) == engine.entails(base, psi)
        # 4: base + the new consequences covers every new implicate
        extended = base + [clause_formula(c) for c in fresh]
        for chi in engine.prime_implicates(base + [psi]):
            props &= engine.entails(extended, clause_formula(chi))
    elapsed = time.perf_counter() - start
    _gate("3 prime implicates and new consequences",
          golden and newcons and props and elapsed < 10.0)


def test_criterion_4_frame_oracle(theory):
    guns = parse_theory(GUNS)
    keeps_gun = BoxQuery("load", parse_formula("hasGun"),
                         parse_formula("hasGun"))
    t1 = theory("t1")
    stays_dead = BoxQuery("tease", parse_formula("~alive"),
                          parse_formula("~alive"))
    t2 = theory("t2")
    teased_alive = BoxQuery("tease", parse_formula("true"),
                            parse_formula("alive"))
    ok = semantics.entails_dep(guns, keeps_gun) is True \
        and semantics.entails_dep(t1, stays_dead) is True \
        and semantics.entails_pdl(guns, keeps_gun) is False \
        and semantics.entails_pdl(t2, teased_alive) is True
    _gate("4 frame oracle", ok)


def _all_clauses(fluents):
    for signs in itertools.product((0, 1, 2), repeat=len(fluents)):
        lits = [Literal(f, s == 2) for f, s in zip(fluents, signs) if s]
        if lits:
            yield clause_formula(tuple(lits))


def test_criterion_5_equivalence_properties():
    rng = random.Random(31)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        t = random_theory(rng)
        statics = t.static_formulas()
        all_ps = True
        for a in t.actions:
            sub = t.for_action(a)
            istar = [f.formula
                     for f in analysis.implicit_static_laws(sub, a, "grow")]
            frame = semantics.prune_fixpoint(sub)
            val_s = set(semantics.static_worlds(sub))
            ps_fixpoint = set(frame.worlds) == val_s
            ps_verdict = analysis.check_postulate(t, "PS", a,
                                                  "grow").ok
            # (a) algorithmic, semantic and verdict forms of PS agree
            ok &= (istar == []) == ps_fixpoint == ps_verdict
            all_ps &= ps_fixpoint
            # (b) classical consequences are exactly those of S + catches
            for chi in _all_clauses(t.fluents):
                ok &= semantics.entails_dep(sub, ClassicalQuery(chi)) \
                    == engine.entails(statics + istar, chi)
            # (c) no implicit static laws means no implicit executabilities
            if ps_fixpoint:
                ok &= analysis.check_postulate(t, "PX", a).ok
        frame = semantics.prune_fixpoint(t)
        if all_ps:
            # (d) under PS for all actions, consistency reduces to S
            ok &= bool(frame.worlds) == engine.satisfiable(statics)
            # (e) queries about one action localize to its sub-theory
            for _ in range(3):
                a = rng.choice(t.actions)
                pre = random_formula(rng, list(t.fluents))
                post = random_formula(rng, list(t.fluents))
                for q in (ClassicalQuery(pre), BoxQuery(a, pre, post),
                          DiamondQuery(a, pre)):
                    ok &= semantics.entails_dep(t, q) \
                        == semantics.entails_dep(t.for_action(a), q)
    elapsed = time.perf_counter() - start
    _gate("5 equivalence properties", ok and elapsed < 30.0)


def test_criterion_6_entailment_vs_countermodels():
    rng = random.Random(47)
    ok = True
    for _ in range(100):
        t = random_theory(rng)
        bound = 1 << len(t.fluents)
        for _ in range(20):
            kind = rng.randrange(3)
            pre = random_formula(rng, list(t.fluents))
            if kind == 0:
                q = ClassicalQuery(pre)
            elif kind == 1:
                q = BoxQuery(rng.choice(t.actions), pre,
                             random_formula(rng, list(t.fluents)))
            else:
                q = DiamondQuery(rng.choice(t.actions), pre)
            entailed = semantics.entails_dep(t, q)
            counter = semantics.enumerate_countermodel(t, q, bound)
            ok &= entailed == (counter is None)
            if counter is not None:
                ok &= semantics.satisfies(counter, t)
    _gate("6 entailment vs countermodels", ok)


def test_criterion_7_modular_theory(theory):
    t4 = theory("t4")
    informative = semantics.entails_dep(
        t4, BoxQuery("shoot", parse_formula("~hasGun & loaded"), FALSE))
    ok = analysis.check_postulate(t4, "PS*").ok \
        and analysis.check_postulate(t4, "PI*").ok \
        and analysis.check_postulate(t4, "P-bot", "shoot").ok \
        and informative is True
    _gate("7 modular theory verdicts", ok)


def test_criterion_8_repair_efficacy(theory):
    from atmod.repairs import AddInexecutability, suggest_repairs
    ok = True
    names = ("t1", "t2", "shoot_nogun", "coffee", "intline")
    for name in names:
        t = theory(name)
        for a in t.actions:
            findings = list(analysis.implicit_static_laws(t, a, "grow")) \
                + list(analysis.implicit_inexec_laws(t, a))
            for finding in findings:
                repairs = suggest_repairs(t, finding, "grow")
                ok &= bool(repairs)
                for repair in repairs:
                    patched = repair.apply(t)
                    if isinstance(finding, analysis.StaticLawFinding):
                        left = {f.formula for f in
                                analysis.implicit_static_laws(patched, a,
                                                              "grow")}
                        ok &= finding.formula not in left
                    else:
                        left = {f.law.pre for f in
                                analysis.implicit_inexec_laws(patched, a)}
                        ok &= finding.law.pre not in left
    t2 = theory("t2")
    finding = analysis.implicit_inexec_laws(t2, "tease")[0]
    first = suggest_repairs(t2, finding)[0]
    ok &= isinstance(first, AddInexecutability)
    patched = first.apply(t2)
    ok &= analysis.check_postulate(patched, "PS", "tease").ok
    ok &= analysis.check_postulate(patched, "PI", "tease").ok
    _gate("8 repair efficacy", ok)

import random

import pytest

from atmod import engine
from atmod.errors import ResourceLimitError
from atmod.formulas import (Literal, clause_formula, conj, parse_formula)
from conftest import random_formula

P1 = Literal("p1", False)
P2 = Literal("p2", False)
P3 = Literal("p3", False)
P4 = Literal("p4", False)


def test_satisfiable_and_entails():
    assert engine.satisfiable([parse_formula("p | q"), parse_formula("~p")])
    assert not engine.satisfiable([parse_formula("p"), parse_formula("~p")])
    assert engine.entails([parse_formula("p -> q"), parse_formula("p")],
                          parse_formula("q"))
    assert not engine.entails([parse_formula("p -> q")], parse_formula("q"))
    assert engine.satisfiable([])
    assert engine.entails([], parse_formula("p | ~p"))


def test_prime_implicates_golden():
    assert engine.prime_implicates(
        [parse_formula("p1 & p2 & (p3 | p4)")]) == \
        ((P1,), (P2,), (P3, P4))


def test_prime_implicates_resolution():
    assert engine.prime_implicates(
        [parse_formula("p1 -> p2"), parse_formula("p1")]) == ((P1,), (P2,))


def test_prime_implicates_degenerate():
    assert engine.prime_implicates([parse_formula("p1 | ~p1")]) == ()
    assert engine.prime_implicates([parse_formula("p1 & ~p1")]) == ((),)
    assert engine.prime_implicates([]) == ()


def test_new_cons_golden():
    walking = Literal("walking", False)
    alive = Literal("alive", False)
    assert engine.new_cons([parse_formula("walking -> alive")],
                           parse_formula("walking")) == \
        ((alive,), (walking,))
    assert engine.new_cons([], parse_formula("false")) == ((),)
    assert engine.new_cons([parse_formula("p1")], parse_formula("p1")) == ()


def test_new_cons_properties_random():
    rng = random.Random(5)
    atoms = ["p1", "p2", "p3", "p4", "p5"]
    for _ in range(100):
        base = [random_formula(rng, atoms) for _ in range(rng.randint(0, 2))]
        psi = random_formula(rng, atoms)
        fresh = engine.new_cons(base, psi)
        for chi in fresh:
            f = clause_formula(chi)
            # a new consequence follows from base + psi but not from base
            assert engine.entails(base + [psi], f)
            assert not engine.entails(base, f)
        # nothing is new exactly when psi already follows from base
        assert (fresh == ()) == engine.entails(base, psi)
        # base + the new consequences has the same clausal consequences
        extended = base + [clause_formula(c) for c in fresh]
        for chi in engine.prime_implicates(base + [psi]):
            assert engine.entails(extended, clause_formula(chi))


def test_atom_guard(monkeypatch):
    monkeypatch.setenv("ATMOD_MAX_ATOMS", "2")
    with pytest.raises(ResourceLimitError):
        engine.satisfiable([parse_formula("p & q & r")])
    assert engine.satisfiable([parse_formula("p & q")])
    monkeypatch.delenv("ATMOD_MAX_ATOMS")
    assert engine.max_atoms() == engine.DEFAULT_MAX_ATOMS


def test_memo_keeps_the_atom_guard(monkeypatch):
    fs = [parse_formula("p -> q"), parse_formula("q -> r")]
    with engine.memo():
        assert engine.prime_implicates(fs)
        monkeypatch.setenv("ATMOD_MAX_ATOMS", "2")
        with pytest.raises(ResourceLimitError):
            engine.prime_implicates(fs)
        with pytest.raises(ResourceLimitError):
            engine.satisfiable(fs)


def test_nested_memo_joins_the_open_scope():
    assert engine._SCOPE.get() is None
    with engine.memo():
        outer = engine._SCOPE.get()
        with engine.memo():
            assert engine._SCOPE.get() is outer
        assert engine._SCOPE.get() is outer
    assert engine._SCOPE.get() is None

import pytest
from hypothesis import given, strategies as st

from atmod.errors import ParseError
from atmod.formulas import (FALSE, TRUE, And, Atom, Iff, Imp, Literal, Not,
                            Or, atoms_of, clause_formula, cnf_clauses, conj,
                            disj, flatten_and, format_formula,
                            negated_clause_formula, parse_formula, simplify)
from atmod.semantics import eval_mask

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_precedence():
    assert parse_formula("~p & q | r -> p <-> q") == \
        Iff(Imp(Or(And(Not(p), q), r), p), q)


def test_parse_right_assoc_imp():
    assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse_formula("p <-> q <-> r") == Iff(p, Iff(q, r))


def test_parse_left_assoc_and_or():
    assert parse_formula("p & q & r") == And(And(p, q), r)
    assert parse_formula("p | q | r") == Or(Or(p, q), r)


def test_parse_constants_and_parens():
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE
    assert parse_formula("~(p | q)") == Not(Or(p, q))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p &\n& q")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("p @ q")


def test_atoms_of():
    assert atoms_of(parse_formula("p & (q -> ~r)")) == {"p", "q", "r"}
    assert atoms_of(TRUE) == frozenset()


def test_conj_disj():
    assert conj([]) == TRUE
    assert disj([]) == FALSE
    assert flatten_and(conj([p, q, r])) == [p, q, r]


def test_clause_helpers():
    clause = (Literal("p", False), Literal("q", True))
    assert str(clause_formula(clause)) == "p | ~q"
    assert str(negated_clause_formula(clause)) == "~p & q"
    assert negated_clause_formula(()) == TRUE


def test_simplify():
    assert simplify(parse_formula("~~p")) == p
    assert simplify(parse_formula("p & true & p")) == p
    assert simplify(parse_formula("p & false")) == FALSE
    assert simplify(parse_formula("p | false")) == p
    assert simplify(parse_formula("true -> p")) == p
    assert simplify(parse_formula("p -> false")) == Not(p)
    assert simplify(Not(conj([TRUE, Not(p), TRUE]))) == p


def _formulas():
    atoms = st.sampled_from([p, q, r])
    return st.recursive(
        atoms | st.just(TRUE) | st.just(FALSE),
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Imp(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t))),
        max_leaves=12)


@given(_formulas())
def test_format_parse_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


def _truth(f, valuation):
    index = {a: i for i, a in enumerate(sorted(valuation))}
    mask = sum(1 << index[a] for a in valuation if valuation[a])
    return eval_mask(f, mask, index)


def test_cnf_of_tautology_is_empty():
    assert cnf_clauses(parse_formula("p | ~p")) == ()


@given(_formulas())
def test_cnf_equivalent(f):
    atoms = sorted(atoms_of(f)) or ["p"]
    clauses = cnf_clauses(f)
    cnf = conj(clause_formula(c) for c in clauses) if clauses else TRUE
    for mask in range(1 << len(atoms)):
        valuation = {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}
        assert _truth(f, valuation) == _truth(cnf, valuation)


@given(_formulas())
def test_simplify_equivalent(f):
    atoms = sorted(atoms_of(f)) or ["p"]
    s = simplify(f)
    for mask in range(1 << len(atoms)):
        valuation = {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}
        assert _truth(f, valuation) == _truth(s, valuation)

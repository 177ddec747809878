"""Classical reasoning: satisfiability, entailment, prime implicates.

All functions take plain formulas (or sequences of them, read
conjunctively) and enforce a global atom-count guard, configurable via
the ATMOD_MAX_ATOMS environment variable (default 24).

Inside a memo() scope, each formula's atoms and clauses are computed
once, and the prime implicates of each formula set once per atom limit;
outside any scope every call starts from empty tables.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar

from atmod import kernels
from atmod.errors import ResourceLimitError
from atmod.formulas import (Literal, Not, atoms_of, canonical_clause,
                            cnf_clauses, sort_clauses)

DEFAULT_MAX_ATOMS = 24


def max_atoms():
    value = os.environ.get("ATMOD_MAX_ATOMS")
    return int(value) if value else DEFAULT_MAX_ATOMS


class _Memo:
    """Per-formula atoms and clauses, and prime implicates keyed by
    (formulas, atom limit)."""

    __slots__ = ("atoms", "clauses", "implicates")

    def __init__(self):
        self.atoms = {}
        self.clauses = {}
        self.implicates = {}


_SCOPE = ContextVar("atmod_engine_memo", default=None)


@contextmanager
def memo():
    """Share one memo among the engine calls made inside the block; a
    nested block joins the scope already open."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set(_Memo())
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _memo():
    return _SCOPE.get() or _Memo()


def _check_atoms(universe):
    limit = max_atoms()
    if len(universe) > limit:
        raise ResourceLimitError(
            "universe has %d atoms, limit is %d (set ATMOD_MAX_ATOMS to raise)"
            % (len(universe), limit))


def universe_of(formulas, extra=()):
    """Sorted atom universe of a set of formulas, checked against the guard."""
    table = _memo().atoms
    atoms = set(extra)
    for f in formulas:
        found = table.get(f)
        if found is None:
            found = table[f] = atoms_of(f)
        atoms |= found
    universe = tuple(sorted(atoms))
    _check_atoms(universe)
    return universe


def clause_to_masks(clause, index):
    pos = neg = 0
    for lit in clause:
        bit = 1 << index[lit.atom]
        if lit.negated:
            neg |= bit
        else:
            pos |= bit
    return pos, neg


def masks_to_clause(pos, neg, universe):
    lits = [Literal(universe[i], False) for i in range(len(universe))
            if pos >> i & 1]
    lits += [Literal(universe[i], True) for i in range(len(universe))
             if neg >> i & 1]
    return canonical_clause(lits)


def formulas_to_masks(formulas, universe):
    table = _memo().clauses
    index = {a: i for i, a in enumerate(universe)}
    out = []
    for f in formulas:
        clauses = table.get(f)
        if clauses is None:
            clauses = table[f] = cnf_clauses(f)
        for clause in clauses:
            out.append(clause_to_masks(clause, index))
    return out


def satisfiable(formulas):
    """Classical satisfiability of a conjunctively read set of formulas."""
    formulas = list(formulas)
    universe = universe_of(formulas)
    masks = formulas_to_masks(formulas, universe)
    return kernels.find_model(masks, len(universe)) != -1


def entails(premises, conclusion):
    """Classical entailment of a single formula from a set of premises."""
    return not satisfiable(list(premises) + [Not(conclusion)])


def model_masks(formulas, universe):
    """All valuations over a fixed universe satisfying the formulas."""
    _check_atoms(universe)
    masks = formulas_to_masks(formulas, universe)
    return kernels.enum_models(masks, len(universe))


def prime_implicates(formulas):
    """Prime implicates of a conjunctively read set of formulas.

    A valid input yields the empty set; an unsatisfiable one yields the
    set containing only the empty clause.
    """
    table = _memo().implicates
    formulas = tuple(formulas)
    key = (formulas, max_atoms())
    prime = table.get(key)
    if prime is None:
        universe = universe_of(formulas)
        masks = formulas_to_masks(formulas, universe)
        prime = table[key] = sort_clauses(
            masks_to_clause(p, n, universe)
            for p, n in kernels.saturate(masks))
    return prime


def new_cons(base, psi):
    """Prime implicates of base + psi that are not prime implicates of base."""
    base = list(base)
    with_psi = prime_implicates(base + [psi])
    without = set(prime_implicates(base))
    return sort_clauses(c for c in with_psi if c not in without)

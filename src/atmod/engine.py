"""Classical reasoning: satisfiability, entailment, prime implicates.

All functions take plain formulas (or sequences of them, read
conjunctively) and enforce a global atom-count guard, configurable via
the ATMOD_MAX_ATOMS environment variable (default 24).
"""

import os

from atmod import kernels
from atmod.errors import ResourceLimitError
from atmod.formulas import (Literal, Not, atoms_of, canonical_clause,
                            cnf_clauses, sort_clauses)

DEFAULT_MAX_ATOMS = 24


def max_atoms():
    value = os.environ.get("ATMOD_MAX_ATOMS")
    return int(value) if value else DEFAULT_MAX_ATOMS


def universe_of(formulas, extra=()):
    """Sorted atom universe of a set of formulas, checked against the guard."""
    atoms = set(extra)
    for f in formulas:
        atoms |= atoms_of(f)
    universe = tuple(sorted(atoms))
    limit = max_atoms()
    if len(universe) > limit:
        raise ResourceLimitError(
            "universe has %d atoms, limit is %d (set ATMOD_MAX_ATOMS to raise)"
            % (len(universe), limit))
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
    index = {a: i for i, a in enumerate(universe)}
    out = []
    for f in formulas:
        for clause in cnf_clauses(f):
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
    limit = max_atoms()
    if len(universe) > limit:
        raise ResourceLimitError(
            "universe has %d atoms, limit is %d (set ATMOD_MAX_ATOMS to raise)"
            % (len(universe), limit))
    masks = formulas_to_masks(formulas, universe)
    return kernels.enum_models(masks, len(universe))


def prime_implicates(formulas):
    """Prime implicates of a conjunctively read set of formulas.

    A valid input yields the empty set; an unsatisfiable one yields the
    set containing only the empty clause.
    """
    formulas = list(formulas)
    universe = universe_of(formulas)
    masks = formulas_to_masks(formulas, universe)
    prime = kernels.saturate(masks)
    return sort_clauses(masks_to_clause(p, n, universe) for p, n in prime)


def new_cons(base, psi):
    """Prime implicates of base + psi that are not prime implicates of base."""
    base = list(base)
    with_psi = prime_implicates(base + [psi])
    without = set(prime_implicates(base))
    return sort_clauses(c for c in with_psi if c not in without)

import random

from atmod import engine, kernels
from atmod.formulas import Atom, Imp, Not


def _random_clauses(rng, n, m):
    out = []
    for _ in range(m):
        pos = neg = 0
        for i in range(n):
            roll = rng.random()
            if roll < 0.25:
                pos |= 1 << i
            elif roll < 0.5:
                neg |= 1 << i
        out.append((pos, neg))
    return out


def test_find_model_agrees_with_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        clauses = _random_clauses(rng, n, rng.randint(0, 8))
        models = kernels.enum_models(clauses, n)
        found = kernels.find_model(clauses, n)
        if models:
            assert found in models
        else:
            assert found == -1


def test_empty_clause_is_unsat():
    assert kernels.find_model([(0, 0)], 3) == -1
    assert kernels.enum_models([(0, 0)], 3) == []


def test_no_clauses_everything_is_a_model():
    assert kernels.find_model([], 2) >= 0
    assert kernels.enum_models([], 2) == [0, 1, 2, 3]
    assert kernels.enum_models([], 0) == [0]


def _clause_models(clauses, n):
    return set(kernels.enum_models(clauses, n))


def test_saturate_preserves_models_and_is_reduced():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        clauses = _random_clauses(rng, n, rng.randint(1, 6))
        prime = kernels.saturate(clauses)
        assert _clause_models(prime, n) == _clause_models(clauses, n)
        for i, a in enumerate(prime):
            for j, b in enumerate(prime):
                if i != j:
                    assert not kernels._subsumes(a, b)
        # every prime implicate is entailed, and none can be shrunk
        models = _clause_models(clauses, n)
        for cp, cn in prime:
            assert models <= _clause_models([(cp, cn)], n)
            for i in range(n):
                bit = 1 << i
                if (cp | cn) & bit:
                    shrunk = (cp & ~bit, cn & ~bit)
                    assert not models <= _clause_models([shrunk], n)


def test_saturate_of_contradiction():
    assert kernels.saturate([(1, 0), (0, 1)]) == [(0, 0)]


def test_masks_wider_than_32_bits(monkeypatch):
    monkeypatch.setenv("ATMOD_MAX_ATOMS", "40")
    x = [Atom("x%02d" % i) for i in range(34)]
    chain = [Imp(x[i], x[i + 1]) for i in range(33)]
    assert engine.satisfiable(chain + [x[0], x[33]])
    assert not engine.satisfiable(chain + [x[0], Not(x[33])])
    # the implicates of a chain are exactly ~x_i | x_j for i < j
    assert len(engine.prime_implicates(chain)) == 34 * 33 // 2


def test_selected_backend_exports():
    assert kernels.BACKEND == "pykernels"
    assert kernels.find_model([], 1) in (0, 1)

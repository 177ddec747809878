"""Possible-worlds semantics for action theories.

Worlds are valuations of the declared fluents, encoded as bitmasks in
declaration order.  An edge v -a-> w is permitted when it respects the
dependence relation of a (a literal the action cannot cause stays false,
respectively true, across the edge) and every direct consequence of a
(effect and inexecutability laws).  The big model, all static-law
worlds with all permitted edges, is built by image computation: at each
world only the fluents the action may flip there are enumerated, and
the consequents that apply there filter the candidates, so no world
pair is tested unless the dependence relation lets the action reach it.
The intended models are computed by a greatest-fixpoint pruning:
starting from the big model, worlds where some applicable executability
law has no surviving successor are deleted until none remain.
"""

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

from atmod import engine
from atmod.errors import ResourceLimitError
from atmod.formulas import (FALSE, And, Atom, Bot, Iff, Imp, Literal, Not, Or,
                            Top)
from atmod.theory import BoxQuery, ClassicalQuery, DiamondQuery

# Most world subsets one countermodel search may try.
MAX_COUNTERMODEL_SUBSETS = 1_000_000


def eval_mask(formula, mask, index):
    """Truth of a formula at a valuation given as a bitmask."""
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bot):
        return False
    if isinstance(formula, Atom):
        return bool(mask >> index[formula.name] & 1)
    if isinstance(formula, Not):
        return not eval_mask(formula.sub, mask, index)
    if isinstance(formula, And):
        return (eval_mask(formula.left, mask, index)
                and eval_mask(formula.right, mask, index))
    if isinstance(formula, Or):
        return (eval_mask(formula.left, mask, index)
                or eval_mask(formula.right, mask, index))
    if isinstance(formula, Imp):
        return (not eval_mask(formula.left, mask, index)
                or eval_mask(formula.right, mask, index))
    if isinstance(formula, Iff):
        return (eval_mask(formula.left, mask, index)
                == eval_mask(formula.right, mask, index))
    raise TypeError("not a formula: %r" % (formula,))


@dataclass(frozen=True, slots=True)
class KripkeModel:
    """A finite model: world masks over the fluents, edges per action."""

    fluents: tuple
    worlds: tuple            # sorted valuation masks
    relation: dict           # action -> tuple of (source, target) mask pairs

    @property
    def index(self):
        return {f: i for i, f in enumerate(self.fluents)}

    def world_dict(self, mask):
        return {f: bool(mask >> i & 1) for i, f in enumerate(self.fluents)}


def permitted_edge(theory, action, index, source, target):
    """Whether source -action-> target respects dependence and consq(action)."""
    for fluent, i in index.items():
        src, tgt = source >> i & 1, target >> i & 1
        if not src and tgt \
                and not theory.may_change(action, Literal(fluent, False)):
            return False
        if src and not tgt \
                and not theory.may_change(action, Literal(fluent, True)):
            return False
    for pre, post in theory.consq(action):
        if eval_mask(pre, source, index) and not eval_mask(post, target, index):
            return False
    return True


def static_worlds(theory):
    """All valuations of the static laws, as masks over the fluents."""
    return tuple(engine.model_masks(theory.static_formulas(), theory.fluents))


def big_model(theory):
    """All static-law worlds with every permitted edge.

    Successors are generated, not searched for: an action may flip at a
    world v only the bits in free = (~v & rise) | (v & fall), where rise
    and fall hold the fluents it may make true and false, so every
    candidate target is v ^ s for a subset s of free.  The consequents
    of the laws in consq(action) whose antecedent holds at v are kept;
    a candidate is an edge when it is a static-law world satisfying all
    of them.  The relation lists edges by source, then target, as a
    filter of all world pairs through permitted_edge would.
    """
    index = {f: i for i, f in enumerate(theory.fluents)}
    worlds = static_worlds(theory)
    world_set = set(worlds)
    relation = {}
    for action in theory.actions:
        rise = fall = 0
        for fluent, i in index.items():
            if theory.may_change(action, Literal(fluent, False)):
                rise |= 1 << i
            if theory.may_change(action, Literal(fluent, True)):
                fall |= 1 << i
        consq = theory.consq(action)
        edges = []
        for v in worlds:
            posts = [post for pre, post in consq if eval_mask(pre, v, index)]
            if FALSE in posts:      # an inexecutability law applies
                continue
            free = (~v & rise) | (v & fall)
            targets = []
            s = free
            while True:
                w = v ^ s
                if w in world_set and all(eval_mask(post, w, index)
                                          for post in posts):
                    targets.append(w)
                if not s:
                    break
                s = (s - 1) & free
            targets.sort()
            edges.extend((v, w) for w in targets)
        relation[action] = tuple(edges)
    return KripkeModel(theory.fluents, worlds, relation)


def prune_fixpoint(theory):
    """Largest submodel of the big model satisfying the executability laws.

    Worlds at which some applicable executability law has no surviving
    successor are removed, repeatedly, until stable.  Every model of the
    theory respecting the dependence relation embeds into the result.
    """
    index = {f: i for i, f in enumerate(theory.fluents)}
    model = big_model(theory)
    alive = set(model.worlds)
    succ = {a: {} for a in theory.actions}
    for action, edges in model.relation.items():
        for v, w in edges:
            succ[action].setdefault(v, set()).add(w)
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            for law in theory.execs:
                if not eval_mask(law.pre, v, index):
                    continue
                if not (succ[law.action].get(v, set()) & alive):
                    alive.discard(v)
                    changed = True
                    break
    worlds = tuple(sorted(alive))
    relation = {a: tuple((v, w) for v, w in edges
                         if v in alive and w in alive)
                for a, edges in model.relation.items()}
    return KripkeModel(theory.fluents, worlds, relation)


def satisfies(model, theory):
    """Whether a model satisfies the theory and respects its dependence."""
    index = {f: i for i, f in enumerate(theory.fluents)}
    succ = {a: {} for a in theory.actions}
    for action, edges in model.relation.items():
        for v, w in edges:
            if not permitted_edge(theory, action, index, v, w):
                return False
            succ[action].setdefault(v, set()).add(w)
    for v in model.worlds:
        for law in theory.statics:
            if not eval_mask(law.formula, v, index):
                return False
        for law in theory.execs:
            if eval_mask(law.pre, v, index) \
                    and not succ[law.action].get(v):
                return False
    return True


# -- entailment ---------------------------------------------------------------

def _refutes(theory, model, query, index):
    """The model itself (possibly with edges removed) if it refutes the
    query, else None."""
    if isinstance(query, ClassicalQuery):
        if any(not eval_mask(query.formula, v, index) for v in model.worlds):
            return model
        return None
    if isinstance(query, BoxQuery):
        bad = any(eval_mask(query.pre, v, index)
                  and not eval_mask(query.post, w, index)
                  for v, w in model.relation.get(query.action, ()))
        return model if bad else None
    if isinstance(query, DiamondQuery):
        # In the pruned model a world has an a-successor exactly when some
        # executability law for a applies there: an edge not forced by an
        # executability law can always be dropped from some model.
        execs = theory.execs_for(query.action)
        witnesses = {v for v in model.worlds
                     if eval_mask(query.pre, v, index)
                     and not any(eval_mask(law.pre, v, index)
                                 for law in execs)}
        if not witnesses:
            return None
        # Drop the optional outgoing edges at the witnesses so that the
        # returned model visibly refutes the diamond.
        relation = dict(model.relation)
        relation[query.action] = tuple(
            (v, w) for v, w in relation.get(query.action, ())
            if v not in witnesses)
        return KripkeModel(model.fluents, model.worlds, relation)
    raise TypeError("not a query: %r" % (query,))


def pruned_entails(theory, pruned, query):
    """Entailment over all models of the theory respecting its dependence,
    decided on its pruned model (as prune_fixpoint(theory) returns it)."""
    index = {f: i for i, f in enumerate(theory.fluents)}
    return _refutes(theory, pruned, query, index) is None


def entails_dep(theory, query):
    """Entailment over all models of the theory respecting its dependence."""
    return pruned_entails(theory, prune_fixpoint(theory), query)


def entails_pdl(theory, query):
    """Entailment ignoring the dependence relation (any edge is permitted)."""
    return entails_dep(theory.with_total_dependence(), query)


# -- explicit countermodel search ---------------------------------------------

def enumerate_countermodel(theory, query, max_worlds=4):
    """Search for a model of the theory refuting the query.

    Tries every subset of the static-law worlds with at most max_worlds
    elements, equipped with all permitted edges.  Returns a refuting
    KripkeModel or None.  Complete once max_worlds covers all static-law
    worlds; below that it is a sound but partial check.  Raises
    ResourceLimitError, before any search, when there are more than
    MAX_COUNTERMODEL_SUBSETS such subsets.
    """
    if len(theory.fluents) > 16:
        raise ResourceLimitError(
            "countermodel search is limited to 16 fluents")
    index = {f: i for i, f in enumerate(theory.fluents)}
    candidates = static_worlds(theory)
    subsets = sum(comb(len(candidates), k)
                  for k in range(1, min(max_worlds, len(candidates)) + 1))
    if subsets > MAX_COUNTERMODEL_SUBSETS:
        raise ResourceLimitError(
            "countermodel search would try %d world subsets (up to %d of "
            "%d worlds), limit is %d"
            % (subsets, max_worlds, len(candidates),
               MAX_COUNTERMODEL_SUBSETS))
    edges = {a: {v: [] for v in candidates} for a in theory.actions}
    for action, pairs in big_model(theory).relation.items():
        for v, w in pairs:
            edges[action][v].append(w)
    forced = {v: [a for a in theory.actions
                  if any(eval_mask(law.pre, v, index)
                         for law in theory.execs_for(a))]
              for v in candidates}
    for size in range(1, min(max_worlds, len(candidates)) + 1):
        for subset in combinations(candidates, size):
            chosen = set(subset)
            if not _subset_valid(subset, chosen, edges, forced):
                continue
            model = _subset_model(theory, subset, chosen, edges)
            refuted = _refutes(theory, model, query, index)
            if refuted is not None:
                return refuted
    return None


def _subset_valid(subset, chosen, edges, forced):
    """Whether every executability law applicable in the subset keeps a
    successor inside it; forced[v] lists the actions some law forces at v."""
    for v in subset:
        for action in forced[v]:
            if chosen.isdisjoint(edges[action][v]):
                return False
    return True


def _subset_model(theory, subset, chosen, edges):
    relation = {a: tuple((v, w) for v in subset
                         for w in edges[a][v] if w in chosen)
                for a in theory.actions}
    return KripkeModel(theory.fluents, tuple(sorted(subset)), relation)


# -- export -------------------------------------------------------------------

def model_to_json(model):
    """A JSON-ready dict: named worlds and per-action edge lists."""
    names = {v: "w%d" % i for i, v in enumerate(model.worlds)}
    return {
        "fluents": list(model.fluents),
        "worlds": [{"name": names[v], "valuation": model.world_dict(v)}
                   for v in model.worlds],
        "relation": {action: [[names[v], names[w]] for v, w in sorted(edges)]
                     for action, edges in sorted(model.relation.items())},
    }


def model_to_dot(model):
    """Graphviz rendering; worlds are labelled with their true fluents."""
    names = {v: "w%d" % i for i, v in enumerate(model.worlds)}
    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=box];"]
    for v in model.worlds:
        true = [f for i, f in enumerate(model.fluents) if v >> i & 1]
        label = "{%s}" % ", ".join(true)
        lines.append('  %s [label="%s"];' % (names[v], label))
    for action, edges in sorted(model.relation.items()):
        for v, w in sorted(edges):
            lines.append('  %s -> %s [label="%s"];'
                         % (names[v], names[w], action))
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Detection of implicit laws and the modularity postulates.

An action theory is modular when every consequence of a given syntactic
kind already follows from the laws of that kind: static laws from the
static part, inexecutability laws from the explicit inexecutabilities,
and so on.  This module finds the offending implicit laws and decides
the associated postulates against the possible-worlds semantics.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

from atmod import engine, semantics
from atmod.errors import ResourceLimitError
from atmod.formulas import (FALSE, And, Not, conj,
                            negated_clause_formula, simplify)
from atmod.theory import InexecutabilityLaw

MAX_CONSEQUENCE_LAWS = 16


@dataclass(frozen=True, slots=True)
class StaticLawFinding:
    """An implicit static law, with the laws that witness it."""

    action: str
    formula: object          # the caught static law
    exec_law: object         # the executability law involved
    subset: tuple            # effect/inexecutability laws involved
    chi: tuple               # the indirect consequence, as a clause

    def __str__(self):
        return str(simplify(self.formula))


@dataclass(frozen=True, slots=True)
class InexecLawFinding:
    """An implicit inexecutability law, with the laws that witness it."""

    action: str
    law: object              # the caught InexecutabilityLaw
    subset: tuple            # effect laws involved
    chi: tuple               # the indirect consequence, as a clause

    def __str__(self):
        return str(self.law)


def _law_consequence(law):
    if isinstance(law, InexecutabilityLaw):
        return law.pre, FALSE
    return law.pre, law.post


def _consequence_laws(theory, action):
    laws = theory.effects_for(action) + theory.inexecs_for(action)
    if len(laws) > MAX_CONSEQUENCE_LAWS:
        raise ResourceLimitError(
            "action %r has %d effect/inexecutability laws, limit is %d"
            % (action, len(laws), MAX_CONSEQUENCE_LAWS))
    return laws


def _nonempty_subsets(laws):
    for size in range(1, len(laws) + 1):
        yield from combinations(laws, size)


def _independent(theory, action, chi):
    return all(not theory.may_change(action, lit) for lit in chi)


def implicit_static_laws(theory, action, newcons_base="fixed"):
    """All implicit static laws involving one action.

    For every executability law phi -> <a>true and every nonempty subset
    of the effect/inexecutability laws of a, the indirect consequences of
    the combined effects are computed; a consequence chi whose literals
    the action cannot cause, and which does not already follow from the
    static laws together with the catches so far, witnesses the implicit
    static law ~(phi & phi_C & ~chi).  Newly caught laws take part in the
    filtering immediately, so each round adds only genuinely new laws;
    the loop runs until no law is caught.

    With newcons_base="grow" the caught laws also extend the base set
    against which "indirect" is judged, exposing consequences that are
    only indirect relative to the repaired static part.
    """
    if newcons_base not in ("fixed", "grow"):
        raise ValueError("newcons_base must be 'fixed' or 'grow'")
    with engine.memo():
        statics = theory.static_formulas()
        laws = _consequence_laws(theory, action)
        findings = []
        caught = []              # formulas of all findings, across rounds
        while True:
            step = []
            for exec_law in theory.execs_for(action):
                for subset in _nonempty_subsets(laws):
                    pre_c = conj(_law_consequence(l)[0] for l in subset)
                    post_c = conj(_law_consequence(l)[1] for l in subset)
                    base = statics + caught + step \
                        if newcons_base == "grow" else statics
                    for chi in engine.new_cons(base, post_c):
                        if not _independent(theory, action, chi):
                            continue
                        core = [exec_law.pre, pre_c,
                                negated_clause_formula(chi)]
                        if not engine.satisfiable(
                                statics + caught + step + core):
                            continue
                        law = simplify(Not(conj(core)))
                        step.append(law)
                        findings.append(StaticLawFinding(
                            action, law, exec_law, subset, chi))
            if not step:
                return findings
            caught += step


def pdl_covers(statics, laws, phi):
    """Whether statics & phi entail the precondition of some law.

    For inexecutability laws of an action this decides whether
    phi -> [a]false follows from the static and inexecutability laws
    alone; for executability laws, whether phi -> <a>true follows from
    the static and executability laws alone."""
    return not engine.satisfiable(
        list(statics) + [phi] + [Not(law.pre) for law in laws])


def implicit_inexec_laws(theory, action):
    """All implicit inexecutability laws of one action.

    For every subset of the effect laws of a (including the empty one),
    an indirect consequence chi of the combined effects whose literals
    the action cannot cause makes the action inexecutable where the
    effects apply but chi fails.  A law of that shape that does not
    already follow from the explicit inexecutabilities is reported.
    """
    with engine.memo():
        statics = theory.static_formulas()
        effects = theory.effects_for(action)
        if len(effects) > MAX_CONSEQUENCE_LAWS:
            raise ResourceLimitError(
                "action %r has %d effect laws, limit is %d"
                % (action, len(effects), MAX_CONSEQUENCE_LAWS))
        inexecs = theory.inexecs_for(action)
        findings = []
        seen = set()
        for size in range(len(effects) + 1):
            for subset in combinations(effects, size):
                pre_c = conj(law.pre for law in subset)
                post_c = conj(law.post for law in subset)
                for chi in engine.new_cons(statics, post_c):
                    if not _independent(theory, action, chi):
                        continue
                    pre = simplify(And(pre_c, negated_clause_formula(chi)))
                    if pre in seen:
                        continue
                    if pdl_covers(statics, inexecs, pre):
                        continue
                    seen.add(pre)
                    findings.append(InexecLawFinding(
                        action, InexecutabilityLaw(action, pre), subset, chi))
        return findings


# -- postulates ---------------------------------------------------------------

POSTULATES = ("PC", "PS", "PI", "PI'", "PX", "PX+", "P-bot",
              "PC*", "PS*", "PI*")

_STARRED = {"PC*": "PC", "PS*": "PS", "PI*": "PI"}


@dataclass(frozen=True, slots=True)
class Verdict:
    postulate: str
    action: object           # None for the starred, all-action forms
    status: str              # "pass", "fail" or "blocked-by-PS"
    findings: tuple = ()
    detail: str = ""

    @property
    def ok(self):
        return self.status == "pass"


def _world_name(theory, mask):
    true = [f for i, f in enumerate(theory.fluents) if mask >> i & 1]
    return "{%s}" % ", ".join(true)


# One action's sub-theory, its pruned model and that model's worlds, its
# sorted static-law worlds, and the worlds where the action has a successor.
_ActionFacts = namedtuple("_ActionFacts",
                          "sub model alive statics executable")


class _Facts:
    """What the postulates of one theory read, each computed once: the
    facts of each action, on first use, and every verdict decided, keyed
    by (postulate, action)."""

    def __init__(self, theory, newcons_base="fixed"):
        self.theory = theory
        self.newcons_base = newcons_base
        self.index = {f: i for i, f in enumerate(theory.fluents)}
        self._actions = {}
        self._verdicts = {}

    def of(self, action):
        if action not in self._actions:
            sub = self.theory.for_action(action)
            model = semantics.prune_fixpoint(sub)
            self._actions[action] = _ActionFacts(
                sub, model, frozenset(model.worlds),
                semantics.static_worlds(sub),
                frozenset(v for v, _ in model.relation.get(action, ())))
        return self._actions[action]

    def verdict(self, postulate, action):
        key = (postulate, action)
        if key not in self._verdicts:
            self._verdicts[key] = _decide(self, postulate, action)
        return self._verdicts[key]


def _world_check(facts, postulate, action, worlds, offends, laws, message,
                 findings=()):
    """Fail at the first world that offends and where no law of laws
    applies, naming it in message; pass if there is none."""
    for v in worlds:
        if offends(v) and not any(
                semantics.eval_mask(law.pre, v, facts.index) for law in laws):
            return Verdict(postulate, action, "fail", findings,
                           detail=message % _world_name(facts.theory, v))
    return Verdict(postulate, action, "pass", findings)


def _decide(facts, postulate, action):
    if postulate in _STARRED:
        parts = [facts.verdict(_STARRED[postulate], a)
                 for a in facts.theory.actions]
        status = next((p.status for p in parts if p.status != "pass"),
                      "pass")
        findings = tuple(f for part in parts for f in part.findings)
        detail = "; ".join("%s: %s" % (p.action, p.detail)
                           for p in parts if p.detail)
        return Verdict(postulate, None, status, findings, detail)

    f = facts.of(action)
    execs = f.sub.execs_for(action)
    inexecs = f.sub.inexecs_for(action)

    if postulate == "PC":
        if f.alive:
            return Verdict(postulate, action, "pass")
        return Verdict(postulate, action, "fail",
                       detail="no world survives pruning")

    if postulate == "PS":
        findings = tuple(implicit_static_laws(f.sub, action,
                                              facts.newcons_base))
        return _world_check(facts, postulate, action, f.statics,
                            lambda v: v not in f.alive, (),
                            "world %s satisfies the static laws but "
                            "survives in no model", findings)

    if postulate in ("PI", "PI'"):
        findings = ()
        if postulate == "PI":
            if not facts.verdict("PS", action).ok:
                return Verdict(postulate, action, "blocked-by-PS",
                               detail="not meaningful while PS fails for %r"
                               % action)
            findings = tuple(implicit_inexec_laws(f.sub, action))
        # PI checks every static-law world, but past PS those are exactly
        # the worlds of the pruned model, which PI' checks.
        return _world_check(facts, postulate, action, f.model.worlds,
                            lambda v: v not in f.executable, inexecs,
                            "the action is inexecutable at %s but no "
                            "inexecutability law covers it", findings)

    if postulate == "PX":
        return _world_check(facts, postulate, action, f.statics,
                            lambda v: v not in f.alive, execs,
                            "executability of the action at %s is "
                            "implicit: no executability law covers it")

    if postulate == "PX+":
        return _world_check(facts, postulate, action, f.model.worlds,
                            lambda v: v in f.executable, execs,
                            "the action is executable at %s but no "
                            "executability law covers it")

    if postulate == "P-bot":
        # pre -> [a]false is entailed exactly when no edge of the pruned
        # model leaves a world where pre holds.
        for law in f.sub.effects_for(action):
            if not any(semantics.eval_mask(law.pre, v, facts.index)
                       for v in f.executable):
                return Verdict(postulate, action, "fail",
                               detail="effect law %s only applies where "
                               "the action cannot occur" % law)
        return Verdict(postulate, action, "pass")

    raise AssertionError("unreachable")


def check_postulate(theory, postulate, action=None, newcons_base="fixed",
                    facts=None):
    """Decide one postulate, for one action or (starred forms) for all,
    reading and filling a record of shared facts (default: a fresh one)."""
    if postulate not in POSTULATES:
        raise ValueError("unknown postulate %r" % postulate)
    if postulate in _STARRED:
        action = None
    elif action is None:
        raise ValueError("postulate %s needs an action" % postulate)
    if facts is None:
        facts = _Facts(theory, newcons_base)
    elif facts.theory is not theory or facts.newcons_base != newcons_base:
        raise ValueError("facts were made for another theory or base")
    return facts.verdict(postulate, action)


def check_postulates(theory, postulates=None, newcons_base="fixed",
                     facts=None):
    """Verdicts for the requested postulates, in a deterministic order,
    all read from one record of shared facts (default: a fresh one)."""
    if postulates is None:
        postulates = POSTULATES
    if facts is None:
        facts = _Facts(theory, newcons_base)
    out = []
    for postulate in postulates:
        actions = (None,) if postulate in _STARRED else theory.actions
        for action in actions:
            out.append(check_postulate(theory, postulate, action,
                                       newcons_base, facts))
    return tuple(out)

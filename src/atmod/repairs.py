"""Repair suggestions for implicit laws.

Each finding admits a handful of candidate repairs: make the implicit
law explicit, weaken one of the laws that produce it, or extend the
dependence relation so the offending consequence counts as caused.  A
candidate is only suggested when re-running the detection on the
repaired theory confirms that the witnessed finding is gone.
"""

from dataclasses import dataclass, replace

from atmod import engine
from atmod.analysis import (InexecLawFinding, StaticLawFinding,
                            implicit_inexec_laws, implicit_static_laws)
from atmod.formulas import And, Not, simplify
from atmod.theory import (EffectLaw, ExecutabilityLaw, InexecutabilityLaw,
                          StaticLaw)


@dataclass(frozen=True, slots=True)
class AddStatic:
    formula: object

    def describe(self):
        return "add static law %s" % self.formula

    def apply(self, theory):
        return replace(theory,
                       statics=theory.statics + (StaticLaw(self.formula),))


@dataclass(frozen=True, slots=True)
class AddInexecutability:
    law: object

    def describe(self):
        return "add inexecutability law %s" % self.law

    def apply(self, theory):
        return replace(theory, inexecs=theory.inexecs + (self.law,))


@dataclass(frozen=True, slots=True)
class AddDependence:
    action: str
    literal: object

    def describe(self):
        return "let %s cause %s" % (self.action, self.literal)

    def apply(self, theory):
        return replace(theory, dependence=theory.dependence
                       | {(self.action, self.literal)})


# law type -> (theory field holding such laws, the law's kind in words)
_LAW_FIELDS = {ExecutabilityLaw: ("execs", "executability law"),
               EffectLaw: ("effects", "effect law"),
               InexecutabilityLaw: ("inexecs", "inexecutability law")}


@dataclass(frozen=True, slots=True)
class WeakenLaw:
    old: object
    new: object

    def describe(self):
        return "replace %s %s with %s" % (_LAW_FIELDS[type(self.old)][1],
                                          self.old, self.new)

    def apply(self, theory):
        field = _LAW_FIELDS[type(self.old)][0]
        laws = tuple(self.new if law == self.old else law
                     for law in getattr(theory, field))
        return replace(theory, **{field: laws})


def _restrict(law, extra):
    """A copy of the law with its condition strengthened by extra, or
    None when the strengthened condition is unsatisfiable."""
    pre = simplify(And(law.pre, extra))
    if not engine.satisfiable([pre]):
        return None
    return replace(law, pre=pre)


def _weaken(law, extra):
    new = _restrict(law, extra)
    return None if new is None else WeakenLaw(law, new)


def _candidates(finding):
    if isinstance(finding, StaticLawFinding):
        out = [AddStatic(finding.formula),
               _weaken(finding.exec_law, finding.formula)]
        for law in finding.subset:
            out.append(_weaken(law, finding.formula))
        for lit in finding.chi:
            out.append(AddDependence(finding.action, lit))
        return [c for c in out if c is not None]
    if isinstance(finding, InexecLawFinding):
        out = [AddInexecutability(finding.law)]
        for lit in finding.chi:
            out.append(AddDependence(finding.action, lit))
        for law in finding.subset:
            out.append(_weaken(law, Not(finding.law.pre)))
        return [c for c in out if c is not None]
    raise TypeError("not a finding: %r" % (finding,))


def _still_present(finding, theory, newcons_base):
    if isinstance(finding, StaticLawFinding):
        return any(f.formula == finding.formula
                   for f in implicit_static_laws(theory, finding.action,
                                                 newcons_base))
    return any(f.law.pre == finding.law.pre
               for f in implicit_inexec_laws(theory, finding.action))


def suggest_repairs(theory, finding, newcons_base="fixed"):
    """Candidate repairs for a finding that actually remove it.

    Every candidate is applied to the theory and the detection re-run;
    only the ones after which the finding no longer shows up are kept.
    The re-detections share one engine memo.
    """
    with engine.memo():
        return tuple(c for c in _candidates(finding)
                     if not _still_present(finding, c.apply(theory),
                                           newcons_base))

"""Full diagnosis of a theory and its text/JSON reports.

A diagnosis bundles the postulate verdicts, the implicit-law findings
with their effective repairs, and an independent confirmation of each
finding against the possible-worlds semantics.  Rendering is fully
deterministic: equal inputs give byte-identical reports.
"""

import json
from dataclasses import dataclass

from atmod import engine, kernels, semantics
from atmod.analysis import (StaticLawFinding, _Facts, check_postulates,
                            pdl_covers)
from atmod.formulas import FALSE, clause_formula
from atmod.repairs import suggest_repairs
from atmod.theory import BoxQuery, ClassicalQuery


@dataclass(frozen=True, slots=True)
class FindingReport:
    finding: object
    repairs: tuple
    confirmed: bool          # the semantic oracle agrees the law is implicit


@dataclass(frozen=True, slots=True)
class Diagnosis:
    theory: object
    verdicts: tuple
    findings: tuple          # of FindingReport

    @property
    def ok(self):
        return all(v.ok for v in self.verdicts)


def _confirm(facts, finding):
    """Semantic cross-check: the law holds in every intended model but
    is not already explicit.  Decided on the action's pruned model in
    the shared facts."""
    theory = facts.theory
    known = facts.of(finding.action)
    if isinstance(finding, StaticLawFinding):
        query = ClassicalQuery(finding.formula)
        explicit = engine.entails(theory.static_formulas(), finding.formula)
    else:
        query = BoxQuery(finding.action, finding.law.pre, FALSE)
        explicit = pdl_covers(theory.static_formulas(),
                              theory.inexecs_for(finding.action),
                              finding.law.pre)
    return semantics.pruned_entails(known.sub, known.model, query) \
        and not explicit


def diagnose(theory, postulates=None, newcons_base="fixed"):
    """Check the postulates and report each finding with its repairs.

    The whole verdict shares one engine memo, so the detections and the
    repair re-detections compile each formula and saturate each formula
    set once."""
    with engine.memo():
        facts = _Facts(theory, newcons_base)
        verdicts = check_postulates(theory, postulates, newcons_base, facts)
        seen = set()
        findings = []
        for verdict in verdicts:
            for finding in verdict.findings:
                key = (type(finding).__name__, finding.action, str(finding))
                if key in seen:
                    continue
                seen.add(key)
                findings.append(FindingReport(
                    finding,
                    suggest_repairs(theory, finding, newcons_base),
                    _confirm(facts, finding)))
    return Diagnosis(theory, verdicts, tuple(findings))


def _finding_kind(finding):
    return "static" if isinstance(finding, StaticLawFinding) \
        else "inexecutability"


def _witness(finding):
    out = {"laws": [str(law) for law in finding.subset],
           "consequence": str(clause_formula(finding.chi))}
    if isinstance(finding, StaticLawFinding):
        out["executability"] = str(finding.exec_law)
    return out


def render_text(diagnosis):
    theory = diagnosis.theory
    lines = ["theory %s: %d fluents, %d actions"
             % (theory.name, len(theory.fluents), len(theory.actions))]
    lines.append("")
    lines.append("postulates:")
    for v in diagnosis.verdicts:
        where = "(%s)" % v.action if v.action else "(all actions)"
        line = "  %-6s %-12s %s" % (v.postulate, where, v.status)
        if v.detail:
            line += "  [%s]" % v.detail
        lines.append(line)
    if diagnosis.findings:
        lines.append("")
        lines.append("implicit laws:")
        for report in diagnosis.findings:
            finding = report.finding
            if isinstance(finding, StaticLawFinding):
                head = "  static law %s (from action %s)" \
                    % (finding, finding.action)
            else:
                head = "  inexecutability law %s" % finding
            if not report.confirmed:
                head += "  [not confirmed semantically]"
            lines.append(head)
            for repair in report.repairs:
                lines.append("    - %s" % repair.describe())
    lines.append("")
    lines.append("result: %s" % ("ok" if diagnosis.ok else "not modular"))
    return "\n".join(lines) + "\n"


def render_json(diagnosis):
    theory = diagnosis.theory
    checked = len(diagnosis.findings)
    confirmed = sum(1 for r in diagnosis.findings if r.confirmed)
    doc = {
        "schema": "atmod/1",
        "theory": {
            "name": theory.name,
            "fluents": list(theory.fluents),
            "actions": list(theory.actions),
        },
        "verdicts": [
            {"postulate": v.postulate, "action": v.action,
             "status": v.status, "detail": v.detail}
            for v in diagnosis.verdicts
        ],
        "findings": [
            {"kind": _finding_kind(r.finding),
             "action": r.finding.action,
             "law": str(r.finding),
             "witness": _witness(r.finding),
             "repairs": [repair.describe() for repair in r.repairs],
             "confirmed": r.confirmed}
            for r in diagnosis.findings
        ],
        "oracle": {
            "backend": kernels.BACKEND,
            "checked": checked,
            "confirmed": confirmed,
        },
        "ok": diagnosis.ok,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

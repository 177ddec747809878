"""Known-answer checks for the benchmark's outputs.

Each check returns None when the output is right, or a one-line reason.

- line-check: the answer is derived by hand.  Under the default
  ``fixed`` base, line-N has exactly the N-1 implicit static laws
  ~(c0 & c_i); under ``grow`` it has all C(N, 2) pairwise exclusions.
- random-check: the exit code, the ``atmod/1`` schema and the
  confirmation of every finding; for the seed the digests were recorded
  with, also the byte-identical output.
- wide-model: the worlds and edges of the pruned model must equal those
  of ``reference_model``, a brute-force evaluation over all valuations
  and world pairs.
"""

import hashlib
import json
import os
from itertools import combinations

from atmod.formulas import And, Atom, Bot, Iff, Imp, Not, Or, Top, parse_formula

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "random_digests.json")

_STATUSES = {"pass", "fail", "blocked-by-PS"}
_DOC_KEYS = {"schema", "theory", "verdicts", "findings", "oracle", "ok"}
_FINDING_KEYS = {"kind", "action", "law", "witness", "repairs", "confirmed"}


def evaluate(formula, mask, index):
    """Truth of a parsed formula at a valuation bitmask."""
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bot):
        return False
    if isinstance(formula, Atom):
        return bool(mask >> index[formula.name] & 1)
    if isinstance(formula, Not):
        return not evaluate(formula.sub, mask, index)
    left = evaluate(formula.left, mask, index)
    right = evaluate(formula.right, mask, index)
    if isinstance(formula, And):
        return left and right
    if isinstance(formula, Or):
        return left or right
    if isinstance(formula, Imp):
        return not left or right
    if isinstance(formula, Iff):
        return left == right
    raise TypeError("not a formula: %r" % (formula,))


# -- shared checks on a check report --------------------------------------------

def _report(output, code, theory):
    """Parse a ``check --format json`` report and check what every report
    must satisfy; returns (doc, None) or (None, reason)."""
    try:
        doc = json.loads(output)
    except ValueError:
        return None, "output is not JSON (exit %s)" % code
    if set(doc) != _DOC_KEYS or doc["schema"] != "atmod/1":
        return None, "not an atmod/1 report"
    if doc["theory"] != {"name": theory.name, "fluents": theory.fluents,
                         "actions": theory.actions}:
        return None, "report names another theory"
    verdicts = doc["verdicts"]
    if not verdicts or any(v["status"] not in _STATUSES for v in verdicts):
        return None, "bad verdict list"
    if doc["ok"] != all(v["status"] == "pass" for v in verdicts):
        return None, "ok disagrees with the verdicts"
    if code != (0 if doc["ok"] else 1):
        return None, "exit code %s with ok=%s" % (code, doc["ok"])
    findings = doc["findings"]
    if any(set(f) != _FINDING_KEYS for f in findings):
        return None, "bad finding record"
    if not all(f["confirmed"] is True for f in findings):
        return None, "a finding is not confirmed by the oracle"
    if doc["oracle"]["checked"] != len(findings) \
            or doc["oracle"]["confirmed"] != len(findings):
        return None, "oracle counts disagree with the findings"
    return doc, None


# -- line-check ------------------------------------------------------------------

def expected_line_laws(theory, newcons_base="fixed"):
    """The implicit static laws of a line-N theory, as pairs of cells."""
    cells = theory.cells
    if newcons_base == "grow":
        return set(combinations(cells, 2))
    return {(cells[0], c) for c in cells[1:]}


def check_line(output, code, theory, newcons_base="fixed"):
    doc, problem = _report(output, code, theory)
    if problem:
        return problem
    if doc["ok"]:
        return "line theory reported modular"
    index = {f: i for i, f in enumerate(theory.fluents)}
    worlds = range(1 << len(theory.fluents))
    expected = expected_line_laws(theory, newcons_base)
    found = set()
    for f in doc["findings"]:
        if f["kind"] != "static":
            return "unexpected %s finding %s" % (f["kind"], f["law"])
        law = parse_formula(f["law"])
        match = [pair for pair in expected if all(
            evaluate(law, v, index)
            == (not (v >> index[pair[0]] & 1 and v >> index[pair[1]] & 1))
            for v in worlds)]
        if not match or match[0] in found:
            return "unexpected static law %s" % f["law"]
        found.add(match[0])
    if found != expected:
        return "found %d of %d implicit static laws" % (len(found),
                                                        len(expected))
    return None


# -- random-check ----------------------------------------------------------------

def digest(output, backend):
    """Digest of a report; the backend name is the only byte allowed to
    differ from a run with the pure-Python kernels."""
    if backend != "pykernels":
        output = output.replace('"backend": "%s"' % backend,
                                '"backend": "pykernels"')
    return hashlib.sha256(output.encode("utf-8")).hexdigest()[:32]


def load_digests():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def check_random(output, code, theory, expected_digest=None, backend=None):
    _, problem = _report(output, code, theory)
    if problem:
        return problem
    if expected_digest is not None \
            and digest(output, backend) != expected_digest:
        return "report differs from the recorded one"
    return None


# -- wide-model ------------------------------------------------------------------

def reference_model(theory):
    """Pruned model of a parsed theory by brute force.

    Returns (worlds, relation): the set of world masks (bit i is fluent i
    in declaration order) and, per action, the set of (source, target)
    pairs.  Every valuation is tested against the static laws and every
    pair of worlds against the dependence relation and the effect and
    inexecutability laws; worlds where an executability law applies but
    no successor survives are removed until none are.
    """
    index = {f: i for i, f in enumerate(theory.fluents)}
    worlds = [v for v in range(1 << len(theory.fluents))
              if all(evaluate(law.formula, v, index)
                     for law in theory.statics)]
    relation = {}
    for action in theory.actions:
        rise = fall = 0          # bits the action may make true / false
        for a, literal in theory.dependence:
            if a == action:
                if literal.negated:
                    fall |= 1 << index[literal.atom]
                else:
                    rise |= 1 << index[literal.atom]
        laws = [(law.pre, law.post) for law in theory.effects
                if law.action == action]
        laws += [(law.pre, Bot()) for law in theory.inexecs
                 if law.action == action]
        post_holds = [{w for w in worlds if evaluate(post, w, index)}
                      for _, post in laws]
        edges = set()
        for v in worlds:
            required = [post_holds[i] for i, (pre, _) in enumerate(laws)
                        if evaluate(pre, v, index)]
            for w in worlds:
                if w & ~v & ~rise or v & ~w & ~fall:
                    continue
                if all(w in holds for holds in required):
                    edges.add((v, w))
        relation[action] = edges
    succ = {a: {} for a in theory.actions}
    for action, edges in relation.items():
        for v, w in edges:
            succ[action].setdefault(v, set()).add(w)
    alive = set(worlds)
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            for law in theory.execs:
                if evaluate(law.pre, v, index) \
                        and not succ[law.action].get(v, set()) & alive:
                    alive.discard(v)
                    changed = True
                    break
    return alive, {a: {(v, w) for v, w in edges
                       if v in alive and w in alive}
                   for a, edges in relation.items()}


def model_from_json(output, fluents):
    """(worlds, relation) of an ``atmod model`` JSON document."""
    doc = json.loads(output)
    if doc["fluents"] != list(fluents):
        raise ValueError("model lists other fluents")
    masks = {}
    for world in doc["worlds"]:
        val = world["valuation"]
        masks[world["name"]] = sum(1 << i for i, f in enumerate(fluents)
                                   if val[f])
    relation = {a: {(masks[v], masks[w]) for v, w in edges}
                for a, edges in doc["relation"].items()}
    return set(masks.values()), relation


def check_model(output, code, parsed):
    """Compare ``atmod model`` output with the brute-force reference of
    the parsed theory."""
    if code != 0:
        return "exit code %s" % code
    try:
        worlds, relation = model_from_json(output, parsed.fluents)
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable model: %s" % exc
    ref_worlds, ref_relation = reference_model(parsed)
    if worlds != ref_worlds:
        return "worlds differ from the reference (%d vs %d)" % (
            len(worlds), len(ref_worlds))
    if relation != ref_relation:
        return "edges differ from the reference"
    return None

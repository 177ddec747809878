"""Seeded theory generators for the three benchmark workloads.

The generators build theory files as text from their own small formula
representation and never call into atmod, so the inputs of a workload
depend only on the seed: a change to the program or to its tests cannot
shift them.  In every workload the seed only renames the fluents and
actions and shuffles declaration and law order; the shape of input k
(the line-N theory, or the k-th random or wide theory) is the same for
every seed.  So runs with different seeds time the same mix of work,
and no two inputs share formula text.

A formula is a tuple: ("true",), ("atom", name), ("not", f) or
(op, left, right) with op one of "and", "or", "imp", "iff".
"""

import random
import string
from itertools import count, product

TRUE = ("true",)

# Distinct theory shapes per workload.  Every seed cycles through the same
# shapes, so each pass over them times the same mix of work.
RANDOM_SHAPES = 150
WIDE_SHAPES = 30

_OPS = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def atom(name):
    return ("atom", name)


def lit(name, negated=False):
    return ("not", atom(name)) if negated else atom(name)


def conj(parts):
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def render(f, top=True):
    """Formula text, fully parenthesised below the top level."""
    kind = f[0]
    if kind == "true":
        return "true"
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1], top=False)
    text = "%s %s %s" % (render(f[1], False), _OPS[kind], render(f[2], False))
    return text if top else "(" + text + ")"


def holds(f, val):
    """Truth of a formula under a valuation dict."""
    kind = f[0]
    if kind == "true":
        return True
    if kind == "atom":
        return val[f[1]]
    if kind == "not":
        return not holds(f[1], val)
    a, b = holds(f[1], val), holds(f[2], val)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    if kind == "imp":
        return not a or b
    return a == b


def satisfiable(f, fluents):
    """Truth-table satisfiability over the given fluents."""
    return any(holds(f, dict(zip(fluents, bits)))
               for bits in product((False, True), repeat=len(fluents)))


class Theory:
    """A generated theory; ``text`` is what the program reads."""

    def __init__(self, name, fluents, actions, statics, laws, cells=None):
        self.name = name
        self.fluents = list(fluents)
        self.actions = list(actions)
        self.statics = list(statics)
        # action -> {"causes": [(fluent, negated)], "effects": [(pre, post)],
        #            "execs": [pre], "inexecs": [pre]}
        self.laws = laws
        self.cells = cells   # line-N only: the cell fluents c0..c{n-1}

    @property
    def text(self):
        out = ["theory %s {" % self.name,
               "  fluents %s;" % " ".join(self.fluents),
               "  actions %s;" % " ".join(self.actions)]
        if self.statics:
            out.append("  static {")
            out += ["    %s;" % render(f) for f in self.statics]
            out.append("  }")
        for action in self.actions:
            block = self.laws[action]
            out.append("  action %s {" % action)
            if block["causes"]:
                out.append("    causes %s;" % ", ".join(
                    ("~" if neg else "") + f for f, neg in block["causes"]))
            for pre, post in block["effects"]:
                if pre == TRUE:
                    out.append("    effect %s;" % render(post))
                else:
                    out.append("    effect %s => %s;"
                               % (render(pre), render(post)))
            out += ["    executable %s;" % render(f) for f in block["execs"]]
            out += ["    inexecutable %s;" % render(f)
                    for f in block["inexecs"]]
            out.append("  }")
        out.append("}")
        return "\n".join(out) + "\n"


def _block(causes=(), effects=(), execs=(), inexecs=()):
    return {"causes": list(causes), "effects": list(effects),
            "execs": list(execs), "inexecs": list(inexecs)}


# -- line-N ------------------------------------------------------------------

def line_theory(n, names=None, rng=None):
    """The line-N theory: cells c0..c{n-1} plus underflow, two moves.

    ``names`` maps the canonical names (c0.., underflow, goLeft, goRight,
    and "theory") to the names to use; ``rng`` shuffles declaration and
    law order.  Both default to the canonical theory.
    """
    names = names or {}
    cells = [names.get("c%d" % i, "c%d" % i) for i in range(n)]
    under = names.get("underflow", "underflow")
    left = names.get("goLeft", "goLeft")
    right = names.get("goRight", "goRight")
    both = [(c, neg) for c in cells for neg in (False, True)]
    laws = {
        left: _block(
            causes=both + [(under, False)],
            effects=[(atom(cells[0]), atom(under))]
            + [(atom(cells[i]), atom(cells[i - 1])) for i in range(1, n)],
            execs=[TRUE]),
        right: _block(
            causes=list(both),
            effects=[(atom(cells[i]), atom(cells[i + 1]))
                     for i in range(n - 1)],
            execs=[lit(cells[-1], True)]),
    }
    statics = [("imp", atom(under), lit(c, True)) for c in cells]
    fluents = cells + [under]
    actions = [left, right]
    if rng is not None:
        for seq in (fluents, actions, statics):
            rng.shuffle(seq)
        for block in laws.values():
            rng.shuffle(block["causes"])
            rng.shuffle(block["effects"])
    return Theory(names.get("theory", "line%d" % n), fluents, actions,
                  statics, laws, cells)


def _fresh_names(rng, number, used, prefix):
    out = []
    while len(out) < number:
        name = prefix + "".join(rng.choice(string.ascii_lowercase)
                                for _ in range(5))
        if name not in used:
            used.add(name)
            out.append(name)
    return out


def rename(f, names):
    """A formula with its atoms renamed by ``names``."""
    kind = f[0]
    if kind == "true":
        return f
    if kind == "atom":
        return atom(names[f[1]])
    if kind == "not":
        return ("not", rename(f[1], names))
    return (kind, rename(f[1], names), rename(f[2], names))


def variant(theory, rng, used, name):
    """``theory`` with fresh fluent and action names drawn from ``rng``
    (none in ``used``) and shuffled declaration and law order."""
    names = dict(zip(theory.fluents, _fresh_names(
        rng, len(theory.fluents), used, theory.fluents[0][0])))
    names.update(zip(theory.actions, _fresh_names(
        rng, len(theory.actions), used, theory.actions[0][0])))
    fluents = [names[f] for f in theory.fluents]
    actions = [names[a] for a in theory.actions]
    statics = [rename(f, names) for f in theory.statics]
    laws = {}
    for action, block in theory.laws.items():
        laws[names[action]] = _block(
            causes=[(names[f], neg) for f, neg in block["causes"]],
            effects=[(rename(pre, names), rename(post, names))
                     for pre, post in block["effects"]],
            execs=[rename(f, names) for f in block["execs"]],
            inexecs=[rename(f, names) for f in block["inexecs"]])
    for seq in (fluents, actions, statics):
        rng.shuffle(seq)
    for block in laws.values():
        for seq in block.values():
            rng.shuffle(seq)
    return Theory(name, fluents, actions, statics, laws)


def line_stream(seed, repeat=1, n=6):
    """Endless renamed and shuffled line-N variants; no two share a name.
    Every input has the one line-N shape, so ``repeat`` changes nothing."""
    rng = random.Random("line-check:%s" % seed)
    used = set()
    for k in count():
        canon = ["c%d" % i for i in range(n)] + ["underflow"]
        fresh = _fresh_names(rng, n + 1, used, "f")
        names = dict(zip(canon, fresh))
        names["goLeft"], names["goRight"] = _fresh_names(rng, 2, used, "a")
        names["theory"] = "line%d_%d" % (n, k)
        yield line_theory(n, names, rng)


# -- random small theories -----------------------------------------------------

def random_formula(rng, fluents, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return atom(rng.choice(fluents))
    kind = rng.randrange(5)
    if kind == 0:
        return ("not", random_formula(rng, fluents, depth - 1))
    return (("and", "or", "imp", "iff")[kind - 1],
            random_formula(rng, fluents, depth - 1),
            random_formula(rng, fluents, depth - 1))


def _consistent_formula(rng, fluents):
    while True:
        f = random_formula(rng, fluents)
        if satisfiable(f, fluents):
            return f


def random_theory(rng, name, max_fluents=4, max_actions=3, max_laws=3):
    """A small theory whose every law is individually consistent."""
    fluents = ["p%d" % i for i in range(1, rng.randint(1, max_fluents) + 1)]
    actions = ["a%d" % i for i in range(1, rng.randint(1, max_actions) + 1)]
    statics = [_consistent_formula(rng, fluents)
               for _ in range(rng.randint(0, max_laws))]
    laws = {}
    for action in actions:
        block = _block()
        for _ in range(rng.randint(0, max_laws)):
            chosen = rng.sample(fluents, rng.randint(1, len(fluents)))
            post = conj(lit(f, rng.random() < 0.5) for f in chosen)
            block["effects"].append((_consistent_formula(rng, fluents), post))
        if rng.random() < 0.7:
            block["execs"].append(_consistent_formula(rng, fluents))
        if rng.random() < 0.4:
            block["inexecs"].append(_consistent_formula(rng, fluents))
        block["causes"] = [(f, neg) for f in fluents for neg in (False, True)
                           if rng.random() < 0.5]
        laws[action] = block
    return Theory(name, fluents, actions, statics, laws)


def random_shapes(number=RANDOM_SHAPES):
    """The distinct random theories every seed cycles through."""
    shapes, seen = [], set()
    for k in range(number):
        rng = random.Random("random-check:%d" % k)
        while True:
            shape = random_theory(rng, "random")
            if shape.text not in seen:
                break
        seen.add(shape.text)
        shapes.append(shape)
    return shapes


def _cycle(workload, shapes, seed, repeat):
    """Endless variants of ``shapes`` in turn, each shape ``repeat`` times
    in a row, each input with fresh names; the names and law order of
    input k depend on (seed, k)."""
    used = set()
    for k in count():
        rng = random.Random("%s:%s:%d" % (workload, seed, k))
        yield variant(shapes[k // repeat % len(shapes)], rng, used,
                      "%s%d" % (workload.split("-")[0], k))


def random_stream(seed, repeat=1):
    """Endless random theories: the random shapes in turn, renamed."""
    return _cycle("random-check", random_shapes(), seed, repeat)


# -- wide models ----------------------------------------------------------------

def wide_theory(rng, name, n_fluents=9, n_actions=2, max_causes=3):
    """Many fluents, narrow dependence and one binary static clause."""
    fluents = ["w%d" % i for i in range(n_fluents)]
    actions = ["b%d" % i for i in range(n_actions)]
    x, y = rng.sample(fluents, 2)
    statics = [("or", lit(x, rng.random() < 0.5), lit(y, rng.random() < 0.5))]
    laws = {}
    for action in actions:
        causes = [(f, rng.random() < 0.5)
                  for f in rng.sample(fluents, rng.randint(1, max_causes))]
        block = _block(causes=causes)
        for _ in range(rng.randint(1, 2)):
            post = conj(lit(f, neg) for f, neg in
                        rng.sample(causes, rng.randint(1, len(causes))))
            pre = conj(lit(f, rng.random() < 0.5)
                       for f in rng.sample(fluents, rng.randint(1, 2)))
            block["effects"].append((pre, post))
        block["execs"].append(
            TRUE if rng.random() < 0.3 else lit(rng.choice(fluents),
                                                rng.random() < 0.5))
        laws[action] = block
    return Theory(name, fluents, actions, statics, laws)


def wide_stream(seed, repeat=1):
    """Endless wide-model theories: the wide shapes in turn, renamed."""
    shapes = [wide_theory(random.Random("wide-model:%d" % k), "wide")
              for k in range(WIDE_SHAPES)]
    return _cycle("wide-model", shapes, seed, repeat)


STREAMS = {"line-check": line_stream, "random-check": random_stream,
           "wide-model": wide_stream}

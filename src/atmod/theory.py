"""Action theories: laws, dependence relation, file format and queries.

The file format::

    theory turkey {
      fluents walking alive;
      actions tease;
      static { walking -> alive; }
      action tease {
        causes walking;              # dependence: tease may make walking true
        effect walking;              # shorthand for  effect true => walking
        effect loaded => ~alive;
        executable true;
        inexecutable ~alive;
      }
    }

Lines starting with '#' are comments.  A ``causes`` list enumerates the
literals the action may change (its dependence relation); every other
literal is frame-protected for that action.
"""

from dataclasses import dataclass, replace

from atmod import engine
from atmod.errors import ParseError, TheoryError, nesting_error
from atmod.formulas import (FALSE, TRUE, Formula, Literal, Not, Top,
                            atoms_of, format_formula, parse_formula_stream,
                            tokenize, TokenStream)


@dataclass(frozen=True, slots=True)
class StaticLaw:
    formula: Formula

    def __str__(self):
        return format_formula(self.formula)


@dataclass(frozen=True, slots=True)
class EffectLaw:
    action: str
    pre: Formula
    post: Formula

    def __str__(self):
        if isinstance(self.pre, Top):
            return "[%s]%s" % (self.action, format_formula(self.post))
        return "%s -> [%s]%s" % (format_formula(self.pre), self.action,
                                 format_formula(self.post))


@dataclass(frozen=True, slots=True)
class ExecutabilityLaw:
    action: str
    pre: Formula

    def __str__(self):
        if isinstance(self.pre, Top):
            return "<%s>true" % self.action
        return "%s -> <%s>true" % (format_formula(self.pre), self.action)


@dataclass(frozen=True, slots=True)
class InexecutabilityLaw:
    action: str
    pre: Formula

    def __str__(self):
        if isinstance(self.pre, Top):
            return "[%s]false" % self.action
        return "%s -> [%s]false" % (format_formula(self.pre), self.action)


@dataclass(frozen=True, slots=True)
class ActionTheory:
    name: str
    fluents: tuple
    actions: tuple
    statics: tuple
    effects: tuple
    execs: tuple
    inexecs: tuple
    dependence: frozenset  # of (action, Literal) pairs

    # -- law access ---------------------------------------------------------

    def static_formulas(self):
        return [law.formula for law in self.statics]

    def effects_for(self, action):
        return tuple(law for law in self.effects if law.action == action)

    def execs_for(self, action):
        return tuple(law for law in self.execs if law.action == action)

    def inexecs_for(self, action):
        return tuple(law for law in self.inexecs if law.action == action)

    def consq(self, action):
        """Direct consequences of an action: effect laws plus
        inexecutability laws read as effects with consequent false."""
        out = [(law.pre, law.post) for law in self.effects_for(action)]
        out += [(law.pre, FALSE) for law in self.inexecs_for(action)]
        return tuple(out)

    def may_change(self, action, literal):
        return (action, literal) in self.dependence

    # -- derived theories ---------------------------------------------------

    def for_action(self, action):
        """Restriction of the theory to a single action."""
        if action not in self.actions:
            raise TheoryError("unknown action %r" % action)
        return replace(
            self, actions=(action,),
            effects=self.effects_for(action),
            execs=self.execs_for(action),
            inexecs=self.inexecs_for(action),
            dependence=frozenset(d for d in self.dependence
                                 if d[0] == action))

    def with_total_dependence(self):
        total = frozenset((a, Literal(p, s)) for a in self.actions
                          for p in self.fluents for s in (False, True))
        return replace(self, dependence=total)


# -- queries ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ClassicalQuery:
    formula: Formula

    def __str__(self):
        return format_formula(self.formula)


@dataclass(frozen=True, slots=True)
class BoxQuery:
    action: str
    pre: Formula
    post: Formula

    def __str__(self):
        return "%s => [%s] %s" % (format_formula(self.pre), self.action,
                                  format_formula(self.post))


@dataclass(frozen=True, slots=True)
class DiamondQuery:
    action: str
    pre: Formula

    def __str__(self):
        return "%s => <%s> true" % (format_formula(self.pre), self.action)


def parse_query(text, theory=None):
    """Parse ``PHI``, ``PHI => [a] PSI`` or ``PHI => <a> true``."""
    ts = TokenStream(tokenize(text))
    pre = parse_formula_stream(ts)
    if ts.at_end():
        query = ClassicalQuery(pre)
    elif ts.accept("=>"):
        if ts.accept("["):
            action = ts.ident("action name")
            ts.expect("]")
            query = BoxQuery(action, pre, parse_formula_stream(ts))
        elif ts.accept("<"):
            action = ts.ident("action name")
            ts.expect(">")
            tok = ts.expect("true")
            query = DiamondQuery(action, pre)
        else:
            tok = ts.peek()
            raise ParseError("expected '[' or '<' after '=>'",
                             tok.line, tok.col)
        if not ts.at_end():
            tok = ts.peek()
            raise ParseError("unexpected %r after query" % tok.text,
                             tok.line, tok.col)
    else:
        tok = ts.peek()
        raise ParseError("unexpected %r after formula" % tok.text,
                         tok.line, tok.col)
    if theory is not None:
        _check_query(query, theory)
    return query


def _check_query(query, theory):
    if not isinstance(query, ClassicalQuery):
        if query.action not in theory.actions:
            raise TheoryError("unknown action %r in query" % query.action)
    formulas = [query.formula] if isinstance(query, ClassicalQuery) \
        else [query.pre] + ([query.post] if isinstance(query, BoxQuery)
                            else [])
    for f in formulas:
        unknown = atoms_of(f) - set(theory.fluents)
        if unknown:
            raise TheoryError("unknown fluent %r in query"
                              % sorted(unknown)[0])


# -- theory file parser -----------------------------------------------------

def parse_theory(text):
    try:
        return _parse_theory(text)
    except RecursionError:
        raise nesting_error() from None


def _parse_theory(text):
    ts = TokenStream(tokenize(text))
    tok = ts.peek()
    if ts.ident("keyword 'theory'") != "theory":
        raise ParseError("expected 'theory'", tok.line, tok.col)
    name = ts.ident("theory name")
    ts.expect("{")

    fluents = []
    actions = []
    statics = []
    effects = []
    execs = []
    inexecs = []
    dependence = set()

    def declared_formula(f, where):
        unknown = atoms_of(f) - set(fluents)
        if unknown:
            raise TheoryError("undeclared fluent %r in %s"
                              % (sorted(unknown)[0], where))
        return f

    while not ts.accept("}"):
        tok = ts.peek()
        word = ts.ident("declaration")
        if word == "fluents":
            while not ts.accept(";"):
                fluent = ts.ident("fluent name")
                if fluent in fluents:
                    raise TheoryError("fluent %r declared twice" % fluent)
                fluents.append(fluent)
        elif word == "actions":
            while not ts.accept(";"):
                action = ts.ident("action name")
                if action in actions:
                    raise TheoryError("action %r declared twice" % action)
                actions.append(action)
        elif word == "static":
            ts.expect("{")
            while not ts.accept("}"):
                f = parse_formula_stream(ts)
                ts.expect(";")
                statics.append(StaticLaw(declared_formula(f, "static law")))
        elif word == "action":
            action = ts.ident("action name")
            if action not in actions:
                raise TheoryError("undeclared action %r" % action)
            ts.expect("{")
            while not ts.accept("}"):
                stmt = ts.ident("statement")
                if stmt == "causes":
                    while True:
                        negated = ts.accept("~")
                        fluent = ts.ident("fluent name")
                        if fluent not in fluents:
                            raise TheoryError("undeclared fluent %r in causes"
                                              % fluent)
                        dependence.add((action, Literal(fluent, negated)))
                        if not ts.accept(","):
                            break
                    ts.expect(";")
                elif stmt == "effect":
                    f = parse_formula_stream(ts)
                    if ts.accept("=>"):
                        post = parse_formula_stream(ts)
                        pre = f
                    else:
                        pre, post = TRUE, f
                    ts.expect(";")
                    effects.append(EffectLaw(
                        action, declared_formula(pre, "effect law"),
                        declared_formula(post, "effect law")))
                elif stmt == "executable":
                    f = parse_formula_stream(ts)
                    ts.expect(";")
                    execs.append(ExecutabilityLaw(
                        action, declared_formula(f, "executability law")))
                elif stmt == "inexecutable":
                    f = parse_formula_stream(ts)
                    ts.expect(";")
                    inexecs.append(InexecutabilityLaw(
                        action, declared_formula(f, "inexecutability law")))
                else:
                    raise ParseError("unknown statement %r in action block"
                                     % stmt, tok.line, tok.col)
        else:
            raise ParseError("unknown declaration %r" % word,
                             tok.line, tok.col)
    if not ts.at_end():
        tok = ts.peek()
        raise ParseError("unexpected %r after theory" % tok.text,
                         tok.line, tok.col)
    return ActionTheory(name=name, fluents=tuple(fluents),
                        actions=tuple(actions), statics=tuple(statics),
                        effects=tuple(effects), execs=tuple(execs),
                        inexecs=tuple(inexecs),
                        dependence=frozenset(dependence))


def load_theory(path):
    with open(path, encoding="utf-8") as handle:
        return parse_theory(handle.read())


def format_theory(theory):
    """Render a theory in the file format; parses back to an equal theory."""
    lines = ["theory %s {" % theory.name]
    if theory.fluents:
        lines.append("  fluents %s;" % " ".join(theory.fluents))
    if theory.actions:
        lines.append("  actions %s;" % " ".join(theory.actions))
    if theory.statics:
        lines.append("  static {")
        for law in theory.statics:
            lines.append("    %s;" % format_formula(law.formula))
        lines.append("  }")
    for action in theory.actions:
        causes = sorted(lit for a, lit in theory.dependence if a == action)
        effects = theory.effects_for(action)
        execs = theory.execs_for(action)
        inexecs = theory.inexecs_for(action)
        if not (causes or effects or execs or inexecs):
            continue
        lines.append("  action %s {" % action)
        if causes:
            lines.append("    causes %s;" % ", ".join(str(l) for l in causes))
        for law in effects:
            if isinstance(law.pre, Top):
                lines.append("    effect %s;" % format_formula(law.post))
            else:
                lines.append("    effect %s => %s;"
                             % (format_formula(law.pre),
                                format_formula(law.post)))
        for law in execs:
            lines.append("    executable %s;" % format_formula(law.pre))
        for law in inexecs:
            lines.append("    inexecutable %s;" % format_formula(law.pre))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- well-formedness --------------------------------------------------------

def validate(theory):
    """Check the consistency conditions on individual laws.

    Returns a list of human-readable problem descriptions; an empty list
    means every law is well formed.  (Joint consistency of the whole
    theory is a postulate, not a well-formedness condition.)
    """
    try:
        return _problems(theory)
    except RecursionError:
        raise nesting_error() from None


def _problems(theory):
    problems = []
    for law in theory.statics:
        if not engine.satisfiable([law.formula]):
            problems.append("static law %s is inconsistent" % law)
    for law in theory.effects:
        if not engine.satisfiable([law.pre]):
            problems.append("effect law %s has an inconsistent condition"
                            % law)
        if not engine.satisfiable([law.post]):
            problems.append("effect law %s has an inconsistent effect" % law)
    for law in theory.execs:
        if not engine.satisfiable([law.pre]):
            problems.append("executability law %s has an inconsistent "
                            "condition" % law)
    for law in theory.inexecs:
        if not engine.satisfiable([law.pre]):
            problems.append("inexecutability law %s has an inconsistent "
                            "condition" % law)
    return problems

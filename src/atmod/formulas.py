"""Propositional formulas: syntax tree, parser, pretty-printer and CNF.

Connectives, by decreasing precedence: ~  &  |  ->  <->
Implication and equivalence associate to the right, & and | to the left.
"""

from dataclasses import dataclass
from typing import NamedTuple

from atmod.errors import ParseError, ResourceLimitError

# Most clauses one distribution step of cnf_clauses may build.
MAX_CNF_CLAUSES = 100_000


class Formula:
    """Base class of the formula syntax tree."""

    __slots__ = ()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


TRUE = Top()
FALSE = Bot()


class Literal(NamedTuple):
    atom: str
    negated: bool

    def negate(self):
        return Literal(self.atom, not self.negated)

    def formula(self):
        base = Atom(self.atom)
        return Not(base) if self.negated else base

    def __str__(self):
        return ("~" if self.negated else "") + self.atom


# A clause is a sorted tuple of literals; the empty clause is falsum.
Clause = tuple


def atoms_of(formula):
    """Set of atom names occurring in a formula."""
    out = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            out.add(f.name)
        elif isinstance(f, Not):
            stack.append(f.sub)
        elif isinstance(f, (And, Or, Imp, Iff)):
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(out)


def conj(parts):
    """Conjunction of a sequence of formulas; empty sequence gives true."""
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts):
    """Disjunction of a sequence of formulas; empty sequence gives false."""
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def clause_formula(clause):
    return disj(lit.formula() for lit in clause)


def negated_clause_formula(clause):
    """The negation of a clause as a conjunction of literals (empty: true)."""
    return conj(lit.negate().formula() for lit in clause)


def flatten_and(formula):
    """Conjuncts of a formula, flattening nested & nodes."""
    out = []
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.append(f.right)
            stack.append(f.left)
        else:
            out.append(f)
    return out


def simplify(formula):
    """Light structural simplification: constants, ~~x, duplicate conjuncts."""
    if isinstance(formula, Not):
        s = simplify(formula.sub)
        if s == TRUE:
            return FALSE
        if s == FALSE:
            return TRUE
        if isinstance(s, Not):
            return s.sub
        return Not(s)
    if isinstance(formula, And):
        parts = []
        for p in flatten_and(formula):
            p = simplify(p)
            if p == FALSE:
                return FALSE
            if p != TRUE and p not in parts:
                parts.append(p)
        return conj(parts)
    if isinstance(formula, Or):
        left = simplify(formula.left)
        right = simplify(formula.right)
        if TRUE in (left, right):
            return TRUE
        if left == FALSE:
            return right
        if right == FALSE:
            return left
        return Or(left, right)
    if isinstance(formula, Imp):
        left = simplify(formula.left)
        right = simplify(formula.right)
        if left == TRUE:
            return right
        if left == FALSE or right == TRUE:
            return TRUE
        if right == FALSE:
            return simplify(Not(left))
        return Imp(left, right)
    if isinstance(formula, Iff):
        left = simplify(formula.left)
        right = simplify(formula.right)
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        if left == FALSE:
            return simplify(Not(right))
        if right == FALSE:
            return simplify(Not(left))
        return Iff(left, right)
    return formula


# ---------------------------------------------------------------------------
# Tokenizer, shared by the formula, query and theory parsers.
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    text: str
    line: int
    col: int


_SYMBOLS = ("<->", "->", "=>", "(", ")", "~", "&", "|",
            "{", "}", ";", ",", "[", "]", "<", ">")


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError("unexpected character %r" % c, line, col)
    return tokens


class TokenStream:
    def __init__(self, tokens, end_line=1, end_col=1):
        self.tokens = tokens
        self.pos = 0
        if tokens:
            last = tokens[-1]
            end_line, end_col = last.line, last.col + len(last.text)
        self.end = Token("", end_line, end_col)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.end

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def at_end(self):
        return self.pos >= len(self.tokens)

    def accept(self, text):
        if self.peek().text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            what = repr(tok.text) if tok.text else "end of input"
            raise ParseError("expected %r, found %s" % (text, what),
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def ident(self, what="identifier"):
        tok = self.peek()
        if not tok.text or not (tok.text[0].isalpha() or tok.text[0] == "_"):
            raise ParseError("expected %s" % what, tok.line, tok.col)
        self.pos += 1
        return tok.text


_RESERVED = {"true", "false"}


def parse_formula_stream(ts):
    return _parse_iff(ts)


def _parse_iff(ts):
    left = _parse_imp(ts)
    if ts.accept("<->"):
        return Iff(left, _parse_iff(ts))
    return left


def _parse_imp(ts):
    left = _parse_or(ts)
    if ts.accept("->"):
        return Imp(left, _parse_imp(ts))
    return left


def _parse_or(ts):
    left = _parse_and(ts)
    while ts.accept("|"):
        left = Or(left, _parse_and(ts))
    return left


def _parse_and(ts):
    left = _parse_unary(ts)
    while ts.accept("&"):
        left = And(left, _parse_unary(ts))
    return left


def _parse_unary(ts):
    tok = ts.peek()
    if ts.accept("~"):
        return Not(_parse_unary(ts))
    if ts.accept("("):
        inner = _parse_iff(ts)
        ts.expect(")")
        return inner
    if tok.text == "true":
        ts.next()
        return TRUE
    if tok.text == "false":
        ts.next()
        return FALSE
    if tok.text and (tok.text[0].isalpha() or tok.text[0] == "_"):
        ts.next()
        return Atom(tok.text)
    what = repr(tok.text) if tok.text else "end of input"
    raise ParseError("expected a formula, found %s" % what, tok.line, tok.col)


def parse_formula(text):
    """Parse a propositional formula from a string."""
    ts = TokenStream(tokenize(text))
    f = parse_formula_stream(ts)
    if not ts.at_end():
        tok = ts.peek()
        raise ParseError("unexpected %r after formula" % tok.text,
                         tok.line, tok.col)
    return f


# Precedence levels used by the printer; higher binds tighter.
_LEVEL = {Iff: 1, Imp: 2, Or: 3, And: 4, Not: 5}


def format_formula(formula):
    """Render a formula with minimal parentheses; parse(format(f)) == f."""
    def go(f, level):
        if isinstance(f, Top):
            return "true"
        if isinstance(f, Bot):
            return "false"
        if isinstance(f, Atom):
            return f.name
        if isinstance(f, Not):
            return "~" + go(f.sub, 5)
        own = _LEVEL[type(f)]
        if isinstance(f, (Iff, Imp)):
            op = "<->" if isinstance(f, Iff) else "->"
            s = "%s %s %s" % (go(f.left, own + 1), op, go(f.right, own))
        else:
            op = "|" if isinstance(f, Or) else "&"
            s = "%s %s %s" % (go(f.left, own), op, go(f.right, own + 1))
        return s if own >= level else "(" + s + ")"

    return go(formula, 0)


# ---------------------------------------------------------------------------
# Conversion to clausal form.
# ---------------------------------------------------------------------------

def _nnf(f, negated):
    if isinstance(f, Top):
        return FALSE if negated else TRUE
    if isinstance(f, Bot):
        return TRUE if negated else FALSE
    if isinstance(f, Atom):
        return Not(f) if negated else f
    if isinstance(f, Not):
        return _nnf(f.sub, not negated)
    if isinstance(f, And):
        a, b = _nnf(f.left, negated), _nnf(f.right, negated)
        return Or(a, b) if negated else And(a, b)
    if isinstance(f, Or):
        a, b = _nnf(f.left, negated), _nnf(f.right, negated)
        return And(a, b) if negated else Or(a, b)
    if isinstance(f, Imp):
        return _nnf(Or(Not(f.left), f.right), negated)
    if isinstance(f, Iff):
        return _nnf(And(Imp(f.left, f.right), Imp(f.right, f.left)), negated)
    raise TypeError("not a formula: %r" % (f,))


def canonical_clause(literals):
    return tuple(sorted(set(literals)))


def sort_clauses(clauses):
    return tuple(sorted(set(clauses), key=lambda c: (len(c), c)))


def cnf_clauses(formula):
    """Clausal form by distribution; tautologous clauses are dropped.

    Raises ResourceLimitError when one distribution step would build more
    than MAX_CNF_CLAUSES clauses."""
    def go(f):
        if isinstance(f, Top):
            return set()
        if isinstance(f, Bot):
            return {frozenset()}
        if isinstance(f, Atom):
            return {frozenset([Literal(f.name, False)])}
        if isinstance(f, Not):  # NNF: negation sits on an atom
            return {frozenset([Literal(f.sub.name, True)])}
        if isinstance(f, And):
            return go(f.left) | go(f.right)
        left, right = go(f.left), go(f.right)
        if not left or not right:  # one side is valid
            return set()
        if len(left) * len(right) > MAX_CNF_CLAUSES:
            raise ResourceLimitError(
                "clausal form would build %d clauses in one distribution "
                "step, limit is %d" % (len(left) * len(right),
                                       MAX_CNF_CLAUSES))
        merged = set()
        for c1 in left:
            for c2 in right:
                merged.add(c1 | c2)
        return merged

    out = set()
    for c in go(_nnf(formula, False)):
        if not any(lit.negate() in c for lit in c):
            out.add(canonical_clause(c))
    return sort_clauses(out)


"""Exceptions shared across the package."""

import sys


class AtmodError(Exception):
    """Base class for all errors raised by atmod."""


class ParseError(AtmodError):
    """Syntax error in a formula, query or theory file."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


class TheoryError(AtmodError):
    """Semantic problem in a theory file (undeclared names and the like)."""


class ResourceLimitError(AtmodError):
    """A computation would exceed the configured size guards."""


def nesting_error():
    """The error for a formula nested deeper than the recursive parser
    and CNF conversion can follow."""
    return ResourceLimitError(
        "formula nested too deeply (Python recursion limit is %d)"
        % sys.getrecursionlimit())

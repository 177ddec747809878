"""Modularity analysis of logic-based action theories.

An action theory pairs static, effect, executability and
inexecutability laws with a dependence relation saying which literals
each action may cause.  This package detects the implicit static and
inexecutability laws such a theory hides, decides the associated
modularity postulates against a possible-worlds semantics, and proposes
repairs.  See the ``atmod`` command line tool for the common entry
points.
"""

__version__ = "0.1.0"

from atmod.analysis import (POSTULATES, InexecLawFinding, StaticLawFinding,
                            Verdict, check_postulate, check_postulates,
                            implicit_inexec_laws, implicit_static_laws,
                            pdl_covers)
from atmod.errors import (AtmodError, ParseError, ResourceLimitError,
                          TheoryError)
from atmod.formulas import (FALSE, TRUE, And, Atom, Bot, Formula, Iff, Imp,
                            Literal, Not, Or, Top, format_formula,
                            parse_formula)
from atmod.report import Diagnosis, diagnose, render_json, render_text
from atmod.repairs import suggest_repairs
from atmod.semantics import (KripkeModel, big_model, entails_dep,
                             entails_pdl, enumerate_countermodel,
                             model_to_dot, model_to_json, prune_fixpoint)
from atmod.theory import (ActionTheory, BoxQuery, ClassicalQuery,
                          DiamondQuery, EffectLaw, ExecutabilityLaw,
                          InexecutabilityLaw, StaticLaw, format_theory,
                          load_theory, parse_query, parse_theory, validate)

__all__ = [
    "POSTULATES", "ActionTheory", "And", "Atom", "AtmodError", "Bot",
    "BoxQuery", "ClassicalQuery", "Diagnosis", "DiamondQuery", "EffectLaw",
    "ExecutabilityLaw", "FALSE", "Formula", "Iff", "Imp",
    "InexecLawFinding", "InexecutabilityLaw", "KripkeModel", "Literal",
    "Not", "Or", "ParseError", "ResourceLimitError", "StaticLaw",
    "StaticLawFinding", "TheoryError", "Top", "TRUE", "Verdict",
    "big_model", "check_postulate", "check_postulates", "diagnose",
    "entails_dep", "entails_pdl", "enumerate_countermodel",
    "format_formula", "format_theory", "implicit_inexec_laws",
    "implicit_static_laws", "load_theory", "model_to_dot", "model_to_json",
    "parse_formula", "parse_query", "parse_theory", "pdl_covers",
    "prune_fixpoint", "render_json", "render_text",
    "suggest_repairs", "validate",
]

"""Command line interface.

Exit codes: 0 success, 1 violations or non-entailment found, 2 parse or
theory error, 3 a resource guard was hit or a formula nests deeper than
the recursive parser and CNF conversion can follow.
"""

import argparse
import json
import os
import sys

from atmod import analysis, report, semantics
from atmod.errors import AtmodError, ResourceLimitError
from atmod.formulas import FALSE
from atmod.repairs import suggest_repairs
from atmod.theory import (BoxQuery, ClassicalQuery, DiamondQuery,
                          format_theory, load_theory, parse_query, validate)


def _parser():
    parser = argparse.ArgumentParser(
        prog="atmod",
        description="Modularity analysis of logic-based action theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check the modularity postulates")
    p.add_argument("file")
    p.add_argument("--postulates",
                   help="comma-separated subset, e.g. PS,PI (default: all)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--emit-patched", metavar="DIR",
                   help="write one repaired theory file per suggestion")
    p.add_argument("--newcons-base", choices=("fixed", "grow"),
                   default="fixed",
                   help="whether caught static laws extend the base used "
                   "to judge indirect consequences")

    p = sub.add_parser("analyze", help="list implicit laws of one action")
    p.add_argument("file")
    p.add_argument("--action", required=True)
    p.add_argument("--algorithm", choices=("static", "inexec"),
                   default="static")
    p.add_argument("--newcons-base", choices=("fixed", "grow"),
                   default="fixed")

    p = sub.add_parser("query", help="decide entailment of a query")
    p.add_argument("file")
    p.add_argument("--kind", choices=("classical", "box", "diamond"),
                   required=True)
    p.add_argument("--expr", required=True,
                   help="PHI, 'PHI => [a] PSI' or 'PHI => <a> true'")
    p.add_argument("--pdl", action="store_true",
                   help="ignore the dependence relation")

    p = sub.add_parser("model", help="print a model of the theory")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--big", action="store_true",
                       help="all static-law worlds with all permitted edges")
    group.add_argument("--pruned", action="store_true",
                       help="the largest intended model (default)")
    p.add_argument("--dot", metavar="PATH",
                   help="also write a Graphviz rendering")

    p = sub.add_parser("crosscheck",
                       help="compare entailment against countermodel search")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=4,
                   help="maximum number of worlds in a countermodel")
    return parser


_QUERY_KIND = {ClassicalQuery: "classical", BoxQuery: "box",
               DiamondQuery: "diamond"}


def _load(path):
    theory = load_theory(path)
    problems = validate(theory)
    if problems:
        raise AtmodError("; ".join(problems))
    return theory


def _cmd_check(args):
    theory = _load(args.file)
    postulates = None
    if args.postulates:
        postulates = tuple(p.strip() for p in args.postulates.split(","))
        for p in postulates:
            if p not in analysis.POSTULATES:
                raise AtmodError("unknown postulate %r" % p)
    diagnosis = report.diagnose(theory, postulates, args.newcons_base)
    if args.format == "json":
        sys.stdout.write(report.render_json(diagnosis))
    else:
        sys.stdout.write(report.render_text(diagnosis))
    if args.emit_patched:
        os.makedirs(args.emit_patched, exist_ok=True)
        count = 0
        for item in diagnosis.findings:
            for repair in item.repairs:
                count += 1
                path = os.path.join(args.emit_patched,
                                    "%s-fix%02d.at" % (theory.name, count))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("# %s\n" % repair.describe())
                    handle.write(format_theory(repair.apply(theory)))
                print("wrote %s" % path, file=sys.stderr)
    return 0 if diagnosis.ok else 1


def _cmd_analyze(args):
    theory = _load(args.file)
    if args.action not in theory.actions:
        raise AtmodError("unknown action %r" % args.action)
    if args.algorithm == "static":
        findings = analysis.implicit_static_laws(theory, args.action,
                                                 args.newcons_base)
    else:
        ps = analysis.check_postulate(theory, "PS", args.action,
                                      args.newcons_base)
        if not ps.ok:
            print("warning: the theory has implicit static laws for %r; "
                  "inexecutability findings may be spurious" % args.action,
                  file=sys.stderr)
        findings = analysis.implicit_inexec_laws(theory, args.action)
    for finding in findings:
        print(finding)
        for repair in suggest_repairs(theory, finding, args.newcons_base):
            print("  - %s" % repair.describe())
    return 1 if findings else 0


def _cmd_query(args):
    theory = _load(args.file)
    query = parse_query(args.expr, theory)
    if _QUERY_KIND[type(query)] != args.kind:
        raise AtmodError("--kind %s does not match the query %r"
                         % (args.kind, args.expr))
    if args.pdl:
        entailed = semantics.entails_pdl(theory, query)
    else:
        entailed = semantics.entails_dep(theory, query)
    print("entailed" if entailed else "not entailed")
    return 0 if entailed else 1


def _cmd_model(args):
    theory = _load(args.file)
    if args.big:
        model = semantics.big_model(theory)
    else:
        model = semantics.prune_fixpoint(theory)
    sys.stdout.write(json.dumps(semantics.model_to_json(model),
                                indent=2, sort_keys=True) + "\n")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(semantics.model_to_dot(model))
    return 0


def _crosscheck_queries(theory):
    for law in theory.statics:
        yield str(law), ClassicalQuery(law.formula)
    for law in theory.effects:
        yield str(law), BoxQuery(law.action, law.pre, law.post)
    for law in theory.execs:
        yield str(law), DiamondQuery(law.action, law.pre)
    for law in theory.inexecs:
        yield str(law), BoxQuery(law.action, law.pre, FALSE)
    for action in theory.actions:
        for finding in analysis.implicit_static_laws(theory, action):
            yield "implicit %s" % finding, ClassicalQuery(finding.formula)


def _cmd_crosscheck(args):
    theory = _load(args.file)
    failures = 0
    for label, query in _crosscheck_queries(theory):
        entailed = semantics.entails_dep(theory, query)
        counter = semantics.enumerate_countermodel(theory, query,
                                                   args.bound)
        if entailed and counter is not None:
            verdict = "DISAGREE"
            failures += 1
        elif entailed:
            verdict = "agree (entailed, no countermodel)"
        elif counter is not None:
            verdict = "agree (countermodel found)"
        else:
            verdict = "agree (not entailed; no countermodel within bound)"
        print("%s: %s" % (label, verdict))
    return 1 if failures else 0


_COMMANDS = {"check": _cmd_check, "analyze": _cmd_analyze,
             "query": _cmd_query, "model": _cmd_model,
             "crosscheck": _cmd_crosscheck}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except RecursionError:
        print("error: formula nested too deeply (Python recursion limit "
              "is %d)" % sys.getrecursionlimit(), file=sys.stderr)
        return 3
    except (AtmodError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

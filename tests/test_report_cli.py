import json
import os
import random

import pytest

from atmod import cli, engine, kernels, report, semantics
from atmod.errors import ResourceLimitError
from atmod.theory import load_theory, parse_theory, validate
from conftest import FIXTURES, fixture_path, random_theory


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diagnose_ok(theory):
    d = report.diagnose(theory("t4"))
    assert d.ok
    assert d.findings == ()
    assert all(v.status == "pass" for v in d.verdicts)


def test_diagnose_findings_confirmed(theory):
    d = report.diagnose(theory("t1"))
    assert not d.ok
    assert [str(r.finding) for r in d.findings] == ["alive"]
    assert all(r.confirmed for r in d.findings)
    assert all(r.repairs for r in d.findings)


def _count_prunes(monkeypatch):
    pruned = []
    original = semantics.prune_fixpoint

    def counting(theory):
        pruned.append(theory.actions)
        return original(theory)

    monkeypatch.setattr(semantics, "prune_fixpoint", counting)
    return pruned


def test_diagnose_prunes_once_per_action(theory, monkeypatch):
    pruned = _count_prunes(monkeypatch)
    t = theory("intline")
    d = report.diagnose(t)
    assert d.findings and all(r.confirmed for r in d.findings)
    assert sorted(pruned) == [(a,) for a in sorted(t.actions)]


def test_diagnose_pbot_failure_prunes_once(monkeypatch):
    pruned = _count_prunes(monkeypatch)
    t = parse_theory("""
        theory vacuous {
          fluents p q;
          actions a;
          action a {
            causes q;
            effect p => q;
            inexecutable p;
          }
        }
    """)
    d = report.diagnose(t)
    (pbot,) = [v for v in d.verdicts if v.postulate == "P-bot"]
    assert pbot.status == "fail"
    assert pbot.detail == \
        "effect law p -> [a]q only applies where the action cannot occur"
    assert pruned == [("a",)]


def _count_engine_work(monkeypatch):
    """Record the formulas compiled, the formula sets asked for prime
    implicates and the clause sets saturated."""
    work = {"cnf": [], "pi": [], "saturate": []}
    cnf, pi, saturate = engine.cnf_clauses, engine.prime_implicates, \
        kernels.saturate

    def counting_cnf(formula):
        work["cnf"].append(formula)
        return cnf(formula)

    def counting_pi(formulas):
        formulas = tuple(formulas)
        work["pi"].append(formulas)
        return pi(formulas)

    def counting_saturate(clauses):
        work["saturate"].append(clauses)
        return saturate(clauses)

    monkeypatch.setattr(engine, "cnf_clauses", counting_cnf)
    monkeypatch.setattr(engine, "prime_implicates", counting_pi)
    monkeypatch.setattr(kernels, "saturate", counting_saturate)
    return work


def test_diagnose_compiles_and_saturates_once(theory, monkeypatch):
    work = _count_engine_work(monkeypatch)
    d = report.diagnose(theory("intline"))
    assert d.findings and all(r.repairs for r in d.findings)
    assert work["cnf"] and len(work["cnf"]) == len(set(work["cnf"]))
    assert len(work["saturate"]) == len(set(work["pi"])) < len(work["pi"])


def test_each_diagnose_does_its_own_work(theory, monkeypatch):
    work = _count_engine_work(monkeypatch)
    t = theory("intline")
    first = report.diagnose(t)
    counts = {k: len(v) for k, v in work.items()}
    assert engine._SCOPE.get() is None
    second = report.diagnose(t)
    assert second == first
    for k, v in work.items():
        assert len(v) == 2 * counts[k] > 0
    assert engine._SCOPE.get() is None


@pytest.mark.parametrize("base", ["fixed", "grow"])
def test_one_memo_across_theories_changes_no_report(theory, base):
    # One scope shared by many diagnoses must not leak one theory's
    # clauses or prime implicates into another's report.
    rng = random.Random(13)
    theories = [theory(name[:-3]) for name in sorted(os.listdir(FIXTURES))]
    theories += [random_theory(rng) for _ in range(60)]
    alone = [report.render_json(report.diagnose(t, None, base))
             for t in theories]
    with engine.memo():
        shared = [report.render_json(report.diagnose(t, None, base))
                  for t in theories]
    assert shared == alone


def test_render_text(theory):
    text = report.render_text(report.diagnose(theory("t1")))
    assert "static law alive" in text
    assert "result: not modular" in text
    text = report.render_text(report.diagnose(theory("t4")))
    assert "result: ok" in text


def test_render_json_schema(theory):
    doc = json.loads(report.render_json(report.diagnose(theory("t2"))))
    assert doc["schema"] == "atmod/1"
    assert doc["theory"]["name"] == "turkey2"
    assert doc["ok"] is False
    assert {v["postulate"] for v in doc["verdicts"]} >= {"PS", "PI", "PC*"}
    (finding,) = doc["findings"]
    assert finding["kind"] == "inexecutability"
    assert finding["law"] == "~alive -> [tease]false"
    assert finding["confirmed"] is True
    assert finding["witness"]["laws"] == ["[tease]walking"]
    assert len(finding["repairs"]) == 3
    assert doc["oracle"]["checked"] == doc["oracle"]["confirmed"] == 1


def test_reports_are_deterministic(theory):
    t1 = load_theory(fixture_path("t1"))
    t2 = load_theory(fixture_path("t1"))
    assert report.render_json(report.diagnose(t1)) == \
        report.render_json(report.diagnose(t2))
    assert report.render_text(report.diagnose(t1)) == \
        report.render_text(report.diagnose(t2))


def test_cli_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", fixture_path("t4"))
    assert code == 0
    assert "result: ok" in out
    code, out, _ = run(capsys, "check", fixture_path("t1"))
    assert code == 1
    assert "not modular" in out


def test_cli_check_json_and_postulates(capsys):
    code, out, _ = run(capsys, "check", fixture_path("t2"),
                       "--format", "json", "--postulates", "PS,PI")
    assert code == 1
    doc = json.loads(out)
    assert {v["postulate"] for v in doc["verdicts"]} == {"PS", "PI"}
    code, _, err = run(capsys, "check", fixture_path("t2"),
                       "--postulates", "PS,PZ")
    assert code == 2
    assert "PZ" in err


def test_cli_check_newcons_base(capsys):
    code, out, _ = run(capsys, "check", fixture_path("intline"),
                       "--newcons-base", "grow")
    assert code == 1
    assert "~(at_0 & at_1)" in out


def test_cli_emit_patched(capsys, tmp_path):
    outdir = str(tmp_path / "patched")
    code, _, err = run(capsys, "check", fixture_path("t2"),
                       "--emit-patched", outdir)
    assert code == 1
    files = sorted(os.listdir(outdir))
    assert files == ["turkey2-fix01.at", "turkey2-fix02.at",
                     "turkey2-fix03.at"]
    for name in files:
        text = open(os.path.join(outdir, name)).read()
        patched = parse_theory(text)
        assert patched.name == "turkey2"
    assert "wrote" in err


def test_cli_analyze(capsys):
    code, out, _ = run(capsys, "analyze", fixture_path("t2"),
                       "--action", "tease", "--algorithm", "inexec")
    assert code == 1
    assert "~alive -> [tease]false" in out
    code, out, _ = run(capsys, "analyze", fixture_path("t4"),
                       "--action", "shoot")
    assert code == 0
    assert out == ""


def test_cli_analyze_warns_without_ps(capsys):
    code, out, err = run(capsys, "analyze", fixture_path("hidden_inexec"),
                         "--action", "a", "--algorithm", "inexec")
    assert code == 1
    assert "p1 & ~p2 -> [a]false" in out
    assert "spurious" in err


def test_cli_query(capsys):
    code, out, _ = run(capsys, "query", fixture_path("t1"),
                       "--kind", "classical", "--expr", "alive")
    assert code == 0 and out == "entailed\n"
    code, out, _ = run(capsys, "query", fixture_path("t2"),
                       "--kind", "box", "--expr",
                       "~alive => [tease] ~alive")
    assert code == 0
    code, out, _ = run(capsys, "query", fixture_path("t2"),
                       "--kind", "box", "--expr",
                       "~alive => [tease] ~alive", "--pdl")
    assert code == 1 and out == "not entailed\n"
    code, _, err = run(capsys, "query", fixture_path("t1"),
                       "--kind", "diamond", "--expr", "alive")
    assert code == 2
    assert "--kind" in err


def test_cli_model(capsys, tmp_path):
    dot = str(tmp_path / "model.dot")
    code, out, _ = run(capsys, "model", fixture_path("t2"), "--dot", dot)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["worlds"]) == 3
    assert open(dot).read().startswith("digraph")
    code, out, _ = run(capsys, "model", fixture_path("t1"), "--big")
    big = json.loads(out)
    code, out, _ = run(capsys, "model", fixture_path("t1"), "--pruned")
    pruned = json.loads(out)
    assert len(pruned["worlds"]) < len(big["worlds"])


def test_cli_crosscheck(capsys):
    code, out, _ = run(capsys, "crosscheck", fixture_path("t1"),
                       "--bound", "4")
    assert code == 0
    assert "DISAGREE" not in out
    assert "implicit alive" in out


def test_cli_errors(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.at"))
    assert code == 2
    bad = tmp_path / "bad.at"
    bad.write_text("theory t {")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "error" in err
    monkeypatch.setenv("ATMOD_MAX_ATOMS", "2")
    code, _, err = run(capsys, "check", fixture_path("t1"))
    assert code == 3


def test_cli_deep_nesting_is_a_resource_error(capsys, tmp_path):
    laws = ["~" * 4000 + "p", " & ".join(["p"] * 3000)]
    for i, law in enumerate(laws):
        path = tmp_path / ("deep%d.at" % i)
        path.write_text("theory deep {\n  fluents p;\n  actions a;\n"
                        "  static { %s; }\n"
                        "  action a { executable true; }\n}\n" % law)
        code, _, err = run(capsys, "check", str(path))
        assert code == 3
        assert "nested too deeply" in err
        assert "Traceback" not in err


def test_library_deep_nesting_is_a_resource_error():
    deep = ("theory deep {\n  fluents p;\n  actions a;\n"
            "  static { %s; }\n}\n")
    with pytest.raises(ResourceLimitError, match="nested too deeply"):
        parse_theory(deep % ("~" * 4000 + "p"))
    wide = parse_theory(deep % " & ".join(["p"] * 3000))
    with pytest.raises(ResourceLimitError, match="nested too deeply"):
        validate(wide)


def test_cli_crosscheck_subset_limit(capsys, tmp_path):
    path = tmp_path / "wide.at"
    path.write_text("theory wide {\n  fluents %s;\n  static { f0 | ~f0; }\n}\n"
                    % " ".join("f%d" % i for i in range(8)))
    code, out, err = run(capsys, "crosscheck", str(path), "--bound", "4")
    assert code == 3
    assert out == ""
    assert err == ("error: countermodel search would try 177589056 world "
                   "subsets (up to 4 of 256 worlds), limit is 1000000\n")
    code, out, err = run(capsys, "crosscheck", str(path), "--bound", "2")
    assert code == 0
    assert out == "f0 | ~f0: agree (entailed, no countermodel)\n"


def _pairwise_disjunction(n):
    return ("theory wide {\n  fluents %s;\n  static { %s; }\n}\n"
            % (" ".join("a%d b%d" % (i, i) for i in range(n)),
               " | ".join("(a%d & b%d)" % (i, i) for i in range(n))))


def test_cnf_clause_limit(capsys, tmp_path, monkeypatch):
    # 2^17 clauses exceed the limit in the last distribution step; the
    # atom limit is raised so that the clause guard is the one hit
    monkeypatch.setenv("ATMOD_MAX_ATOMS", "40")
    message = ("clausal form would build 131072 clauses in one "
               "distribution step, limit is 100000")
    with pytest.raises(ResourceLimitError, match=message):
        validate(parse_theory(_pairwise_disjunction(17)))
    path = tmp_path / "wide17.at"
    path.write_text(_pairwise_disjunction(17))
    code, out, err = run(capsys, "check", str(path))
    assert code == 3
    assert out == ""
    assert err == "error: %s\n" % message
    path = tmp_path / "wide14.at"       # 16,384 clauses
    path.write_text(_pairwise_disjunction(14))
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    assert out.endswith("result: ok\n")
    assert err == ""

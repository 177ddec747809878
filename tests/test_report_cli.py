import json
import os

import pytest

from atmod import cli, report
from atmod.theory import load_theory, parse_theory
from conftest import fixture_path


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

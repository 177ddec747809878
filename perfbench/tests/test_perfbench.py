"""Tests of the benchmark itself: generators, answer checks, reference
model and tracing.  Run with:  python3 -m pytest perfbench/tests
"""

import glob
import json
import os
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from atmod import kernels  # noqa: E402
from atmod.theory import load_theory, parse_theory  # noqa: E402


def atmod(tmp_path, theory, command, *options):
    """Exit code and stdout of ``atmod COMMAND FILE OPTIONS``."""
    path = tmp_path / "input.at"
    path.write_text(theory.text if hasattr(theory, "text") else theory)
    _, code, out = run.run_one([command, str(path)] + list(options))
    return code, out


@pytest.mark.parametrize("workload", sorted(gen.STREAMS))
def test_same_seed_same_inputs(workload):
    stream = gen.STREAMS[workload]
    first = [t.text for t in islice(stream(3), 5)]
    assert first == [t.text for t in islice(stream(3), 5)]
    assert first != [t.text for t in islice(stream(4), 5)]
    assert len(set(first)) == 5


def _shape(theory):
    blocks = sorted(tuple(len(laws) for laws in block.values())
                    for block in theory.laws.values())
    return (len(theory.fluents), len(theory.actions), len(theory.statics),
            blocks)


@pytest.mark.parametrize("workload", sorted(gen.STREAMS))
def test_seeds_time_the_same_shapes(workload):
    stream = gen.STREAMS[workload]
    for a, b in zip(islice(stream(3), 40), islice(stream(4), 40)):
        assert a.text != b.text
        assert _shape(a) == _shape(b)


def test_random_inputs_cycle_through_the_shapes():
    shapes = gen.random_shapes()
    assert len({shape.text for shape in shapes}) == gen.RANDOM_SHAPES
    inputs = list(islice(gen.random_stream(0), gen.RANDOM_SHAPES + 1))
    assert _shape(inputs[0]) == _shape(inputs[-1]) == _shape(shapes[0])
    assert not set(inputs[0].fluents) & set(inputs[-1].fluents)


def test_repeat_pairs_inputs_of_one_shape():
    a, b, c = islice(gen.wide_stream(0, repeat=2), 3)
    shapes = [_shape(t) for t in islice(gen.wide_stream(0), 2)]
    assert _shape(a) == _shape(b) == shapes[0] and _shape(c) == shapes[1]
    assert a.text != b.text


def test_timing_metrics():
    values = run.timing_metrics([float(i) for i in range(1, 11)])
    assert values["verdict_s.p50"] == 5.5
    assert values["verdict_s.p90"] == pytest.approx(9.1)
    assert values["theories_per_s"] == pytest.approx(10 / 55)


def test_line_variants_share_no_names():
    variants = list(islice(gen.line_stream(0), 4))
    names = [set(v.fluents) | set(v.actions) for v in variants]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not a & b


def test_random_laws_are_consistent():
    for theory in islice(gen.random_stream(0), 50):
        parsed = parse_theory(theory.text)
        assert all(gen.satisfiable(f, theory.fluents)
                   for f in theory.statics)
        assert parsed.fluents == tuple(theory.fluents)


def test_line_answer_accepted_and_tampering_rejected(tmp_path):
    theory = next(gen.line_stream(5, n=3))
    code, out = atmod(tmp_path, theory, "check", "--format", "json")
    assert check.check_line(out, code, theory) is None
    doc = json.loads(out)

    def tampered(edit):
        copy = json.loads(out)
        edit(copy)
        return json.dumps(copy)

    assert check.check_line(out, 0, theory) is not None
    assert check.check_line(tampered(lambda d: d["findings"].pop()),
                            code, theory) is not None
    assert check.check_line(
        tampered(lambda d: d["findings"][0].update(confirmed=False)),
        code, theory) is not None
    cells = theory.cells
    wrong = "~(%s & %s)" % (cells[1], cells[2])
    assert check.check_line(
        tampered(lambda d: d["findings"][0].update(law=wrong)),
        code, theory) is not None
    assert len(doc["findings"]) == 2


def test_line_checker_tells_grow_from_fixed(tmp_path):
    theory = gen.line_theory(3)
    code, out = atmod(tmp_path, theory, "check", "--format", "json",
                      "--newcons-base", "grow")
    assert len(json.loads(out)["findings"]) == 3
    assert check.check_line(out, code, theory, "grow") is None
    assert check.check_line(out, code, theory) is not None


def test_random_digests_match_and_detect_tampering(tmp_path):
    digests = check.load_digests()
    for k, theory in enumerate(islice(gen.random_stream(run.DIGEST_SEED),
                                      3)):
        code, out = atmod(tmp_path, theory, "check", "--format", "json")
        assert check.check_random(out, code, theory, digests[k],
                                  kernels.BACKEND) is None
    tampered = out.replace('"ok"', '"ok" ', 1)
    assert check.check_random(tampered, code, theory, digests[k],
                              kernels.BACKEND) is not None
    assert check.check_random(out, 2, theory) is not None


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(ROOT, "tests", "fixtures", "*.at"))))
def test_reference_agrees_with_model_on_fixtures(tmp_path, path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    code, out = atmod(tmp_path, text, "model")
    assert check.check_model(out, code, load_theory(path)) is None


def test_model_checker_rejects_missing_edge(tmp_path):
    theory = next(gen.wide_stream(0))
    code, out = atmod(tmp_path, theory, "model")
    parsed = parse_theory(theory.text)
    assert check.check_model(out, code, parsed) is None
    doc = json.loads(out)
    action = next(a for a, edges in doc["relation"].items() if edges)
    doc["relation"][action].pop()
    assert check.check_model(json.dumps(doc), code, parsed) is not None


def test_tracer_sees_every_layer_and_restores(tmp_path):
    from atmod import engine, formulas

    original = formulas.cnf_clauses
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.cnf_clauses is not original
        code, out = atmod(tmp_path, gen.line_theory(3), "check", "--format",
                          "json")
    finally:
        tracer.uninstall()
    assert engine.cnf_clauses is original and formulas.cnf_clauses is original
    totals = spans.aggregate(tracer)
    assert all(totals[name + ".calls"] > 0 for name in spans.NAMES
               if name != "cli.main")
    for name in spans.NAMES:
        assert 0 <= totals[name + ".self_s"] <= totals[name + ".incl_s"]


def test_tracer_fails_on_a_missing_function(monkeypatch):
    from atmod import engine

    monkeypatch.delattr(engine, "new_cons")
    with pytest.raises(spans.HookError):
        spans.Tracer().install()
    assert not hasattr(engine.satisfiable, "__wrapped__")


def test_metric_names_match_benchmark_json(capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "random-check", "--seed", "2",
                         "--seconds", "0.3", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(m["name"]
                                                   for m in spec[key])
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]

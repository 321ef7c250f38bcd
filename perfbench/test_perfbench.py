"""Tests of the benchmark's own oracle, checkers and tracer.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from checks import canonical_text, check_reduction, weierstrass_class
from speed import NO_PROBE, REFERENCE_PROBE_S, SpeedProbe, probe_chunk
from tracing import COUNT_METRICS, LAYERS, Tracer

REPO = Path(__file__).resolve().parents[1]
run.import_checkout_source(REPO)

from hyperspin import cli, gf2, normalform  # noqa: E402


@pytest.mark.parametrize("g", range(3, 8))
def test_weierstrass_class_agrees_with_class_index_exhaustively(g):
    mask = (1 << g) - 1
    mismatches = [
        key
        for key in range(1 << (2 * g))
        if weierstrass_class(g, key & mask, key >> g)
        != normalform.class_index(gf2.SpinMatrix.from_key(g, key))
    ]
    assert mismatches == []


def test_canonical_text_matches_the_program_forms():
    for g in (3, 4, 9, 64):
        for m in range((g + 1) // 2 + 1):
            assert canonical_text(g, m) == str(normalform.canonical_form(g, m))


def test_verify_checker_counts_each_corrupted_row():
    workload = run.VerifyWorkload("verify-default", seed=0)
    code, stdout = run._capture(cli.main, ["verify"])
    assert workload.check((code, stdout)) == (53, 0)

    lines = stdout.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if "\tclass-agreement\t" in line)
    failed_row = lines[:row] + [lines[row].replace("PASS", "FAIL")] + lines[row + 1:]
    assert workload.check((code, "".join(failed_row))) == (53, 1)

    changed_detail = lines[:row + 1] + [lines[row + 1].replace("\t", "\t ", 1)] + lines[row + 2:]
    assert workload.check((code, "".join(changed_detail))) == (53, 1)

    assert workload.check((code, "".join(lines[:row] + lines[row + 1:])))[1] >= 1
    assert workload.check((1, stdout)) == (53, 53)
    assert workload.check((code, stdout.replace("# elapsed", "# elapsed 0"))) == (53, 0)


def test_reduction_checker_counts_a_wrong_class():
    stream = run.ReduceStream("reduce-stream", seed=7)
    texts = stream._texts(20)
    _, (texts, traces) = stream._run(texts, NO_PROBE)
    assert stream.check((texts, traces)) == (20, 0)

    trace = traces[3]
    wrong = normalform.ReductionTrace(trace.start, trace.steps, trace.class_index + 1)
    assert stream.check((texts, traces[:3] + [wrong] + traces[4:])) == (20, 1)
    assert stream.check((texts, traces[:5] + [ValueError("boom")] + traces[6:])) == (20, 1)


def test_reduction_checker_rejects_each_kind_of_wrong_output():
    text = "11111/10111"
    final = canonical_text(5, 2)
    assert check_reduction(text, 2, final, final) is None
    assert "closed form" in check_reduction(text, 1, final, final)
    assert "final matrix" in check_reduction(text, 2, "11100/10110", final)
    assert "replays" in check_reduction(text, 2, final, "11100/10110")


def test_speed_probe_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        mark = probe.mark()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            probe_chunk(100)
        work, reference = probe.since(mark)
    assert probe.count >= 2 and signal.getsignal(signal.SIGALRM) is before
    assert work == pytest.approx(0.3 - (probe.total_s), abs=0.05)
    assert reference == pytest.approx(work * REFERENCE_PROBE_S * probe.count / probe.total_s)


def _traced_counts(work) -> dict:
    with Tracer() as tracer:
        work()
    metrics = tracer.metrics(1.0, 1.0)
    return {name: metrics[name][0] for name in COUNT_METRICS}


def test_traced_counts_repeat_exactly():
    verify = lambda: run._capture(cli.main, ["verify", "3..5"])  # noqa: E731
    first, second = _traced_counts(verify), _traced_counts(verify)
    assert first == second
    assert first["normalform.calls"] > 0 and first["orbits.bfs.edges"] > 0

    def reduce_batch():
        stream = run.ReduceStream("reduce-stream", seed=3)
        stream._run(stream._texts(50), NO_PROBE)

    first, second = _traced_counts(reduce_batch), _traced_counts(reduce_batch)
    assert first == second
    assert first["normalform.calls"] == 50 and first["orbits.keys.calls"] == 0


def test_tracer_reaches_same_module_callers_and_restores_everything():
    originals = {name: getattr(normalform, name) for name in LAYERS["normalform"][1]}
    with Tracer() as tracer:
        assert normalform.class_index is not originals["class_index"]
        normalform.class_index(gf2.SpinMatrix.from_text("11111/10111"))
    # class_index and the reduce_to_canonical it calls: two spans, one call.
    assert len(tracer.start) == 2 and tracer.calls[tracer.layer_names.index("normalform")] == 1
    assert {name: getattr(normalform, name) for name in originals} == originals
    assert cli.class_index is originals["class_index"]


def test_missing_layer_function_fails_loudly(monkeypatch):
    monkeypatch.setitem(LAYERS, "braid", ("braid", ("apply_generator", "no_such_function")))
    before = cli.apply_generator
    with pytest.raises(RuntimeError, match="no_such_function"):
        Tracer().install()
    assert cli.apply_generator is before


def test_run_fails_without_a_result_when_the_program_is_absent(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = bench / path.relative_to(Path(run.__file__).parent)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

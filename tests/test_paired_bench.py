"""The summary of ``tools/paired_bench.py`` on fixed numbers, and a series
cut short by a run that fails."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", PATH)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

METRICS = [
    {"name": "warm_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def pairs(parent, change):
    return [({"warm_ms": p, "rate": 100.0}, {"warm_ms": c, "rate": 100.0})
            for p, c in zip(parent, change)]


def test_quartiles_of_ten_runs():
    assert paired_bench.quartiles([float(x) for x in range(1, 11)]) == (2.75, 5.5, 8.25)
    assert paired_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_spread():
    parent = [20.0, 21, 19, 20, 22, 20, 21, 19, 20, 20]
    change = [18.0, 18, 17, 18, 19, 18, 18, 17, 18, 21]
    s = paired_bench.summarize(pairs(parent, change), METRICS)["warm_ms"]
    assert s["parent"] == {"median": 20.0, "q1": 19.75, "q3": 21.0}
    assert s["change"]["median"] == 18.0
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
    assert s["relative"] == pytest.approx(-0.1)
    assert s["gain_shown"] and s["within_bound"]
    # eight wins of ten are too few, whatever the gap
    s = paired_bench.summarize(pairs(parent, change[:8] + [21.0, 21.0]), METRICS)["warm_ms"]
    assert s["wins"] == 8 and not s["gain_shown"]
    # every pair won, but by less than the parent's interquartile range
    s = paired_bench.summarize(pairs(parent, [p - 0.5 for p in parent]), METRICS)["warm_ms"]
    assert s["wins"] == 10 and not s["gain_shown"]


def test_ties_count_for_neither_side_and_bounds_follow_the_better_direction():
    s = paired_bench.summarize(pairs([10.0] * 4, [10.0] * 4), METRICS)
    assert (s["warm_ms"]["wins"], s["warm_ms"]["losses"]) == (0, 0)
    assert s["warm_ms"]["within_bound"] and not s["warm_ms"]["gain_shown"]
    worse = paired_bench.summarize(pairs([10.0] * 4, [11.5] * 4), METRICS)["warm_ms"]
    assert worse["losses"] == 4 and not worse["within_bound"]
    # a metric that is better higher: a fall of 5% is within a 10% bound
    low = [({"warm_ms": 1.0, "rate": 100.0}, {"warm_ms": 1.0, "rate": 95.0})] * 3
    rate = paired_bench.summarize(low, METRICS)["rate"]
    assert (rate["wins"], rate["losses"]) == (0, 3)
    assert rate["within_bound"] and not rate["gain_shown"]


def result(warm_ms):
    return {"metrics": {"warm_ms": {"value": warm_ms}, "rate": {"value": 100.0}},
            "correct": True, "failed": 0}


def test_a_failed_run_is_recorded_and_the_completed_pairs_are_summarized(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(paired_bench.signal, "signal", lambda *args: None)
    monkeypatch.setattr(paired_bench, "export", lambda ref, dest: None)
    # seed 1: parent then change; seed 2: change, then the parent's run exits 3
    outcomes = iter([result(20.0), result(18.0), result(17.0),
                     {"exit_code": 3, "stderr_tail": ["Traceback", "ValueError: bad"]}])
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(seed)
        return next(outcomes)

    monkeypatch.setattr(paired_bench, "run", fake_run)
    argv = ["--parent", "HEAD", "--workload", "w", "--seeds", "1", "2", "3",
            "--seconds", "1", "--json", "out.json"]
    assert paired_bench.main(argv) == 1
    # the series stops at the failed run: seed 3 never runs
    assert calls == [1, 1, 2, 2]
    out = capsys.readouterr().out
    assert "seed 2 parent: exited 3; its stderr ends:\n    Traceback\n    ValueError: bad" in out
    assert "w, 1 pairs" in out and "every run correct with no failed operation: False" in out
    saved = json.loads((tmp_path / "out.json").read_text())
    assert saved["all_correct"] is False and len(saved["runs"]) == 1
    assert saved["failed_run"] == {"seed": 2, "side": "parent", "exit_code": 3,
                                   "stderr_tail": ["Traceback", "ValueError: bad"]}
    assert saved["summary"]["warm_ms"]["parent"]["median"] == 20.0
    assert saved["summary"]["warm_ms"]["change"]["median"] == 18.0


def test_a_failed_first_run_leaves_nothing_to_summarize(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(paired_bench.signal, "signal", lambda *args: None)
    monkeypatch.setattr(paired_bench, "export", lambda ref, dest: None)
    monkeypatch.setattr(paired_bench, "run", lambda *args: {"exit_code": 1, "stderr_tail": []})
    argv = ["--parent", "HEAD", "--workload", "w", "--seeds", "1", "--seconds", "1"]
    assert paired_bench.main(argv) == 1
    saved = json.loads((tmp_path / ".perfbench" / "paired-w.json").read_text())
    assert saved["summary"] == {} and saved["runs"] == [] and not saved["all_correct"]


def test_a_run_that_exits_non_zero_keeps_its_code_and_last_20_stderr_lines(monkeypatch):
    stderr = "".join(f"line {i}\n" for i in range(30))

    def fake(cmd, **kwargs):
        assert "check" not in kwargs
        return subprocess.CompletedProcess(cmd, 2, stdout="", stderr=stderr)

    monkeypatch.setattr(paired_bench.subprocess, "run", fake)
    assert paired_bench.run(".", "w", 1, 1.0) == {
        "exit_code": 2, "stderr_tail": [f"line {i}" for i in range(10, 30)]}


@pytest.mark.parametrize("stdout", [
    "",
    "warming up\nTraceback: not a result\n",
    'warming up\n{"correct": true, "failed": 0}\n',
], ids=["empty", "not-json", "no-metrics"])
def test_a_run_without_a_result_line_ends_the_series_like_a_failed_one(
        tmp_path, monkeypatch, capsys, stdout):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(paired_bench.signal, "signal", lambda *args: None)
    monkeypatch.setattr(paired_bench, "export", lambda ref, dest: None)
    # seed 1 is one good pair; seed 2 runs the change first, which exits 0
    # without a result on its last line
    outputs = iter([json.dumps(result(20.0)), "log\n" + json.dumps(result(18.0)), stdout])

    def fake(cmd, **kwargs):
        assert "check" not in kwargs
        return subprocess.CompletedProcess(cmd, 0, stdout=next(outputs), stderr="done\n")

    monkeypatch.setattr(paired_bench.subprocess, "run", fake)
    argv = ["--parent", "HEAD", "--workload", "w", "--seeds", "1", "2", "3",
            "--seconds", "1", "--json", "out.json"]
    assert paired_bench.main(argv) == 1
    last = stdout.strip().splitlines()[-1] if stdout else ""
    out = capsys.readouterr().out
    assert f"seed 2 change: exited 0 with a malformed last line {last!r}" in out
    assert "w, 1 pairs" in out and "every run correct with no failed operation: False" in out
    saved = json.loads((tmp_path / "out.json").read_text())
    assert saved["all_correct"] is False and len(saved["runs"]) == 1
    assert saved["failed_run"] == {"seed": 2, "side": "change", "exit_code": 0,
                                   "stderr_tail": ["done"], "malformed": last}
    assert saved["summary"]["warm_ms"]["change"]["median"] == 18.0

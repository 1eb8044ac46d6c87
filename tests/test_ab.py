import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def line(p50, rss, throughput=1000.0, correct=True, failed=0):
    """A result line as perfbench/run.py prints it last."""
    metrics = {"latency_p50_ms": {"value": p50, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "throughput_cells_per_s": {"value": throughput, "unit": "cells/s"}}
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": metrics})


def rows_by_name(pairs):
    return {r["name"]: r for r in ab.summarise(pairs, END_TO_END)}


class TestResultLines:
    def test_the_last_line_is_the_result(self):
        out = "warming up\n" + line(1.0, 20.0) + "\n\n"
        assert ab.result_of(out)["metrics"]["latency_p50_ms"]["value"] == 1.0
        assert ab.result_of("") is None
        assert ab.result_of(line(1.0, 20.0) + "\nTraceback (most recent call last)") is None
        assert ab.result_of("[1, 2]") is None

    def test_failed_runs_are_named(self):
        def run(code, text):
            return {"returncode": code, "result": ab.result_of(text)}

        assert ab.failure(run(0, line(1.0, 20.0))) is None
        assert ab.failure(run(1, line(1.0, 20.0))) == "exit code 1"
        assert ab.failure(run(0, "crashed")) == "no result line"
        assert ab.failure(run(0, line(1.0, 20.0, correct=False))) == "correct is false"
        assert ab.failure(run(0, line(1.0, 20.0, failed=3))) == "3 of 100 requests failed"

    def test_a_failed_run_is_named_with_its_last_stderr_line(self, tmp_path):
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import sys\n"
            "print('warming up', file=sys.stderr)\n"
            "print('FileNotFoundError: tests/fixtures/segment3.json', file=sys.stderr)\n"
            "print(file=sys.stderr)\n"
            "sys.exit(1)\n", encoding="utf-8")
        run = ab.run_side(tmp_path, "selfcheck-explain", 1, 1)
        assert run["returncode"] == 1 and run["result"] is None
        assert ab.failed_line(3, "head", run) == (
            "FAILED pair 3 head: exit code 1; stderr: FileNotFoundError: tests/fixtures/segment3.json")
        # a run that wrote nothing there is named alone
        assert ab.failed_line(0, "base", {"returncode": 1, "result": None, "stderr_tail": []}) == (
            "FAILED pair 0 base: exit code 1")


class TestSummary:
    def test_medians_quartiles_and_wins(self):
        base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
        head = [0.5] * 9 + [2.0]  # loses the last pair
        pairs = [{"base": json.loads(line(b, 20.0)), "head": json.loads(line(h, 20.0 + i / 100))}
                 for i, (b, h) in enumerate(zip(base, head))]
        rows = rows_by_name(pairs)
        p50 = rows["latency_p50_ms"]
        assert (p50["base_q1"], p50["base_median"], p50["base_q3"]) == pytest.approx(
            (1.225, 1.45, 1.675))
        assert p50["head_median"] == 0.5 and (p50["wins"], p50["ties"], p50["pairs"]) == (9, 0, 10)
        assert p50["gain"] and not p50["over_bound"]
        # peak RSS is worse on every pair, by at most 0.45%: within its bound
        rss = rows["peak_rss_mb"]
        assert rss["wins"] == 0 and not rss["gain"] and not rss["over_bound"]
        # every throughput is equal: all ties
        assert (rows["throughput_cells_per_s"]["wins"], rows["throughput_cells_per_s"]["ties"]) == (0, 10)
        # metrics missing from the lines have no statistics
        assert rows["setup_s"]["base_median"] is None and rows["setup_s"]["wins"] == 0

    def test_a_gain_needs_nine_tenths_of_the_pairs_and_the_quartile_gap(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # q1 3.25, q3 7.75
        for head, gain in [([x - 0.1 for x in base], False),  # wins 10, gap 0.1 < 4.5
                           ([0.5] * 8 + [20.0] * 2, False),   # wins 8 of 10
                           ([0.5] * 9 + [20.0], True)]:       # wins 9, gap 5.0 > 4.5
            pairs = [{"base": json.loads(line(b, 20.0)), "head": json.loads(line(h, 20.0))}
                     for b, h in zip(base, head)]
            assert rows_by_name(pairs)["latency_p50_ms"]["gain"] is gain, head

    def test_higher_is_better_and_the_bound(self):
        base = [1000.0, 1010.0, 990.0, 1005.0]
        pairs = [{"base": json.loads(line(1.0, 20.0, throughput=b)),
                  "head": json.loads(line(1.0, 22.5, throughput=b * 0.7))} for b in base]
        rows = rows_by_name(pairs)
        # 30% lower throughput is over its 0.25 bound, 12.5% more memory over 0.1
        assert rows["throughput_cells_per_s"]["over_bound"] and rows["throughput_cells_per_s"]["wins"] == 0
        assert rows["peak_rss_mb"]["over_bound"]

    def test_a_failed_side_counts_for_neither(self):
        pairs = [{"base": json.loads(line(1.0, 20.0)), "head": json.loads(line(0.5, 20.0))},
                 {"base": json.loads(line(1.2, 20.0)), "head": None},
                 {"base": None, "head": json.loads(line(0.6, 20.0))}]
        p50 = rows_by_name(pairs)["latency_p50_ms"]
        assert (p50["wins"], p50["pairs"], p50["base_median"], p50["head_median"]) == (1, 3, 1.1, 0.55)
        assert not p50["gain"]  # 1 win of 3 pairs run

    def test_the_table_has_a_row_per_metric(self):
        pairs = [{"base": json.loads(line(1.0, 20.0)), "head": json.loads(line(0.5, 20.0))}]
        text = ab.table(ab.summarise(pairs, END_TO_END))
        assert len(text.splitlines()) == 2 + len(END_TO_END)
        assert "| latency_p50_ms (ms, lower) | 1 | 1 | 1 | 0.5 | -50.0% | 1/1 | yes | no |" in text


class TestTheRecordFile:
    def test_named_after_both_sides_and_never_overwritten(self, tmp_path, monkeypatch, capsys):
        repo, head = tmp_path / "repo", tmp_path / "tree"
        repo.mkdir()
        head.mkdir()

        def git(*args):
            return subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@localhost", *args],
                                  cwd=repo, check=True, capture_output=True, text=True).stdout.strip()

        git("init", "-q")
        (repo / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
                                             encoding="utf-8")
        git("add", "BENCHMARK.json")
        git("commit", "-qm", "benchmark")
        # a record kept under the name every run used to be written to
        kept = repo / "BENCH_grid-check-seed7.json"
        kept.write_text("{}\n", encoding="utf-8")
        runs = []

        def run_side(tree, workload, seed, seconds):
            runs.append(tree)
            return {"returncode": 0, "result": json.loads(line(1.0, 20.0)), "wall_s": 0.1}

        monkeypatch.setattr(ab, "run_side", run_side)
        monkeypatch.chdir(repo)
        argv = ["--base", "HEAD", "--head", str(head), "--workload", "grid-check", "--pairs", "2",
                "--seed", "7"]
        assert ab.main(argv) == 0
        out = repo / f"BENCH_grid-check-seed7-{git('rev-parse', '--short', 'HEAD')}-tree.json"
        record = out.read_bytes()
        assert json.loads(record)["sides"]["head"] == {"dir": str(head)} and len(runs) == 4
        assert kept.read_text(encoding="utf-8") == "{}\n"
        # run again, it refuses before any run and leaves the record as it is
        runs.clear()
        capsys.readouterr()
        assert ab.main(argv) == 2
        assert runs == [] and out.read_bytes() == record
        assert capsys.readouterr().err == f"error: {out.name} exists; move it away to run again\n"

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_result(workload, value):
    metrics = {m: {"value": value} for m in ("wall_s", "cpu_s", "setup_s",
                                              "peak_rss_mb")}
    return {"workload": workload, "metrics": metrics, "raw_wall_s": value}


@pytest.fixture
def bench_pairs(monkeypatch):
    module = _load()
    calls = []

    def run_bench(root, workload, seed, seconds, trace):
        calls.append((root, workload))
        return _fake_result(workload, 1.0 if root.name == "pa" else 0.5)

    monkeypatch.setattr(module, "run_bench", run_bench)
    monkeypatch.setattr(module, "commit", lambda root: f"sha-{root.name}")
    module.calls = calls
    return module


def _checkouts(tmp_path, parent="pa", change="ch"):
    for name in (parent, change):
        (tmp_path / name).mkdir()
    return ["--parent", str(tmp_path / parent),
            "--change", str(tmp_path / change)]


def test_writes_summary_for_two_pairs(bench_pairs, tmp_path):
    out = tmp_path / "out.json"
    bench_pairs.main(_checkouts(tmp_path)
                     + ["--pairs", "symmetric=2", "--out", str(out)])
    doc = json.loads(out.read_text())
    wall, raw = doc["summary"][0], doc["summary"][-1]
    assert (wall["metric"], wall["pairs"]) == ("wall_s", 2)
    assert wall["change_better_in"] == 2
    assert (raw["metric"], raw["change_median"]) == ("raw_wall_s", 0.5)
    assert len(bench_pairs.calls) == 4
    assert (doc["parent"]["commit"], doc["change"]["commit"]) == (
        "sha-pa", "sha-ch")


def test_traced_runs_alternate_in_pairs_and_keep_medians(monkeypatch,
                                                         tmp_path):
    # one unpaired traced run per side lets a host phase shift every
    # layer of one side: the traced runs alternate like the untraced
    # pairs, and each layer keeps its median per side
    module = _load()
    calls = []
    # the traced runs' layer values, in call order: the parent reads
    # 3, 1, 2 and the change 6, 5, 4 on cones.triangulate_s, and one
    # layer reads 0 on both sides
    layer = iter([3.0, 6.0, 5.0, 1.0, 2.0, 4.0])

    def run_bench(root, workload, seed, seconds, trace):
        calls.append((root.name, trace))
        result = _fake_result(workload, 1.0)
        if trace:
            result["metrics"]["cones.triangulate_s"] = {"value": next(layer)}
            result["metrics"]["hstar.katzman_s"] = {"value": 0.0}
        return result

    monkeypatch.setattr(module, "run_bench", run_bench)
    monkeypatch.setattr(module, "commit", lambda root: f"sha-{root.name}")
    out = tmp_path / "out.json"
    module.main(_checkouts(tmp_path) + ["--pairs", "symmetric=2",
                                        "--trace-seconds", "3",
                                        "--out", str(out)])
    assert module.TRACED_PAIRS == 3
    assert calls == [("pa", 0), ("ch", 0), ("ch", 0), ("pa", 0),
                     ("pa", 1), ("ch", 1), ("ch", 1), ("pa", 1),
                     ("pa", 1), ("ch", 1)]
    traced = json.loads(out.read_text())["traced_seed_1"]["symmetric"]
    assert traced["cones.triangulate_s"] == [2.0, 5.0]
    assert traced["wall_s"] == [1.0, 1.0]
    assert "hstar.katzman_s" not in traced


def test_run_bench_reads_raw_wall_from_detail_file(monkeypatch, tmp_path):
    module = _load()
    detail = tmp_path / "detail.json"
    detail.write_text(json.dumps({"pass_reports": [
        {"traced": False, "raw_wall_s": w} for w in (0.3, 0.1, 0.2)]
        + [{"traced": True, "raw_wall_s": 9.0}]}))
    done = SimpleNamespace(
        stdout=json.dumps(_fake_result("symmetric", 0.7)) + "\n",
        stderr=f"symmetric seed=1: 4 passes, 0/8 failed , detail {detail}\n")
    monkeypatch.setattr(module.subprocess, "run",
                        lambda cmd, **kwargs: done)
    result = module.run_bench(tmp_path, "symmetric", 1, 4, 0)
    assert result["metrics"]["wall_s"]["value"] == 0.7
    assert result["raw_wall_s"] == 0.2


def test_run_bench_lets_each_side_write_its_bytecode(monkeypatch,
                                                    tmp_path):
    # with PYTHONDONTWRITEBYTECODE passed on, a checkout that already
    # holds __pycache__ starts faster than one that cannot write it
    module = _load()
    detail = tmp_path / "detail.json"
    detail.write_text(json.dumps({"pass_reports": [
        {"traced": False, "raw_wall_s": 0.1}]}))
    done = SimpleNamespace(
        stdout=json.dumps(_fake_result("symmetric", 0.7)) + "\n",
        stderr=f"symmetric seed=1: 1 passes, 0/3 failed , detail {detail}\n")
    envs = []

    def run(cmd, **kwargs):
        envs.append(kwargs["env"])
        return done

    monkeypatch.setattr(module.subprocess, "run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    module.run_bench(tmp_path, "symmetric", 1, 4, 0)
    assert "PYTHONDONTWRITEBYTECODE" not in envs[0]
    assert envs[0]["BENCH_PAIRS_PROBE"] == "kept"


def test_rejects_a_single_pair_before_any_run(bench_pairs, tmp_path):
    # one pair has no quartiles: the script must stop before it runs
    # anything, not after every run has finished
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_checkouts(tmp_path)
                         + ["--pairs", "symmetric=3", "sparse_paving=1",
                            "--out", str(out)])
    assert exc.value.code == 2
    assert bench_pairs.calls == []
    assert not out.exists()


def test_rejects_paths_of_unequal_length_before_any_run(bench_pairs,
                                                        tmp_path):
    # peak RSS moves with the checkout path, and the output says the
    # two paths have equal length
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_checkouts(tmp_path, "pa", "change")
                         + ["--pairs", "symmetric=2", "--out", str(out)])
    assert exc.value.code == 2
    assert bench_pairs.calls == []
    assert not out.exists()


@pytest.mark.parametrize("missing", ["parent", "change"])
def test_rejects_a_side_without_a_commit_before_any_run(
        bench_pairs, monkeypatch, tmp_path, missing):
    # a record whose commit is null names no code; --change-commit
    # stands in for the change side only
    out = tmp_path / "out.json"
    absent = {"parent": "pa", "change": "ch"}[missing]
    monkeypatch.setattr(bench_pairs, "commit", lambda root: (
        None if root.name == absent else f"sha-{root.name}"))
    argv = _checkouts(tmp_path) + ["--pairs", "symmetric=2",
                                   "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert bench_pairs.calls == []
    assert not out.exists()
    if missing == "change":
        bench_pairs.main(argv + ["--change-commit", "abc123"])
        doc = json.loads(out.read_text())
        assert doc["change"]["commit"] == "abc123"


def test_commit_is_only_read_at_the_top_of_a_clean_checkout(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True,
                       capture_output=True)

    module = _load()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    assert module.commit(repo) == head
    # a copy inside the repository is not its top level
    (repo / "copy" / "src").mkdir(parents=True)
    assert module.commit(repo / "copy") is None
    # an untracked or an edited file under src/ is not HEAD's code
    (repo / "src" / "b.py").write_text("y = 2\n")
    assert module.commit(repo) is None
    (repo / "src" / "b.py").unlink()
    (repo / "src" / "a.py").write_text("x = 2\n")
    assert module.commit(repo) is None
    # a directory outside any repository has no commit
    (tmp_path / "bare").mkdir()
    assert module.commit(tmp_path / "bare") is None


# parent runs 1.00..1.09: median 1.045, quartiles 1.0225 and 1.0675
_PARENT = [1.0 + i / 100 for i in range(10)]


@pytest.mark.parametrize("change, met", [
    # lower in all 10, medians 0.945 against 1.045: a gap of 0.1 over
    # the parent's quartile distance 0.045
    ([p - 0.1 for p in _PARENT], True),
    # lower in 9 of 10, one pair slower
    ([p - 0.1 for p in _PARENT[:9]] + [2.0], True),
    # lower in 9, one tie: a tie counts for neither side
    ([p - 0.1 for p in _PARENT[:9]] + [_PARENT[9]], True),
    # lower in 8, two ties
    ([p - 0.1 for p in _PARENT[:8]] + _PARENT[8:], False),
    # lower in 8 of 10
    ([p - 0.1 for p in _PARENT[:8]] + [2.0, 2.0], False),
    # lower in all 10, but the medians differ by 0.03, inside the
    # parent's quartile distance
    ([p - 0.03 for p in _PARENT], False),
], ids=["all_lower", "nine_of_ten", "one_tie", "two_ties",
        "eight_of_ten", "gap_inside_spread"])
def test_claim_met_needs_nine_in_ten_and_a_gap_beyond_the_spread(
        change, met):
    module = _load()
    runs = [{"workload": "polymatroid_verify", "pair": pair, "side": side,
             "result": _fake_result("polymatroid_verify", value)}
            for pair, values in enumerate(zip(_PARENT, change), 1)
            for side, value in zip(("parent", "change"), values)]
    for row in module.summarize(runs, "polymatroid_verify", 1):
        assert row["claim_met"] is met


def test_claim_met_needs_ten_pairs():
    module = _load()
    parent = _PARENT[:9]
    assert not module.claim_met(9, parent, [p - 0.5 for p in parent])
    assert module.claim_met(10, _PARENT, [p - 0.5 for p in _PARENT])


@pytest.mark.parametrize("change, better, worse, regressed", [
    # higher in all 10, median 1.095 above the parent's upper quartile
    # 1.0675
    ([p + 0.05 for p in _PARENT], 0, 10, True),
    # higher in all 10, but the median 1.055 stays inside the quartiles
    ([p + 0.01 for p in _PARENT], 0, 10, False),
    # higher in 6, lower in 3, one tie, median 1.07
    ([p + 0.05 for p in _PARENT[:6]] + [p - 0.01 for p in _PARENT[6:9]]
     + _PARENT[9:], 3, 6, True),
], ids=["all_higher", "higher_inside_spread", "mixed_with_tie"])
def test_rows_count_worse_pairs_and_flag_a_rise(change, better, worse,
                                                regressed):
    # a rise in a metric no gain was claimed for shows in its row
    module = _load()
    runs = [{"workload": "uniform_scan", "pair": pair, "side": side,
             "result": _fake_result("uniform_scan", value)}
            for pair, values in enumerate(zip(_PARENT, change), 1)
            for side, value in zip(("parent", "change"), values)]
    for row in module.summarize(runs, "uniform_scan", 1):
        assert (row["change_better_in"], row["change_worse_in"],
                row["regressed"]) == (better, worse, regressed)
        assert not row["claim_met"]

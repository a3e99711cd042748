"""The example scripts under scripts/: one helper and a smoke run of each main()."""

import runpy
import sys
import warnings
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_snr_at_rate_interpolates_and_rejects_zero_rates():
    snr_at_rate = runpy.run_path(str(SCRIPTS / "near_ml_gap.py"))["snr_at_rate"]
    grid = [10.0, 12.0, 14.0]
    assert snr_at_rate(grid, [1e-1, 1e-3, 1e-4], 1e-2) == pytest.approx(11.0)
    assert snr_at_rate(grid, [1e-1, 1e-3, 1e-4], 1e-5) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # no errors at 12 dB: the crossing is not placed at 10 dB
        assert snr_at_rate(grid, [1e-1, 0.0, 0.0], 1e-2) is None
        assert snr_at_rate(grid, [0.2, 0.05, 0.0], 1e-1) == pytest.approx(11.0)


@pytest.mark.parametrize("script,args", [
    ("near_ml_gap.py", ["--trials", "200", "--threads", "1"]),
    ("quant_llr_sweep.py", ["--trials", "20"]),
    ("mu_classification.py", ["--scenarios", "5"]),
])
def test_script_main_runs(script, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_bench_pairs_summary_on_canned_runs():
    # the summary only: this test runs no benchmark
    ns = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    runs_a = [(100.0, 40.0), (110.0, 40.0), (120.0, 42.0), (130.0, 40.0), (140.0, 40.0)]
    runs_b = [(200.0, 41.0), (90.0, 40.0), (220.0, 41.0), (210.0, 40.5), (230.0, 40.5)]
    pairs = [
        tuple({"trials_per_s": rate, "peak_rss_mib": rss} for rate, rss in pair)
        for pair in zip(runs_a, runs_b)
    ]
    s = ns["summarize"](pairs, {"trials_per_s": "higher", "peak_rss_mib": "lower"})
    assert s["trials_per_s"]["a"] == (110.0, 120.0, 130.0)
    assert s["trials_per_s"]["b"] == (200.0, 210.0, 220.0)
    assert (s["trials_per_s"]["a_wins"], s["trials_per_s"]["b_wins"]) == (1, 4)
    # lower is better: A wins three pairs, B one, one tie
    assert s["peak_rss_mib"]["b"] == (40.5, 40.5, 41.0)
    rss = s["peak_rss_mib"]
    assert (rss["a_wins"], rss["b_wins"], rss["ties"]) == (3, 1, 1)
    text = ns["format_summary"](s, "parent", "change")
    assert "trials_per_s" in text and "change" in text and "ties: 1" in text


def test_bench_pairs_gain_rule_on_canned_runs():
    ns = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    a = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]

    def rule(b, better="higher"):
        pairs = [({"m": x}, {"m": y}) for x, y in zip(a, b)]
        return ns["summarize"](pairs, {"m": better})["m"]["gain"]

    assert rule([x + 10.0 for x in a])
    # 8 of 10 wins is short of 9/10, however large the gain
    assert not rule([x + 10.0 for x in a[:8]] + [x - 1.0 for x in a[8:]])
    assert rule([x + 10.0 for x in a[:9]] + [x - 1.0 for x in a[9:]])
    # every pair won, but by less than the parent's interquartile range (1.75)
    assert not rule([x + 1.5 for x in a])
    assert rule([x - 10.0 for x in a], better="lower")
    assert not rule([x + 10.0 for x in a], better="lower")
    s = ns["summarize"]([({"m": x}, {"m": x + 10.0}) for x in a], {"m": "higher"})
    text = ns["format_summary"](s, "parent", "change")
    assert "m: gain rule holds for change: won 10/10 pairs" in text


def test_bench_pairs_bound_rule_on_canned_runs():
    # a median worse than the parent's by more than the metric's bound is
    # flagged: a setup_s of 0.170 -> 0.228 s is +34% against a bound of 25%
    ns = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    setup_a = [0.160, 0.165, 0.170, 0.175, 0.180]
    setup_b = [0.218, 0.223, 0.228, 0.233, 0.238]
    rate_a = [100.0, 101.0, 102.0, 103.0, 104.0]
    better = {"setup_s": "lower", "trials_per_s": "higher", "peak_rss_mib": "lower"}
    bounds = {"setup_s": 0.25, "trials_per_s": 0.2}

    def summary(rate_b):
        pairs = [({"setup_s": sa, "trials_per_s": ra, "peak_rss_mib": 40.0},
                  {"setup_s": sb, "trials_per_s": rb, "peak_rss_mib": 40.0})
                 for sa, sb, ra, rb in zip(setup_a, setup_b, rate_a, rate_b)]
        return ns["summarize"](pairs, better, bounds)

    s = summary([x * 0.9 for x in rate_a])
    assert s["setup_s"]["over_bound"] and s["setup_s"]["bound"] == 0.25
    assert abs(s["setup_s"]["worse"] - 0.058 / 0.170) < 1e-12
    assert not s["trials_per_s"]["over_bound"]
    assert abs(s["trials_per_s"]["worse"] - 0.1) < 1e-12
    assert "bound" not in s["peak_rss_mib"]  # no bound, no verdict
    text = ns["format_summary"](s, "parent", "change")
    assert "setup_s: change median worse than the bound: worse by 34.1%" in text
    assert "trials_per_s: change median within the bound: worse by 10.0%" in text
    assert "peak_rss_mib: change median" not in text
    # a 25% fall in trials/s breaks its 20% bound; a gain reads as negative
    assert summary([x * 0.75 for x in rate_a])["trials_per_s"]["over_bound"]
    s = summary([x * 1.5 for x in rate_a])
    assert not s["trials_per_s"]["over_bound"] and abs(s["trials_per_s"]["worse"] + 0.5) < 1e-12
    text = ns["format_summary"](s, "parent", "change")
    assert "trials_per_s: change median within the bound: better by 50.0%" in text
    # without bounds the summary has no bound entries
    assert "bound" not in ns["summarize"]([({"m": 1.0}, {"m": 2.0})], {"m": "lower"})["m"]


@pytest.mark.parametrize("bad", [None, {"correct": False}, {"failed": 2}])
def test_bench_pairs_exits_nonzero_when_a_run_fails_its_checks(bad, monkeypatch, capsys):
    import shutil

    ns = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    main = ns["main"]
    calls = []

    def export(rev, dest):
        dest.mkdir(parents=True)
        shutil.copy(SCRIPTS.parent / "BENCHMARK.json", dest)

    def run(root, workload, seed, seconds):
        calls.append(root.name)
        res = {"correct": True, "failed": 0,
               "metrics": {"trials_per_s": {"value": 100.0 + len(calls)},
                           "setup_s": {"value": 0.2}, "peak_rss_mib": {"value": 40.0}}}
        if bad is not None and len(calls) == 3:
            res.update(bad)
        return res

    monkeypatch.setitem(main.__globals__, "_export", export)
    monkeypatch.setitem(main.__globals__, "_run", run)
    code = main(["A", "B", "--workload", "w", "--pairs", "2", "--seconds", "1"])
    out = capsys.readouterr()
    assert calls == ["a", "b", "b", "a"]  # alternating order
    assert "gain rule" in out.out
    assert "trials_per_s: B median within the bound" in out.out  # bounds from BENCHMARK.json
    if bad is None:
        assert code == 0 and "CHECK FAILED" not in out.out
    else:
        assert code == 1 and out.out.count("CHECK FAILED") == 1
        assert "1 of 4 runs failed their checks" in out.err


@pytest.mark.parametrize("workload", ["all", "sweep_wld_4x4_16qam,mu_classify_k24"])
def test_bench_pairs_runs_every_listed_workload_from_one_export(workload, monkeypatch, capsys):
    import json
    import shutil

    ns = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    main = ns["main"]
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]] if workload == "all"
             else workload.split(","))
    exports, calls = [], []

    def export(rev, dest):
        exports.append(rev)
        dest.mkdir(parents=True)
        shutil.copy(SCRIPTS.parent / "BENCHMARK.json", dest)

    def run(root, name, seed, seconds):
        calls.append((name, root.name, seed))
        # one run of the last workload fails its checks
        bad = name == names[-1] and seed == 2 and root.name == "b"
        return {"correct": not bad, "failed": 0,
                "metrics": {"trials_per_s": {"value": 100.0 + len(calls)},
                            "setup_s": {"value": 0.2}, "peak_rss_mib": {"value": 40.0}}}

    monkeypatch.setitem(main.__globals__, "_export", export)
    monkeypatch.setitem(main.__globals__, "_run", run)
    code = main(["A", "B", "--workload", workload, "--pairs", "2", "--seconds", "1"])
    out = capsys.readouterr()
    assert exports == ["A", "B"]  # each revision exported once
    assert calls == [(name, side, seed) for name in names
                     for seed, order in ((1, "ab"), (2, "ba")) for side in order]
    # every workload gets its own summary, gain and bound lines
    for name in names:
        block = out.out.split(f"== {name}\n")[1].split("== ")[0]
        assert "gain rule" in block and "trials_per_s: B median" in block
    assert out.out.count("gain rule holds") + out.out.count("gain rule does not hold") \
        == 3 * len(names)
    assert code == 1 and out.out.count("CHECK FAILED") == 1
    assert f"1 of {4 * len(names)} runs failed their checks" in out.err

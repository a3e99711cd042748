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

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

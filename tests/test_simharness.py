import dataclasses
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mimodet import (
    ConfigError,
    FixedPointFormat,
    ShadowOracleMismatch,
    SingularChannelError,
    make_constellation,
)
from mimodet.cli import main as cli_main
from mimodet.cli import _parse_snr_grid
from mimodet.mumimo import MuScenario, classify_interferer
from mimodet.rng import CONTEXT_MUMIMO, CONTEXT_SWEEP, trial_rng
from mimodet.simharness import (
    SimConfig,
    _draw_sweep_chunk,
    _sigma2,
    draw_uncoded_chunk,
    generate_channel,
    llr_fidelity,
    mu_classification_rates,
    run_sweep,
    uncoded_ver_point,
)
from mimodet.detect import detect_batch, detect_instance, wld_hard_batch
from mimodet.oracle import exhaustive_map, ml_hard_batch
from mimodet.llrpost import combine_lists
from mimodet.detcore import (
    detect_one_sided,
    detect_one_sided_batch,
    rescore_batch,
    rescore_candidates,
)
from mimodet.decomp import (
    punctured_decompose,
    punctured_decompose_batch,
    transform_observation,
    transform_observation_batch,
)
from mimodet.hwmodel import quantize
from mimodet.llrpost import best_candidates, partition_minima


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


# --- rng / channel ----------------------------------------------------------

def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(42, 1, 7).standard_normal(4)
    b = trial_rng(42, 1, 7).standard_normal(4)
    c = trial_rng(42, 1, 8).standard_normal(4)
    d = trial_rng(42, 2, 7).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        trial_rng(0, 1 << 16, 0)


def test_generate_channel_determinism_and_stats():
    h1 = generate_channel(trial_rng(1, 0, 0), (4, 4))
    h2 = generate_channel(trial_rng(1, 0, 0), (4, 4))
    assert np.array_equal(h1, h2)
    h3 = generate_channel(trial_rng(1, 0, 1), (4, 4))
    assert not np.array_equal(h1, h3)
    draws = generate_channel(trial_rng(2, 0, 0), (300, 300))
    var = np.mean(np.abs(draws) ** 2)
    assert abs(var - 1.0) < 0.02


# --- config validation -------------------------------------------------------

def test_config_validation():
    good = SimConfig(n_layers=2, mods=(16, 16), snr_db=(10.0,), trials=10)
    good.validate()
    bad = [
        dict(n_layers=5, mods=(4,) * 5),
        dict(mods=(16,)),
        dict(mods=(8, 8)),
        dict(trials=0),
        dict(snr_db=()),
        dict(snr_db=(10.0, float("nan"))),
        dict(snr_db=(float("inf"),)),
        dict(detector="zf"),
        dict(detector="map2", n_layers=3, mods=(4, 4, 4)),
        dict(distance_mode="H"),
        dict(priors_mode="random"),
        dict(priors_mode="random", priors_sigma=float("nan")),
        dict(priors_mode="random", priors_sigma=float("inf")),
        dict(threads=0),
        dict(detector="wld", shadow_oracle=True),
        dict(shadow_oracle=True, quant=FixedPointFormat(9, 8)),
    ]
    base = dict(n_layers=2, mods=(16, 16), snr_db=(10.0,), trials=10)
    for overrides in bad:
        cfg = SimConfig(**{**base, **overrides})
        with pytest.raises(ConfigError):
            cfg.validate()


# --- sweeps ------------------------------------------------------------------

def test_sweep_thread_count_does_not_change_csv(tmp_path, monkeypatch):
    import mimodet.simharness as sh

    calls = []
    real = sh.detect_batch

    def counted(h, *args, **kwargs):
        calls.append(len(h))
        return real(h, *args, **kwargs)

    monkeypatch.setattr(sh, "detect_batch", counted)
    configs = [
        dict(n_layers=2, mods=(16, 16), snr_db=(8.0, 12.0), trials=150,
             detector="map2", master_seed=5),
        # 16-QAM calls hold up to 256 trials: 300 trials at two points take 3 calls
        dict(n_layers=4, mods=(16,) * 4, snr_db=(14.0, 18.0), trials=300,
             detector="wld", distance_mode="H", master_seed=5),
    ]
    for k, kwargs in enumerate(configs):
        paths = []
        for threads in (1, 8):
            calls.clear()
            path = tmp_path / f"c{k}t{threads}.csv"
            run_sweep(SimConfig(out_path=str(path), threads=threads, **kwargs))
            paths.append(path.read_bytes())
            if kwargs["detector"] == "wld":
                assert sorted(calls) == [108, 236, 256]
        assert paths[0] == paths[1]


def test_sweep_csv_schema(tmp_path):
    path = tmp_path / "out.csv"
    cfg = SimConfig(
        n_layers=2, mods=(4, 16), snr_db=(10.0,), trials=20,
        detector="map2", master_seed=3, out_path=str(path),
    )
    run_sweep(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_db,trials,ser,ber,llr_mae,llr_max,detector,distance_mode,n_layers,mods,seed"
    row = lines[1].split(",")
    assert row[6] == "map2" and row[9] == "4x16" and row[10] == "3"


def test_sweep_high_snr_is_error_free():
    cfg = SimConfig(
        n_layers=2, mods=(16, 16), snr_db=(200.0,), trials=1000,
        detector="map2", master_seed=11,
    )
    st = run_sweep(cfg)[0]
    assert st.ser == 0.0 and st.ber == 0.0 and st.vector_errors == 0


def test_map2_equals_oracle_detector_trialwise():
    base = dict(n_layers=2, mods=(16, 16), snr_db=(6.0,), trials=150, master_seed=21)
    st_map = run_sweep(SimConfig(detector="map2", **base))[0]
    st_ora = run_sweep(SimConfig(detector="oracle", **base))[0]
    assert (st_map.symbol_errors, st_map.bit_errors) == (st_ora.symbol_errors, st_ora.bit_errors)


def test_shadow_oracle_runs_clean_with_priors():
    cfg = SimConfig(
        n_layers=2, mods=(16, 16), snr_db=(10.0,), trials=100, detector="map2",
        priors_mode="random", priors_sigma=2.0, master_seed=17, shadow_oracle=True,
    )
    st = run_sweep(cfg)[0]
    assert st.llr_max <= 1e-8


def test_wld_sweep_with_shadow_lower_bound():
    cfg = SimConfig(
        n_layers=3, mods=(4, 4, 4), snr_db=(10.0,), trials=80, detector="wld",
        distance_mode="H", master_seed=23, shadow_oracle=True,
    )
    run_sweep(cfg)


def test_quantized_sweep_runs():
    cfg = SimConfig(
        n_layers=2, mods=(64, 64), snr_db=(14.0,), trials=30, detector="map2",
        quant=FixedPointFormat(9, 8), master_seed=29,
    )
    st = run_sweep(cfg)[0]
    assert 0 <= st.ser <= 1


# --- llr fidelity ------------------------------------------------------------

def test_llr_fidelity_unquantized_is_exact():
    cfg = SimConfig(
        n_layers=2, mods=(64, 64), snr_db=(14.0,), trials=60, detector="map2",
        master_seed=31,
    )
    pt = llr_fidelity(cfg)[0]
    assert pt.llr_max <= 1e-9


def test_llr_fidelity_thread_count_does_not_change_output():
    cfg = dict(n_layers=2, mods=(16, 16), snr_db=(10.0, 14.0, 18.0), trials=100,
               detector="map2", priors_mode="random", priors_sigma=1.0, master_seed=8,
               quant=FixedPointFormat(9, 6))
    assert llr_fidelity(SimConfig(threads=1, **cfg)) == llr_fidelity(SimConfig(threads=2, **cfg))


def test_llr_fidelity_degrades_with_coarse_quantization():
    base = dict(n_layers=2, mods=(64, 64), snr_db=(14.0,), trials=60,
                detector="map2", master_seed=31)
    fine = llr_fidelity(SimConfig(quant=FixedPointFormat(9, 9), **base))[0]
    coarse = llr_fidelity(SimConfig(quant=FixedPointFormat(9, 4), **base))[0]
    assert coarse.llr_mae > fine.llr_mae > 0


def test_llr_fidelity_wide_format_measurement():
    # measurement only: a wide (12.10) format leaves a small format-bound
    # deviation; recorded for reference, no threshold claimed
    cfg = SimConfig(n_layers=2, mods=(64, 64), snr_db=(14.0,), trials=60,
                    detector="map2", master_seed=31, quant=FixedPointFormat(12, 10))
    pt = llr_fidelity(cfg)[0]
    assert np.isfinite(pt.llr_mae) and np.isfinite(pt.llr_max)
    print(f"(12.10) llr_mae={pt.llr_mae:.3g} llr_max={pt.llr_max:.3g}")


# --- batched experiment paths -------------------------------------------------

def test_batch_detectors_match_library_path():
    cons = tuple(make_constellation(q) for q in (16, 16, 16, 16))
    h, x, y = draw_uncoded_chunk(77, 0, 0, 14.0, cons, 60)
    hard_wld = wld_hard_batch(h, y, cons)
    hard_ml = ml_hard_batch(h, y, cons)
    for t in range(60):
        lists = []
        for m in range(4):
            d = punctured_decompose(h[t], m)
            cl = detect_one_sided(d, transform_observation(d, y[t]), cons)
            lists.append(rescore_candidates(cl, h[t], y[t], cons))
        res = combine_lists(lists, cons)
        assert np.array_equal(res.hard, hard_wld[t])
        ora = exhaustive_map(h[t], y[t], cons)
        assert np.array_equal(ora.hard, hard_ml[t])
    # ML on more shapes; the low-SNR points are where the search prunes least
    ml_cases = [
        ((4,) * 4, 0.0), ((4,) * 4, 16.0), ((16,) * 4, 10.0), ((16,) * 4, 22.0),
        ((4, 16, 64), 12.0), ((16, 64), 12.0), ((2, 4, 16), 8.0),
    ]
    for k, (mods, snr) in enumerate(ml_cases):
        cons = tuple(make_constellation(q) for q in mods)
        h, x, y = draw_uncoded_chunk(80 + k, 0, 0, snr, cons, 24)
        hard_ml = ml_hard_batch(h, y, cons)
        for t in range(len(h)):
            assert np.array_equal(exhaustive_map(h[t], y[t], cons).hard, hard_ml[t]), (mods, snr, t)
    # exact ties: midpoints on layer 0 (several minimisers) and on the sliced last layer
    cons = (make_constellation(16),) * 4
    ys = np.array([[y0, 1 + 1j, 3 - 1j, 0] for y0 in (0, 2, 2 + 2j, -2j)])
    hs = np.broadcast_to(np.eye(4, dtype=complex), (len(ys), 4, 4))
    hard_ml = ml_hard_batch(hs, ys, cons)
    for t in range(len(ys)):
        assert np.array_equal(exhaustive_map(hs[t], ys[t], cons).hard, hard_ml[t]), ys[t]


@pytest.mark.parametrize("snr,limit_mib", [(16.0, 40.0), (0.0, 112.7)])
def test_ml_batch_peak_memory(snr, limit_mib):
    # 112.7 MiB is the peak of this call when every one of the 16^3 prefixes is scored
    cons = (make_constellation(16),) * 4
    h, _, y = draw_uncoded_chunk(5, 0, 0, snr, cons, 256)
    tracemalloc.start()
    try:
        ml_hard_batch(h, y, cons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_ml_batch_rejects_a_singular_channel_in_the_stack():
    cons = (make_constellation(16),) * 4
    h, _, y = draw_uncoded_chunk(3, 0, 0, 16.0, cons, 4)
    h[1] = np.ones((4, 4))
    with pytest.raises(SingularChannelError):
        ml_hard_batch(h, y, cons)


def test_ml_batch_beats_or_matches_wld():
    rates = uncoded_ver_point(13, 0, 12.0, (4, 4, 4, 4), 4000)
    assert 0 < rates["ml"] <= rates["wld"] < 0.2


def test_draw_uncoded_chunk_deterministic():
    cons = (make_constellation(4),) * 2
    a = draw_uncoded_chunk(9, 1, 2, 10.0, cons, 16)
    b = draw_uncoded_chunk(9, 1, 2, 10.0, cons, 16)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_mu_classification_rates_trend():
    rates = mu_classification_rates(3, 12, 16, 16, (0.0, 30.0), 60)
    assert rates[1] >= rates[0]
    assert rates[1] >= 0.9


_VER_ARGS = dict(master_seed=0, snr_idx=0, snr_db=10.0, mods=(4,) * 4, trials=8)
_MU_ARGS = dict(master_seed=0, n_tones=4, desired_order=16, interferer_order=16,
                snr_db_grid=(10.0,), scenarios=4)


@pytest.mark.parametrize("call,args,bad,name", [
    (uncoded_ver_point, _VER_ARGS, dict(trials=0), "trials"),
    (uncoded_ver_point, _VER_ARGS, dict(snr_db=float("nan")), "snr_db"),
    (uncoded_ver_point, _VER_ARGS, dict(threads=0), "threads"),
    (mu_classification_rates, _MU_ARGS, dict(n_tones=0), "n_tones"),
    (mu_classification_rates, _MU_ARGS, dict(scenarios=0), "scenarios"),
    (mu_classification_rates, _MU_ARGS, dict(snr_db_grid=()), "snr_db_grid"),
    (mu_classification_rates, _MU_ARGS, dict(snr_db_grid=(10.0, float("inf"))), "snr_db_grid"),
    (mu_classification_rates, _MU_ARGS, dict(threads=0), "threads"),
    (mu_classification_rates, _MU_ARGS, dict(interferer_order=2), "interferer_order"),
    (mu_classification_rates, _MU_ARGS, dict(desired_order=8), "desired_order"),
])
def test_batch_experiments_reject_bad_input_naming_the_parameter(call, args, bad, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call(**{**args, **bad})


def per_window_mu_rates(master_seed, n_tones, desired, interferer, grid, scenarios):
    """Reference rates: one scenario draw and one classify_interferer per (scenario, SNR) window."""
    des, intf = make_constellation(desired), make_constellation(interferer)
    correct = np.zeros(len(grid), dtype=int)
    for i in range(scenarios):
        rng = trial_rng(master_seed, 0, i, CONTEXT_MUMIMO)
        re = rng.standard_normal((n_tones, 2, 2))
        im = rng.standard_normal((n_tones, 2, 2))
        h = (re + 1j * im) * np.sqrt(0.5)
        x1 = des.points[rng.integers(des.order, size=n_tones)] * des.unit_energy_scale
        x2 = intf.points[rng.integers(intf.order, size=n_tones)] * intf.unit_energy_scale
        base = np.sqrt(0.5) * (
            rng.standard_normal((n_tones, 2)) + 1j * rng.standard_normal((n_tones, 2))
        )
        signal = h[:, :, 0] * x1[:, None] + h[:, :, 1] * x2[:, None]
        for s_idx, snr_db in enumerate(grid):
            sigma2 = 2.0 / 10.0 ** (snr_db / 10.0)
            scn = MuScenario.create(h, signal + np.sqrt(sigma2) * base, des, sigma2)
            correct[s_idx] += int(classify_interferer(scn).chosen.order == interferer)
    return [c / scenarios for c in correct]


@pytest.mark.parametrize("interferer", [16, 64])
def test_batched_mu_rates_equal_per_window_classification(interferer):
    # 70 scenarios span two 64-scenario chunks; the first chunk's 1152 rows per
    # hypothesis go out in 256-row calls that straddle windows
    args = (31, 6, 16, interferer, (0.0, 6.0, 12.0), 70)
    want = per_window_mu_rates(*args)
    assert 0 < sum(want) < len(want)  # some windows are misclassified
    assert mu_classification_rates(*args) == want
    assert mu_classification_rates(*args, threads=2) == want


def test_mu_rates_name_the_scenario_whose_desired_column_vanishes(monkeypatch, capsys):
    import mimodet.simharness as sh

    real = sh._draw_mu_chunk

    def dead_column(master_seed, bounds, *args):
        h, signal, base = real(master_seed, bounds, *args)
        if bounds[0] <= 66 < bounds[1]:
            h[66 - bounds[0], 5, :, 0] = 0
        return h, signal, base

    monkeypatch.setattr(sh, "_draw_mu_chunk", dead_column)
    with pytest.raises(SingularChannelError, match="scenario 66, tone 5"):
        mu_classification_rates(4, 8, 16, 16, (10.0,), 70)
    code = cli_main(["mumimo", "--k", "8", "--desired", "16", "--interferer", "16",
                     "--snr", "10", "--trials", "70", "--seed", "4"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("channel error:") and len(err.strip().splitlines()) == 1, err
    assert "scenario 66, tone 5" in err


# --- package -------------------------------------------------------------------

def test_every_export_resolves():
    import importlib
    import inspect
    import pkgutil

    import mimodet

    exported = set()
    for info in pkgutil.iter_modules(mimodet.__path__):
        module = importlib.import_module(f"mimodet.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for n in names:
            assert hasattr(module, n), f"mimodet.{info.name}.{n}"
        exported.update(names)
    # the package re-exports only names that its modules export
    for n, obj in vars(mimodet).items():
        if not n.startswith("_") and not inspect.ismodule(obj):
            assert n in exported, f"mimodet.{n}"


_IMPORT_FIRST = """
import importlib, pkgutil, sys, types
sys.path.insert(0, sys.argv[1])
import mimodet
path = list(mimodet.__path__)
for info in pkgutil.iter_modules(path):
    for key in [k for k in sys.modules if k == "mimodet" or k.startswith("mimodet.")]:
        del sys.modules[key]
    # a bare parent package: the real __init__ would import the modules in its own order
    parent = types.ModuleType("mimodet")
    parent.__path__ = path
    sys.modules["mimodet"] = parent
    importlib.import_module(f"mimodet.{info.name}")
"""


def test_every_module_imports_before_any_other():
    # an import cycle shows only when a module on it is imported first
    import os

    import mimodet

    src = os.path.dirname(os.path.dirname(os.path.abspath(mimodet.__file__)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FIRST, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- CLI ----------------------------------------------------------------------

def test_cli_sweep_and_default_subcommand(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = cli_main([
        "--layers", "2", "--mods", "16,16", "--snr", "8:4:12", "--trials", "40",
        "--detector", "map2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "snr=8" in text and "snr=12" in text


def test_cli_exit_code_on_config_error(capsys):
    for argv in [
        ["--layers", "3", "--mods", "4,4,4", "--detector", "map2"],
        ["--layers", "2", "--mods", "9,9"],
        ["--snr", "10:0:20"],
        ["--mods", "4,4", "--trials", "5", "--snr", "nan"],
        ["--mods", "4,4", "--trials", "5", "--snr", "0:1:inf"],
        ["--mods", "4,4", "--trials", "5", "--priors", "random:nan"],
        ["--mods", "4,4", "--trials", "5", "--priors", "random:inf"],
        ["--layers", "4", "--mods", "4,4,4,4", "--detector", "wld", "--trials", "5",
         "--snr", "nan"],
        ["mumimo", "--k", "2", "--trials", "2", "--interferer", "4", "--snr", "nan"],
        ["mumimo", "--k", "2", "--trials", "2", "--interferer", "4", "--threads", "0"],
        ["mumimo", "--k", "2", "--trials", "2", "--interferer", "4", "--threads", "-1"],
    ]:
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    # mumimo names the flag that was given, not the library parameter behind it
    for argv, flag in [
        (["mumimo", "--k", "0", "--trials", "2", "--interferer", "4"], "--k"),
        (["mumimo", "--k", "2", "--trials", "0", "--interferer", "4"], "--trials"),
        (["mumimo", "--k", "2", "--trials", "2", "--interferer", "4", "--threads", "0"],
         "--threads"),
        (["mumimo", "--k", "2", "--trials", "2", "--interferer", "4,2"], "--interferer"),
        (["mumimo", "--k", "2", "--trials", "2", "--desired", "8", "--interferer", "4"],
         "--desired"),
    ]:
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must") and len(err.strip().splitlines()) == 1, err


@pytest.mark.parametrize("argv", [
    ["--mods", "4,4", "--trials", "5"],
    ["mumimo", "--k", "2", "--trials", "2", "--interferer", "4", "--snr", "10"],
])
def test_cli_unwritable_out_fails_before_any_trial(argv, tmp_path, monkeypatch, capsys):
    import mimodet.cli as cli
    import mimodet.simharness as sh

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(sh, "detect_batch", no_trials)
    monkeypatch.setattr(cli, "mu_classification_rates", no_trials)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli_main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_cli_tables(capsys):
    assert cli_main(["tables"]) == 0
    text = capsys.readouterr().out
    assert "914" in text and "49" in text
    assert "QAM256" in text


def test_cli_mumimo(tmp_path, capsys):
    out = tmp_path / "mu.csv"
    code = cli_main([
        "mumimo", "--k", "8", "--desired", "16", "--interferer", "16",
        "--snr", "30", "--trials", "30", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("snr_db,k,desired,interferer")
    assert len(lines) == 2
    capsys.readouterr()


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "mimodet.cli", "tables"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "914" in proc.stdout


def test_cli_exit_code_on_shadow_mismatch(monkeypatch, capsys):
    import dataclasses

    import mimodet.detect as det

    real = det.exhaustive_map

    def skewed_oracle(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, llr=tuple(lam + 1.0 for lam in res.llr))

    monkeypatch.setattr(det, "exhaustive_map", skewed_oracle)
    code = cli_main([
        "--layers", "2", "--mods", "4,4", "--snr", "10", "--trials", "5",
        "--detector", "map2", "--shadow-oracle",
    ])
    assert code == 3
    assert "shadow-oracle mismatch" in capsys.readouterr().err
    # the record names the (seed, snr_idx, trial) key that replays the trial
    def low_oracle(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, dmin=res.dmin + 10.0)

    for detector, distance_mode, oracle in (("map2", "L", skewed_oracle), ("wld", "H", low_oracle)):
        monkeypatch.setattr(det, "exhaustive_map", oracle)
        cfg = SimConfig(
            n_layers=2, mods=(4, 4), snr_db=(10.0, 12.0), trials=3, detector=detector,
            distance_mode=distance_mode, master_seed=4, shadow_oracle=True,
        )
        with pytest.raises(ShadowOracleMismatch) as info:
            run_sweep(cfg)
        record = info.value.record
        assert (record["seed"], record["snr_idx"], record["trial"]) == (4, 0, 0)


def test_cli_exit_code_on_degenerate_channel(monkeypatch, capsys):
    import mimodet.simharness as sh

    monkeypatch.setattr(sh, "generate_channel", lambda rng, shape: np.ones(shape, dtype=complex))
    code = cli_main([
        "--layers", "2", "--mods", "4,4", "--snr", "10", "--trials", "5", "--detector", "map2",
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("channel error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", ["map2_priors", "wld_h"])
def test_chunk_rows_equal_detect_instance(case):
    # the sweep's batched chunk gives every trial exactly its T=1 result
    cfg = {
        "map2_priors": SimConfig(
            n_layers=2, mods=(64, 16), snr_db=(12.0,), trials=40, detector="map2",
            priors_mode="random", priors_sigma=1.5, master_seed=3,
        ),
        "wld_h": SimConfig(
            n_layers=4, mods=(16, 4, 16, 4), snr_db=(14.0,), trials=40, detector="wld",
            distance_mode="H", master_seed=3,
        ),
    }[case]
    cons = tuple(make_constellation(q) for q in cfg.mods)
    scales = np.array([c.unit_energy_scale for c in cons])
    h, tx, y, priors = _draw_sweep_chunk(cfg, cons, scales, 0, cfg.snr_db[0], (0, cfg.trials))
    res = detect_batch(h, y, cons, priors, detector=cfg.detector,
                       distance_mode=cfg.distance_mode)
    for t in range(cfg.trials):
        one = detect_instance(h[t], y[t], cons, None if priors is None else [p[t] for p in priors],
                              detector=cfg.detector, distance_mode=cfg.distance_mode)
        row = res.row(t)
        assert np.array_equal(row.hard, one.hard)
        assert np.array_equal(row.hard_index, one.hard_index)
        assert row.dmin == one.dmin
        for a, b in zip(row.llr, one.llr):
            assert np.array_equal(a, b)
        assert np.array_equal(cons[0].points[one.hard_index[0]], one.hard[0])


def _trial_rng_draws(cfg, cons, scales, snr_idx, snr_db, bounds):
    """Sweep draws made the plain way: a new trial_rng per trial, one trial at a time."""
    n = cfg.n_layers
    sigma2 = _sigma2(snr_db, n)
    hs, txs, ys, lams = [], [], [], []
    for trial in range(*bounds):
        rng = trial_rng(cfg.master_seed, snr_idx, trial, CONTEXT_SWEEP)
        h = generate_channel(rng, (n, n)) * scales[None, :]
        idx = [int(rng.integers(c.order)) for c in cons]
        x = np.array([c.points[i] for c, i in zip(cons, idx)])
        noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        hs.append(h)
        txs.append(idx)
        ys.append(h @ x + noise)
        if cfg.priors_mode == "random":
            lams.append([rng.normal(0.0, cfg.priors_sigma, c.bits_per_symbol) for c in cons])
    priors = [np.stack(lam) for lam in zip(*lams)] if lams else None
    return np.stack(hs), np.array(txs), np.stack(ys), priors


@pytest.mark.parametrize("kwargs,snr_idx,bounds", [
    (dict(n_layers=2, mods=(256, 64), priors_mode="random", priors_sigma=0.5,
          master_seed=3), 0, (0, 70)),
    (dict(n_layers=3, mods=(4, 16, 64), master_seed=2**64 + 9), 65535, (40, 130)),
    (dict(n_layers=4, mods=(16, 2, 4, 16), priors_mode="random", priors_sigma=2.0,
          master_seed=2**70 - 1), 1, (2**32 - 3, 2**32)),
])
def test_rekeyed_draws_equal_trial_rng_draws(kwargs, snr_idx, bounds):
    # key edges: trial 0 and 2**32-1, snr_idx 65535, master seeds at and above 2**64
    cfg = SimConfig(snr_db=(9.0,), trials=1, **kwargs)
    cons = tuple(make_constellation(q) for q in cfg.mods)
    scales = np.array([c.unit_energy_scale for c in cons])
    got = _draw_sweep_chunk(cfg, cons, scales, snr_idx, 9.0, bounds)
    want = _trial_rng_draws(cfg, cons, scales, snr_idx, 9.0, bounds)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    if want[3] is None:
        assert got[3] is None
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got[3], want[3]))


@pytest.mark.parametrize("kwargs", [
    dict(n_layers=2, mods=(16, 16), detector="map2", priors_mode="random", priors_sigma=1.5,
         shadow_oracle=True),
    dict(n_layers=4, mods=(16, 4, 16, 4), detector="wld", distance_mode="H"),
])
def test_sweep_rows_do_not_depend_on_call_grouping(kwargs, monkeypatch):
    # calls that span SNR points give every point the rows of chunk-by-chunk detection
    import mimodet.detect as det
    import mimodet.simharness as sh

    cfg = SimConfig(snr_db=(6.0, 10.0, 14.0), trials=150, master_seed=12, **kwargs)
    calls = []
    real = sh.detect_batch

    def counted(h, *args, **kwargs):
        calls.append(len(h))
        return real(h, *args, **kwargs)

    monkeypatch.setattr(sh, "detect_batch", counted)
    grouped = run_sweep(cfg)
    assert max(calls) > cfg.trials  # some call spans two SNR points
    calls.clear()
    monkeypatch.setattr(sh, "BATCH_CELLS", 0)  # one chunk per call
    monkeypatch.setattr(det, "BATCH_CELLS", 0)  # and one side per kernel call
    chunked = run_sweep(cfg)
    assert max(calls) == 64
    assert repr(grouped) == repr(chunked)  # repr: llr_mae is nan without the oracle
    first = run_sweep(dataclasses.replace(cfg, snr_db=cfg.snr_db[:1]))
    assert repr(first) == repr(grouped[:1])


def _per_side_batches(h, y, cons, priors, sides, rescore, quant):
    """Reference: one decomposition, transform, detection and rescoring call per side."""
    def q(v):
        return quantize(v, quant) if quant is not None else v

    if priors is not None:
        priors = [q(np.asarray(lam, dtype=float)) for lam in priors]
    n = len(cons)
    out = []
    for m in range(sides):
        w, l = punctured_decompose_batch(h, [m])
        yt = transform_observation_batch(w, y)
        perm = tuple((m + i) % n for i in range(n))
        cand = detect_one_sided_batch(q(l), q(yt), cons, [perm], priors).sides()[0]
        if rescore:
            cand = rescore_batch(cand, q(h), q(y), cons)
        if quant is not None:
            cand = cand._replace(distances=quantize(cand.distances, quant))
        out.append(cand)
    return out


def _per_list_llrs(batches, cons):
    """Reference: each layer's LLRs as minima over one partition_minima call per list."""
    llrs = []
    for layer, c in enumerate(cons):
        pos = neg = np.inf
        for cand in batches:
            p, m = partition_minima(cand.distances, c.point_bits[cand.index[:, :, layer]])
            pos, neg = np.minimum(pos, p), np.minimum(neg, m)
        llrs.append(pos - neg)
    return llrs


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mods,t,detector,mode,priors,quant,calls", [
    ((256, 256), 16, "map2", "L", "all", None, [[0], [1]]),  # 4096 cells: one side per call
    ((256, 256), 4, "map2", "L", "all", None, [[0, 1]]),
    ((16,) * 4, 24, "wld", "H", None, None, [[0, 1, 2, 3]]),
    ((16,) * 4, 100, "wld", "H", None, None, [[0, 1], [2, 3]]),  # split by the cap
    ((4, 16, 64), 20, "wld", "H", None, None, [[0], [1], [2]]),
    ((16, 4, 16, 4), 12, "wld", "L", "all", FixedPointFormat(5, 6), [[0, 2], [1, 3]]),
])
def test_stacked_sides_equal_per_side_calls(mods, t, detector, mode, priors, quant, calls):
    import mimodet.detect as det

    rng = np.random.default_rng(sum(mods) + t)
    cons = tuple(make_constellation(q) for q in mods)
    n = len(mods)
    h = crandn(rng, t, n, n) * np.array([c.unit_energy_scale for c in cons])
    y = 2.0 * crandn(rng, t, n)
    lam = None
    if priors is not None:
        lam = [rng.normal(0.0, 1.5, (t, c.bits_per_symbol)) for c in cons]
    sides = 2 if detector == "map2" else n
    rescore = mode == "H"
    assert det._side_calls(cons, sides, t) == calls
    got = det._candidate_batches(h, y, cons, lam, sides, rescore, quant)
    want = _per_side_batches(h, y, cons, lam, sides, rescore, quant)
    for a, b in zip(got, want, strict=True):
        assert (a.layer, a.distance_mode) == (b.layer, b.distance_mode)
        for name in ("distances", "prior_bias", "index"):
            assert _same_bytes(getattr(a, name), getattr(b, name)), name
    res = detect_batch(h, y, cons, lam, detector, mode, quant)
    hard, dmin, hard_index = best_candidates(want, cons)
    assert _same_bytes(res.hard, hard) and _same_bytes(res.dmin, dmin)
    assert _same_bytes(res.hard_index, hard_index)
    own = [[b] for b in want] if detector == "map2" else [want] * n
    for i, llr in enumerate(res.llr):
        assert _same_bytes(llr, _per_list_llrs(own[i], cons)[i]), i


def test_a_none_prior_entry_is_rejected():
    # priors are None or one array per layer; a None entry is not a zero prior
    import mimodet.detect as det

    rng = np.random.default_rng(3)
    cons = tuple(make_constellation(q) for q in (4, 16, 4, 16))
    h = crandn(rng, 5, 4, 4)
    y = crandn(rng, 5, 4)
    lam = [rng.normal(0.0, 1.5, (5, c.bits_per_symbol)) for c in cons]
    lam[1] = None
    with pytest.raises(ValueError, match="layer 1"):
        det._candidate_batches(h, y, cons, lam, 4, True, None)
    with pytest.raises(ValueError, match="layer 1"):
        detect_batch(h, y, cons, lam, "wld", "H")
    one = [None if p is None else p[0] for p in lam]
    for detector, mode in (("wld", "H"), ("oracle", "L")):
        with pytest.raises(ValueError):
            detect_instance(h[0], y[0], cons, one, detector, mode)
    with pytest.raises(ValueError):
        exhaustive_map(h[0], y[0], cons, one)
    d = punctured_decompose(h[0], 0)
    with pytest.raises(ValueError, match="layer 1"):
        detect_one_sided(d, transform_observation(d, y[0]), cons, one)


@pytest.mark.parametrize("detector", ["map2", "wld", "oracle"])
def test_every_detector_rejects_a_bad_prior_entry_by_layer(detector):
    # the oracle checks priors with the kernel path's check and message
    rng = np.random.default_rng(12)
    cons = (make_constellation(4), make_constellation(4))
    h = crandn(rng, 3, 2, 2)
    y = crandn(rng, 3, 2)
    for layer, bad in ((1, None), (0, np.zeros((1, 3))), (1, np.zeros((3, 3)))):
        lam = [np.zeros((3, 2)), np.zeros((3, 2))]
        lam[layer] = bad
        with pytest.raises(ValueError, match=f"^layer {layer}: expected 2 priors$"):
            detect_batch(h, y, cons, lam, detector)


@pytest.mark.parametrize("detector,distance_mode,n", [
    ("zf", "L", 2),
    ("map2", "L", 3),
    ("map2", "Q", 2),
    ("map2", "H", 2),
    ("oracle", "H", 2),
])
def test_detect_batch_rejects_what_the_config_rejects(detector, distance_mode, n):
    kwargs = dict(detector=detector, distance_mode=distance_mode)
    cfg = SimConfig(n_layers=n, mods=(4,) * n, snr_db=(10.0,), trials=1, **kwargs)
    with pytest.raises(ConfigError):
        cfg.validate()
    cons = (make_constellation(4),) * n
    h = np.tile(np.eye(n, dtype=complex), (2, 1, 1))
    y = np.ones((2, n), dtype=complex)
    with pytest.raises(ConfigError):
        detect_batch(h, y, cons, **kwargs)
    with pytest.raises(ConfigError):
        detect_instance(h[0], y[0], cons, **kwargs)


@pytest.mark.parametrize("detector,distance_mode", [("map2", "L"), ("wld", "H")])
def test_shadow_record_names_a_later_trial_of_the_chunk(detector, distance_mode, monkeypatch):
    import itertools

    import mimodet.detect as det

    real = det.exhaustive_map
    calls = itertools.count()

    def oracle_off_on_call_3(*args, **kwargs):
        res = real(*args, **kwargs)
        if next(calls) != 3:
            return res
        if detector == "map2":
            return dataclasses.replace(res, llr=tuple(lam + 1.0 for lam in res.llr))
        return dataclasses.replace(res, dmin=res.dmin + 10.0)

    monkeypatch.setattr(det, "exhaustive_map", oracle_off_on_call_3)
    cfg = SimConfig(
        n_layers=2, mods=(4, 4), snr_db=(10.0,), trials=6, detector=detector,
        distance_mode=distance_mode, master_seed=4, shadow_oracle=True,
    )
    with pytest.raises(ShadowOracleMismatch) as info:
        run_sweep(cfg)
    record = info.value.record
    assert (record["seed"], record["snr_idx"], record["trial"]) == (4, 0, 3)
    if detector == "map2":
        assert record["detector"] == "map2"
        assert record["max_dev"] == pytest.approx(1.0, abs=1e-9)
    else:
        assert set(record) == {"snr_db", "snr_idx", "trial", "seed"}


def test_snr_grid_length_is_checked_before_the_grid_is_built(capsys):
    assert len(_parse_snr_grid("0:1:65534")) == 65535
    for text in ("0:1:65535", "0:1e-9:1e9", "-1e308:1e-300:1e308"):
        with pytest.raises(ConfigError, match="too long"):
            _parse_snr_grid(text)
    for argv in (["mumimo", "--snr", "0:1e-9:1e9"], ["--mods", "4,4", "--snr", "0:1e-9:1e9"]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err


def test_cli_exit_code_on_minima_mismatch(monkeypatch, capsys):
    import mimodet.detect as det

    real = det.punctured_decompose_batch

    def skewed(h, layers):
        # the sides come out stacked side by side: skew side 1's rows
        w, l = real(h, layers)
        t = len(h)
        for s, m in enumerate(layers):
            if m == 1:
                l[s * t:(s + 1) * t] *= 2.0
        return w, l

    monkeypatch.setattr(det, "punctured_decompose_batch", skewed)
    code = cli_main([
        "--layers", "2", "--mods", "4,4", "--snr", "10", "--trials", "5", "--detector", "map2",
    ])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and len(err.strip().splitlines()) == 1, err

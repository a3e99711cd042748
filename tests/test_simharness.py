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
from mimodet.rng import trial_rng
from mimodet.simharness import (
    SimConfig,
    _draw_sweep_chunk,
    detect_batch,
    detect_instance,
    draw_uncoded_chunk,
    generate_channel,
    llr_fidelity,
    ml_hard_batch,
    mu_classification_rates,
    run_sweep,
    uncoded_ver_point,
    wld_hard_batch,
)
from mimodet.oracle import exhaustive_map
from mimodet.llrpost import combine_lists
from mimodet.detcore import rescore_candidates, detect_one_sided
from mimodet.decomp import punctured_decompose, transform_observation


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
    h1 = generate_channel(trial_rng(1, 0, 0), 4)
    h2 = generate_channel(trial_rng(1, 0, 0), 4)
    assert np.array_equal(h1, h2)
    h3 = generate_channel(trial_rng(1, 0, 1), 4)
    assert not np.array_equal(h1, h3)
    draws = generate_channel(trial_rng(2, 0, 0), 2, 50_000)
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
        dict(detector="zf"),
        dict(detector="map2", n_layers=3, mods=(4, 4, 4)),
        dict(distance_mode="H"),
        dict(priors_mode="random"),
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

def test_sweep_thread_count_does_not_change_csv(tmp_path):
    paths = []
    for threads in (1, 8):
        path = tmp_path / f"t{threads}.csv"
        cfg = SimConfig(
            n_layers=2, mods=(16, 16), snr_db=(8.0, 12.0), trials=150,
            detector="map2", master_seed=5, out_path=str(path), threads=threads,
        )
        run_sweep(cfg)
        paths.append(path.read_bytes())
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
            lists.append(rescore_candidates(cl, h[t], y[t]))
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
    assert cli_main(["--layers", "3", "--mods", "4,4,4", "--detector", "map2"]) == 2
    assert cli_main(["--layers", "2", "--mods", "9,9"]) == 2
    assert cli_main(["--snr", "10:0:20"]) == 2
    capsys.readouterr()


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

    import mimodet.simharness as sh

    real = sh.exhaustive_map

    def skewed_oracle(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, llr=tuple(lam + 1.0 for lam in res.llr))

    monkeypatch.setattr(sh, "exhaustive_map", skewed_oracle)
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
        monkeypatch.setattr(sh, "exhaustive_map", oracle)
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

    monkeypatch.setattr(sh, "generate_channel", lambda rng, n: np.ones((n, n), dtype=complex))
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

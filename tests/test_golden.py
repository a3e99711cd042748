"""Pinned sweep CSV bytes: the detector refactors must not move a single byte.

Each case is a ``run_sweep`` configuration with master seed 7 and the
CSV it wrote when the bytes were pinned.  A change that alters any
detector decision on these trials changes an error count and fails here.
"""

import pytest

from mimodet import FixedPointFormat
from mimodet.simharness import SimConfig, run_sweep

HEADER = b"snr_db,trials,ser,ber,llr_mae,llr_max,detector,distance_mode,n_layers,mods,seed\n"

GOLDEN = {
    "map2_256qam_priors": (
        dict(n_layers=2, mods=(256, 256), snr_db=(24.0, 28.0), trials=200, detector="map2",
             priors_mode="random", priors_sigma=0.002),
        b"24,200,0.455,0.1003125,nan,nan,map2,L,2,256x256,7\n"
        b"28,200,0.3175,0.0653125,nan,nan,map2,L,2,256x256,7\n",
    ),
    "wld_h_4x4_16qam": (
        dict(n_layers=4, mods=(16,) * 4, snr_db=(14.0, 18.0), trials=100, detector="wld",
             distance_mode="H"),
        b"14,100,0.3075,0.099375,nan,nan,wld,H,4,16x16x16x16,7\n"
        b"18,100,0.0825,0.023125,nan,nan,wld,H,4,16x16x16x16,7\n",
    ),
    "wld_l_3x3_quant": (
        dict(n_layers=3, mods=(4, 16, 64), snr_db=(12.0, 20.0), trials=100, detector="wld",
             quant=FixedPointFormat(9, 8)),
        b"12,100,0.35,0.136666666667,nan,nan,wld,L,3,4x16x64,7\n"
        b"20,100,0.0766666666667,0.0216666666667,nan,nan,wld,L,3,4x16x64,7\n",
    ),
    "map2_64qam_priors_quant": (
        dict(n_layers=2, mods=(64, 64), snr_db=(14.0,), trials=200, detector="map2",
             priors_mode="random", priors_sigma=2.0, quant=FixedPointFormat(9, 8)),
        b"14,200,0.96,0.4375,nan,nan,map2,L,2,64x64,7\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_csv_bytes_pinned(name, tmp_path):
    kwargs, rows = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    run_sweep(SimConfig(master_seed=7, out_path=str(path), **kwargs))
    assert path.read_bytes() == HEADER + rows

"""The benchmark's tracer must still find every function it wraps.

``bench/tracing.py`` looks each traced name up with ``owner.__dict__``,
so a refactor that renames or drops one crashes ``bench/run.py --trace
1``.  This test installs the tracer, runs one small traced sweep and
uninstalls it again; it only reads ``bench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from mimodet import simharness

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module, path):
    owner = importlib.import_module(f"mimodet.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_installs_every_traced_name_and_uninstalls():
    tracing = _load_tracing()
    raw = {}
    for module, path, _, _ in tracing.TRACED:
        owner, attr = _owner(module, path)
        assert attr in owner.__dict__, f"traced name mimodet.{module}.{path} is gone"
        raw[module, path] = owner.__dict__[attr]
    bindings = {name: dict(mod.__dict__) for name, mod in sys.modules.items()
                if name.startswith("mimodet")}

    tracer = tracing.Tracer()
    try:
        tracer.install()
        simharness.run_sweep(simharness.SimConfig(
            n_layers=2, mods=(16, 16), snr_db=(10.0,), trials=4, detector="map2",
            priors_mode="random", priors_sigma=0.5, master_seed=1,
        ))
    finally:
        tracer.uninstall()

    per_layer = tracer.per_layer(4)
    assert set(per_layer) == {name for name, _ in tracing.metric_names()}
    assert per_layer["simharness.run_sweep.self_us_per_trial"]["value"] > 0
    # two sides of 16 candidates per trial: a count read from the wrong field shows here
    assert per_layer["detcore.detect_one_sided_batch.candidates_per_trial"]["value"] == 32
    for (module, path), fn in raw.items():
        owner, attr = _owner(module, path)
        assert owner.__dict__[attr] is fn, f"mimodet.{module}.{path} left wrapped"
    for name, saved in bindings.items():
        current = sys.modules[name].__dict__
        assert all(current[attr] is value for attr, value in saved.items()), name

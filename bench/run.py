"""Detection benchmark: run one workload against mimodet's public API and report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mimodet is imported from its
``src/`` directory.  One process, one thread.  The timed part runs whole
rounds (see ``workloads.py``) until S seconds have passed; every run then
checks the first rounds' outputs against ``reference.py``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Details go to ``.bench_out/`` in the checkout.  Exit status: 0 when the
checks pass, 1 when one fails, 2 when the benchmark cannot start.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# one worker thread: the BLAS pool must be sized before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
CHECKED_ROUNDS = 4  # the first rounds of a run, checked against reference.py


def _parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_library():
    """Import mimodet from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import mimodet
    except ImportError as exc:
        _fail_start(f"cannot import mimodet from {src}: {exc}")
    if not Path(mimodet.__file__).resolve().is_relative_to(src):
        _fail_start(f"mimodet resolved to {mimodet.__file__}, not under {src}")
    return mimodet


def _fail_start(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _write_json(path, obj):
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f)


def main():
    mimodet = _import_library()
    import workloads
    from tracing import Tracer

    args = _parse_args(sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    # CPU seconds since the process started: interpreter start, imports,
    # constellation construction and the warm-up call
    setup_s = time.process_time()

    library_errors = (mimodet.MimoDetError, ValueError)
    tracer = None
    untraced_first = None
    if args.trace:
        untraced_first = wl.run_round(workloads.round_seed(args.seed, 0))
        tracer = Tracer()
        tracer.install()

    round_wall = []
    step_cpu = []  # per successful round, the CPU seconds of each public call
    outputs = {}
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        r = len(round_wall)
        if tracer is not None:
            tracer.current_round = r
        steps = []

        def timed(fn, *fn_args):
            c0 = time.process_time()
            out = fn(*fn_args)
            steps.append(time.process_time() - c0)
            return out

        t0 = time.perf_counter()
        try:
            outputs[r] = wl.run_round(workloads.round_seed(args.seed, r), timed)
            step_cpu.append(steps)
        except library_errors as exc:
            print(f"bench: round {r} failed: {exc!r}", file=sys.stderr)
            failed += wl.trials_per_round
        t1 = time.perf_counter()
        attempted += wl.trials_per_round
        round_wall.append(t1 - t0)
        if t1 - t_start >= args.seconds:
            break
    elapsed = time.perf_counter() - t_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    # The host's speed drifts by tens of per cent over seconds, and a slow
    # stretch can outlast a run.  A round's cost is its least CPU time: the
    # fastest instance of each of its calls, summed.  CPU time leaves out
    # time the process or its virtual CPU was not running.
    best_round_cpu = sum(min(col) for col in zip(*step_cpu)) if step_cpu else 0.0
    trials_per_s = wl.trials_per_round / best_round_cpu if step_cpu else 0.0

    fails = []
    if not outputs:
        fails.append("no round completed")
    for r in sorted(outputs)[:CHECKED_ROUNDS]:
        fails += [f"round {r}: {msg}"
                  for msg in wl.check(workloads.round_seed(args.seed, r), outputs[r])]
    if untraced_first is not None and 0 in outputs and outputs[0] != untraced_first:
        fails.append(f"traced round 0 outputs {outputs[0]} != untraced {untraced_first}")
    for msg in fails[:20]:
        print(f"bench: CHECK FAILED: {msg}", file=sys.stderr)

    if args.trace:
        metrics = tracer.per_layer(attempted - failed)
    else:
        metrics = {
            "trials_per_s": {"value": trials_per_s, "unit": "trials/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(round_wall), "round_wall_s": round_wall,
        "step_cpu_s": step_cpu, "trials_per_s": trials_per_s,
        "median_wall_trials_per_s": wl.trials_per_round / statistics.median(round_wall),
        "timed_s": elapsed, "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib, "bits_per_trial": wl.bits_per_trial,
        "first_round_outputs": outputs.get(0), "check_failures": fails, "result": result,
    }
    _write_json(OUT_DIR / f"{stem}-trace{args.trace}.result.json", details)
    if tracer is not None:
        _write_json(OUT_DIR / f"{stem}.trace.json", {
            "workload": args.workload, "seed": args.seed, "trials": attempted - failed,
            "traced_trials_per_s": trials_per_s, "per_layer": metrics, "spans": tracer.spans(),
        })
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())

"""detect-sim: Monte-Carlo detection sweeps, MU-MIMO runs, cost tables.

Subcommands:

  sweep   (default) uncoded SER/BER sweep over an SNR grid, CSV output
  mumimo  interferer-classification rate vs SNR, CSV output
  tables  distinct-term counts, shift-add plans, constellation dumps

Exit codes: 0 success, 2 configuration error, 3 shadow-oracle mismatch,
4 singular or degenerate channel, 5 numerical error (the two one-sided
minima of a 2-layer detection disagree).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .constellation import ModScheme, make_constellation
from .errors import (
    ConfigError,
    DegenerateChannelError,
    MinimaMismatchError,
    ShadowOracleMismatch,
    SingularChannelError,
)
from .hwmodel import (
    FixedPointFormat,
    build_shiftadd_plan,
    count_coprime_pairs,
    count_distinct_terms,
)
from .mumimo import MU_HYPOTHESIS_ORDERS
from .simharness import SNR_GRID_LIMIT, SimConfig, mu_classification_rates, run_sweep

_SUBCOMMANDS = ("sweep", "mumimo", "tables")

# square-level multiples of the widest PAM axis, the showcase plan
_SQUARE_TARGETS = tuple(k * k for k in range(3, 16, 2))


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"SNR grid must be 'value' or 'start:step:stop', got {text!r}")
    values = [float(p) for p in parts]
    if not np.all(np.isfinite(values)):
        raise ConfigError("SNR values must be finite")
    if len(values) == 1:
        return (values[0],)
    start, step, stop = values
    if step <= 0:
        raise ConfigError("SNR step must be positive")
    # count in floats first: a huge count is rejected before any grid is built
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count < 1:
        raise ConfigError("empty SNR grid")
    if not count < SNR_GRID_LIMIT:
        raise ConfigError(f"SNR grid too long: {count:.6g} points, limit {SNR_GRID_LIMIT - 1}")
    count = int(count)
    return tuple(start + i * step for i in range(count))


def _parse_mods(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad modulation list {text!r}") from None


def _parse_priors(text: str) -> tuple[str, float]:
    if text == "zero":
        return "zero", 0.0
    if text.startswith("random:"):
        return "random", float(text.split(":", 1)[1])
    raise ConfigError(f"priors must be 'zero' or 'random:<sigma>', got {text!r}")


def _check_out(path: str | None) -> None:
    """Reject an output path that cannot be written, before any trial runs."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(folder, os.W_OK):
        raise ConfigError(f"cannot write output file {path!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="detect-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="uncoded Monte-Carlo SER/BER sweep")
    sw.add_argument("--layers", type=int, default=2)
    sw.add_argument("--mods", default="64,64", help="comma list of orders, one per layer")
    sw.add_argument("--snr", default="10", help="dB grid as start:step:stop or one value")
    sw.add_argument("--trials", type=int, default=1000)
    sw.add_argument("--detector", choices=("map2", "wld", "oracle"), default="map2")
    sw.add_argument("--distance-mode", choices=("L", "H"), default="L")
    sw.add_argument("--priors", default="zero", help="'zero' or 'random:<sigma>'")
    sw.add_argument("--quant", default=None, help="fixed-point format I.F, e.g. 9.8")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--threads", type=int, default=1)
    sw.add_argument("--shadow-oracle", action="store_true",
                    help="verify every trial against the exhaustive oracle")
    sw.add_argument("--out", default=None, help="CSV output path")

    mu = sub.add_parser("mumimo", help="MU-MIMO classification rate vs SNR")
    mu.add_argument("--k", type=int, default=24, help="tones per classification window")
    mu.add_argument("--desired", type=int, default=64)
    mu.add_argument("--interferer", default="4,16,64", help="comma list of true interferer orders")
    mu.add_argument("--snr", default="0:5:35")
    mu.add_argument("--trials", type=int, default=2000, help="scenarios per point")
    mu.add_argument("--seed", type=int, default=0)
    mu.add_argument("--threads", type=int, default=1)
    mu.add_argument("--out", default=None, help="CSV output path")

    sub.add_parser("tables", help="print cost-model tables and constellation dumps")
    return parser


def _cmd_sweep(args) -> int:
    quant = FixedPointFormat.from_string(args.quant) if args.quant else None
    priors_mode, priors_sigma = _parse_priors(args.priors)
    cfg = SimConfig(
        n_layers=args.layers,
        mods=_parse_mods(args.mods),
        snr_db=_parse_snr_grid(args.snr),
        trials=args.trials,
        detector=args.detector,
        distance_mode=args.distance_mode,
        priors_mode=priors_mode,
        priors_sigma=priors_sigma,
        quant=quant,
        master_seed=args.seed,
        out_path=args.out,
        threads=args.threads,
        shadow_oracle=args.shadow_oracle,
    )
    _check_out(args.out)
    stats = run_sweep(cfg)
    for st in stats:
        print(f"snr={st.snr_db:g} dB  ser={st.ser:.6g}  ber={st.ber:.6g}  trials={st.trials}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_mumimo(args) -> int:
    snr = _parse_snr_grid(args.snr)
    interferers = _parse_mods(args.interferer)
    for q in interferers:
        if q not in MU_HYPOTHESIS_ORDERS:
            raise ConfigError(f"interferer order {q} not in hypothesis set {MU_HYPOTHESIS_ORDERS}")
    if args.k < 1 or args.trials < 1:
        raise ConfigError("k and trials must be positive")
    if args.threads < 1:
        raise ConfigError("threads must be >= 1")
    make_constellation(args.desired)
    _check_out(args.out)

    lines = ["snr_db,k,desired,interferer,trials,correct_rate,seed"]
    for q in interferers:
        rates = mu_classification_rates(
            args.seed, args.k, args.desired, q, snr, args.trials, threads=args.threads
        )
        for snr_db, rate in zip(snr, rates):
            print(f"interferer={q}  snr={snr_db:g} dB  rate={rate:.4f}")
            lines.append(
                f"{snr_db:.12g},{args.k},{args.desired},{q},{args.trials},{rate:.12g},{args.seed}"
            )
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_tables(_args) -> int:
    print("Distinct product terms per PAM size")
    print("family                2-PAM  4-PAM  8-PAM  16-PAM")
    rows = {
        "r*|x|": "scaled_levels",
        "r*|x|*|y|": "level_products",
        "r*x^2": "squared_levels",
        "(r|x|+-s|y|)|z|": "cross_products",
        "|b'lam|": "prior_magnitudes",
    }
    counts = {p: count_distinct_terms(p) for p in (2, 4, 8, 16)}
    for label, attr in rows.items():
        vals = "  ".join(f"{getattr(counts[p], attr):5d}" for p in (2, 4, 8, 16))
        print(f"{label:<20} {vals}")
    print()
    coprime = "  ".join(f"{count_coprime_pairs(p):5d}" for p in (2, 4, 8, 16))
    print(f"coprime coefficient pairs: {coprime}")
    print()
    plan = build_shiftadd_plan(_SQUARE_TARGETS)
    print(f"shift-add plan for square multiples {list(_SQUARE_TARGETS)} "
          f"({plan.cost} adders):")
    print(plan.dump())
    print()
    for scheme in ModScheme:
        print(make_constellation(scheme).table_dump())
        print()
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "sweep")  # bare flags mean the default subcommand
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "mumimo":
            return _cmd_mumimo(args)
        return _cmd_tables(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShadowOracleMismatch as exc:
        print(f"shadow-oracle mismatch: {exc} record={exc.record}", file=sys.stderr)
        return 3
    except (SingularChannelError, DegenerateChannelError) as exc:
        print(f"channel error: {exc}", file=sys.stderr)
        return 4
    except MinimaMismatchError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

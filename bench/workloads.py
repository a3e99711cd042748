"""The four benchmark workloads: one round of public-API calls each, and its checks.

A round is a fixed batch of trials drawn from one master seed, so every
run attempts whole rounds of the same operations.  ``run_round`` makes
each public call through ``timed(fn, *args)``, so the caller can clock
every call (a *step*) on its own.  Library functions are looked up on
their modules at call time, so traced runs go through the wrappers that
``tracing.Tracer`` installs.  ``check`` recomputes a
round's outputs with ``reference`` (never ``mimodet.oracle``) and
returns a list of failure messages.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from mimodet import constellation, mumimo, simharness

REL_TOL = 1e-9


def untimed(fn, *args):
    """Default ``timed`` of ``run_round``: call ``fn`` with no clock around it."""
    return fn(*args)


def round_seed(seed: int, r: int) -> int:
    """Master seed of round r of a run started with ``--seed seed``."""
    return (seed << 16) | r


def _alphabet(c):
    return c.points, c.point_bits


def _close(a, b, rtol=REL_TOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class SweepWorkload:
    """``run_sweep`` over an SNR grid; a trial is one channel realization."""

    def __init__(self, n_layers, mods, snr_db, trials, detector, distance_mode, priors_sigma):
        self.n_layers = n_layers
        self.mods = mods
        self.snr_db = snr_db
        self.trials = trials
        self.detector = detector
        self.distance_mode = distance_mode
        self.priors_sigma = priors_sigma
        self.trials_per_round = trials * len(snr_db)
        self.bits_per_trial = sum(int(np.log2(m)) for m in mods)

    def _config(self, master_seed, trials):
        return simharness.SimConfig(
            n_layers=self.n_layers, mods=self.mods, snr_db=self.snr_db, trials=trials,
            detector=self.detector, distance_mode=self.distance_mode,
            priors_mode="random" if self.priors_sigma > 0 else "zero",
            priors_sigma=self.priors_sigma, master_seed=master_seed,
        )

    def setup(self, seed):
        self.cons = tuple(constellation.make_constellation(m) for m in self.mods)
        simharness.run_sweep(self._config(round_seed(seed, 0xFFFF), 1))

    def run_round(self, master_seed, timed=untimed):
        stats = timed(simharness.run_sweep, self._config(master_seed, self.trials))
        return tuple((s.vector_errors, s.symbol_errors, s.bit_errors) for s in stats)

    def check(self, master_seed, outputs):
        alph = [_alphabet(c) for c in self.cons]
        fails = []
        for snr_idx, snr_db in enumerate(self.snr_db):
            errs = np.zeros(3, dtype=int)
            for t in range(self.trials):
                h, tx, y, priors = ref.draw_sweep_trial(
                    master_seed, snr_idx, t, snr_db, alph, self.priors_sigma
                )
                res = simharness.detect_instance(
                    h, y, self.cons, priors,
                    detector=self.detector, distance_mode=self.distance_mode,
                )
                bf_hard, bf_idx, bf_min, bf_llrs = ref.brute_force(h, y, alph, priors)
                where = f"snr_idx {snr_idx} trial {t}"
                if self.detector == "map2":
                    fails += self._check_map2(res, bf_hard, bf_llrs, where)
                    hard_idx = bf_idx
                else:
                    hard_idx = self._indices(res.hard)
                    fails += self._check_wld(res, h, y, bf_min, hard_idx, where)
                bit_err = sum(
                    int(np.sum(bits[hard_idx[i]] != bits[tx[i]])) for i, (_, bits) in enumerate(alph)
                )
                sym_err = int(np.sum(hard_idx != tx))
                errs += (int(sym_err > 0), sym_err, bit_err)
            if tuple(errs) != outputs[snr_idx]:
                fails.append(
                    f"snr_idx {snr_idx}: run_sweep (vector, symbol, bit) errors "
                    f"{outputs[snr_idx]} != reference {tuple(errs)}"
                )
        return fails

    def _indices(self, hard):
        return np.array([int(np.nonzero(c.points == s)[0][0]) for c, s in zip(self.cons, hard)])

    @staticmethod
    def _check_map2(res, bf_hard, bf_llrs, where):
        fails = []
        if not np.array_equal(res.hard, bf_hard):
            fails.append(f"{where}: map2 hard decision differs from brute-force MAP")
        llr = np.concatenate(res.llr)
        want = np.concatenate(bf_llrs)
        if np.any(np.abs(llr - want) > REL_TOL * np.maximum(1.0, np.abs(want))):
            fails.append(f"{where}: map2 LLRs differ from brute-force max-log LLRs by "
                         f"{np.max(np.abs(llr - want)):.3g}")
        return fails

    def _check_wld(self, res, h, y, bf_min, hard_idx, where):
        fails = []
        d_hard = float(ref.distances(h, y, res.hard[None, :])[0])
        if not _close(res.dmin, d_hard):
            fails.append(f"{where}: dmin {res.dmin!r} != ||y - Hx||^2 {d_hard!r}")
        if res.dmin < bf_min - REL_TOL * max(1.0, abs(bf_min)):
            fails.append(f"{where}: dmin {res.dmin!r} below the brute-force minimum {bf_min!r}")
        for i, c in enumerate(self.cons):
            bits = c.point_bits[hard_idx[i]]
            if np.any(res.llr[i] * bits > 0):
                fails.append(f"{where}: layer {i} LLR sign disagrees with the hard decision")
        return fails


class VerWorkload:
    """``uncoded_ver_point`` with wld and ml on identical trials, one call per SNR point."""

    def __init__(self, mods, snr_db, trials, sample_every):
        self.mods = mods
        self.snr_db = snr_db
        self.trials = trials
        self.sample_every = sample_every
        self.trials_per_round = trials * len(snr_db)
        self.bits_per_trial = sum(int(np.log2(m)) for m in mods)

    def setup(self, seed):
        self.cons = tuple(constellation.make_constellation(m) for m in self.mods)
        simharness.uncoded_ver_point(round_seed(seed, 0xFFFF), 0, self.snr_db[0], self.mods, 8)

    def run_round(self, master_seed, timed=untimed):
        out = []
        for snr_idx, snr_db in enumerate(self.snr_db):
            rates = timed(simharness.uncoded_ver_point,
                          master_seed, snr_idx, snr_db, self.mods, self.trials)
            out.append((rates["wld"], rates["ml"]))
        return tuple(out)

    def check(self, master_seed, outputs):
        alph = [_alphabet(c) for c in self.cons]
        fails = []
        for snr_idx, snr_db in enumerate(self.snr_db):
            # trials <= the default 2048-trial chunk, so the point is chunk 0
            h, tx, y = ref.draw_uncoded_chunk(master_seed, snr_idx, 0, snr_db, alph, self.trials)
            x = np.stack([alph[i][0][tx[:, i]] for i in range(len(alph))], axis=1)
            wld = simharness.wld_hard_batch(h, y, self.cons)
            wld_rate = int(np.sum(np.any(wld != x, axis=1))) / self.trials
            if wld_rate != outputs[snr_idx][0]:
                fails.append(f"snr_idx {snr_idx}: wld VER {outputs[snr_idx][0]} != {wld_rate} "
                             "recounted on the redrawn trials")
            sample = np.arange(0, self.trials, self.sample_every)
            ml = simharness.ml_hard_batch(h[sample], y[sample], self.cons)
            for j, t in enumerate(sample):
                where = f"snr_idx {snr_idx} trial {t}"
                bf_hard, _, bf_min, _ = ref.brute_force(h[t], y[t], alph)
                if not np.array_equal(ml[j], bf_hard):
                    fails.append(f"{where}: ml_hard_batch differs from brute-force ML")
                d_ml, d_wld = ref.distances(h[t], y[t], np.stack([ml[j], wld[t]]))
                if d_ml > d_wld:
                    fails.append(f"{where}: ML metric {d_ml!r} above the wld metric {d_wld!r}")
        return fails


class MuWorkload:
    """``mu_classification_rates`` per interferer order; a trial is one window at one SNR."""

    def __init__(self, n_tones, desired, interferers, snr_db, scenarios):
        self.n_tones = n_tones
        self.desired = desired
        self.interferers = interferers
        self.snr_db = snr_db
        self.scenarios = scenarios
        self.trials_per_round = scenarios * len(snr_db) * len(interferers)
        self.bits_per_trial = n_tones * int(np.log2(desired))

    def setup(self, seed):
        self.hyps = {o: constellation.make_constellation(o).points
                     for o in mumimo.MU_HYPOTHESIS_ORDERS}
        simharness.mu_classification_rates(
            round_seed(seed, 0xFFFF), self.n_tones, self.desired, self.interferers[0],
            self.snr_db, 1,
        )

    @staticmethod
    def _seed(master_seed, interferer):
        return (master_seed << 8) | interferer

    def run_round(self, master_seed, timed=untimed):
        return tuple(
            tuple(timed(
                simharness.mu_classification_rates,
                self._seed(master_seed, intf), self.n_tones, self.desired, intf,
                self.snr_db, self.scenarios,
            ))
            for intf in self.interferers
        )

    def check(self, master_seed, outputs):
        des = constellation.make_constellation(self.desired)
        fails = []
        for j, intf in enumerate(self.interferers):
            correct = np.zeros(len(self.snr_db), dtype=int)
            for i in range(self.scenarios):
                h, signal, noise = ref.draw_mu_scenario(
                    self._seed(master_seed, intf), i, self.n_tones, des.points, self.hyps[intf]
                )
                for s_idx, snr_db in enumerate(self.snr_db):
                    sigma2 = 2.0 / 10.0 ** (snr_db / 10.0)
                    y = signal + np.sqrt(sigma2) * noise
                    want = ref.mu_scores(h, y, sigma2, des.points, self.hyps)
                    choice = ref.mu_choice(want)
                    correct[s_idx] += int(choice == intf)
                    scn = mumimo.MuScenario.create(h, y, des, sigma2)
                    cls = mumimo.classify_interferer(scn)
                    where = f"interferer {intf} scenario {i} snr_idx {s_idx}"
                    if cls.chosen.order != choice:
                        fails.append(f"{where}: chose {cls.chosen.order}, reference argmin {choice}")
                    for order, score in want.items():
                        if not _close(cls.scores[order], score):
                            fails.append(f"{where}: score of {order} {cls.scores[order]!r} "
                                         f"!= reference {score!r}")
            rates = tuple(c / self.scenarios for c in correct)
            if rates != outputs[j]:
                fails.append(f"interferer {intf}: rates {outputs[j]} != reference {rates}")
        return fails


WORKLOADS = {
    "sweep_map2_256qam": lambda: SweepWorkload(
        2, (256, 256), (24.0, 28.0, 32.0), trials=16,
        detector="map2", distance_mode="L", priors_sigma=0.002,
    ),
    "sweep_wld_4x4_16qam": lambda: SweepWorkload(
        4, (16,) * 4, (14.0, 18.0, 22.0), trials=8,
        detector="wld", distance_mode="H", priors_sigma=0.0,
    ),
    "ver_4x4_16qam": lambda: VerWorkload((16,) * 4, (16.0, 18.0, 20.0, 22.0), trials=64,
                                         sample_every=8),
    "mu_classify_k24": lambda: MuWorkload(24, 64, (4, 16, 64), (0.0, 10.0, 20.0, 30.0),
                                          scenarios=2),
}

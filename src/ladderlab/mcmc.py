"""Metropolis sampler for the spin-chain measure and its deformations.

Single-site sweeps: random-walk proposals on every continuous field, plain
sign flips, and tree-state redraws restricted to the locally admissible
letters (so a forbidden adjacent ``AB`` is never proposed).  The sweep
caches u = (xlo + xhi)/2, e^{-xlo} and e^{-xhi} per cell, the named parts of
the coupling energy (``environment.h_ln`` ... ``h_exp2``) with w and the
total per coupling, and the two boundary energies.  A move recomputes only
what it changes: an x move every part of its two couplings, reusing the
neighbours' exponentials; a sign flip only h_exp2; a tree letter only
h_tree; a z move all but h_exp1; a gamma move all but h_linear and h_exp1.
The z0/zn moves and the x and tree moves on an end cell recompute its
boundary energy through this module's ``left_energy``/``right_energy``;
perfbench traces those and ``middle_energy`` under their names here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ladderlab.environment import (  # noqa: F401 (middle_energy: see the module docstring)
    INF,
    INT_TO_T,
    SpinConfig,
    T_TO_INT,
    _exp,
    coupling_total,
    h_exp1,
    h_exp2,
    h_linear,
    h_ln,
    h_tree,
    left_energy,
    middle_energy,
    psi_forward,
    right_energy,
)
from ladderlab.ladder import EdgeWeights, LadderError
from ladderlab.rng import RngSpec
from ladderlab.stats import batch_means_error, effective_sample_size, linear_fit

__all__ = [
    "McmcConfig",
    "SampleBatch",
    "TailCurve",
    "sample_chain",
    "tail_estimate",
    "sign_disagreement_rate",
    "environment_from_spin",
    "observable",
    "OBSERVABLES",
]

_CLASSES = ("z0", "x", "z", "gamma", "zn", "sigma", "tree")
_SCALED = _CLASSES[:5]  # the classes with a tuned proposal scale
# tree letters allowed by (right neighbour is B) + 2 * (left neighbour is A)
_LETTERS = ((0, 1, 2, 3), (1, 2, 3), (0, 2, 3), (2, 3))


@dataclass(frozen=True)
class McmcConfig:
    """Sampler configuration targeting the chain with ``deform_j`` relaxed
    couplings (0 keeps the physical quarter coupling everywhere)."""

    n: int
    a: float
    deform_j: int = 0
    scales: dict = field(default_factory=lambda: {"z0": 1.0, "x": 1.0, "z": 1.0, "gamma": 1.0, "zn": 1.0})
    burn_in: int = 2000
    thinning: int = 2
    samples: int = 10_000
    rng: RngSpec = RngSpec(0)
    tune: bool = True
    init: SpinConfig | None = None
    debug_log_moves: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise LadderError("need n >= 1")
        if not 0 <= self.deform_j <= self.n - 1:
            raise LadderError(f"deform_j={self.deform_j} outside 0..{self.n - 1}")
        if self.burn_in < 0 or self.thinning < 1 or self.samples < 1:
            raise LadderError("burn_in >= 0, thinning >= 1, samples >= 1 required")
        missing, unknown = set(_SCALED) - set(self.scales), set(self.scales) - set(_SCALED)
        if missing or unknown:
            raise LadderError(f"scales need exactly the keys {', '.join(_SCALED)}: missing "
                              f"{sorted(missing)}, unknown {sorted(map(str, unknown))}")
        if any(s <= 0 for s in self.scales.values()):
            raise LadderError("proposal scales must be positive")
        if not self.a > 0:
            raise LadderError("initial weight a must be positive")


@dataclass
class SampleBatch:
    """Retained samples in column form plus sampler diagnostics."""

    config: McmcConfig
    z0: np.ndarray
    xlo: np.ndarray
    xhi: np.ndarray
    sigma: np.ndarray
    t: np.ndarray  # int8 letters, 0..3 for A..D
    z: np.ndarray
    gamma: np.ndarray
    zn: np.ndarray
    acceptance: dict
    ess: dict
    tuned_scales: dict
    warnings: list = field(default_factory=list)
    proposal_log: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.z0.size

    def spin(self, k: int) -> SpinConfig:
        return SpinConfig(
            z0=float(self.z0[k]),
            xlo=self.xlo[k].copy(),
            xhi=self.xhi[k].copy(),
            sigma=self.sigma[k].copy(),
            t="".join(INT_TO_T[v] for v in self.t[k]),
            z=self.z[k].copy(),
            gamma=self.gamma[k].copy(),
            zn=float(self.zn[k]),
        )

    def admissible(self) -> bool:
        if self.config.n == 1:
            return True
        bad = (self.t[:, :-1] == 0) & (self.t[:, 1:] == 1)
        return not bool(bad.any())


def sample_chain(cfg: McmcConfig) -> SampleBatch:
    """Run the sampler and return the retained samples."""
    n, a = cfg.n, cfg.a
    n1 = n - 1
    om = cfg.init if cfg.init is not None else SpinConfig(  # default start: zero fields, all C
        z0=0.0, xlo=np.zeros(n), xhi=np.zeros(n), sigma=np.ones(n), t="C" * n,
        z=np.zeros(n1), gamma=np.zeros(n1), zn=0.0)
    if om.n != n or not om.admissible():
        raise LadderError("init configuration incompatible with the sampler")
    z0, zn = float(om.z0), float(om.zn)
    xlo, xhi, z, ga = ([float(v) for v in f] for f in (om.xlo, om.xhi, om.z, om.gamma))
    sig = [int(v) for v in om.sigma]
    t = [T_TO_INT[c] for c in om.t]
    eta = [0.0 if p < cfg.deform_j else 0.25 for p in range(n1)]
    # cached cell values and boundary energies
    u = [0.5 * (lo + hi) for lo, hi in zip(xlo, xhi)]
    elo = [_exp(-v) for v in xlo]
    ehi = [_exp(-v) for v in xhi]
    e_left = left_energy(z0, xlo[0], xhi[0], t[0], a)
    e_right = right_energy(xlo[n1], xhi[n1], t[n1], zn, a)

    gen = cfg.rng.generator()
    scales = dict(cfg.scales)
    accept = dict.fromkeys(_CLASSES, 0)
    propose = dict.fromkeys(_CLASSES, 0)
    per_sweep = {"z0": 1, "x": 2 * n, "z": n1, "gamma": n1, "zn": 1, "sigma": n, "tree": n}
    budget = 0  # moves still to log; none during burn-in
    proposal_log: list[dict] = []
    draw_u = None

    def spin() -> SpinConfig:
        return SpinConfig(
            z0=z0, xlo=np.array(xlo), xhi=np.array(xhi), sigma=np.array(sig),
            t="".join(INT_TO_T[v] for v in t), z=np.array(z), gamma=np.array(ga), zn=zn,
        )

    def coupling(p):
        """Every part of coupling p (between cells p and p+1) from the cached cell values."""
        q = p + 1
        zp, up, uq = z[p], u[p], u[q]
        w = ga[p] + uq - up
        ln = h_ln(xlo[p], xhi[p], zp, w, xlo[q], xhi[q], a)
        lin = h_linear(up, uq, zp, a)
        tr = h_tree(t[p], xlo[p], xhi[p], up, zp, w, t[q], xlo[q], xhi[q], uq)
        e1 = h_exp1(elo[p], ehi[p], elo[q], ehi[q])
        e2 = h_exp2(w, zp, sig[p] * sig[q])
        return w, ln, lin, tr, e1, e2, coupling_total(ln, lin, tr, e1, e2, -eta[p] * ga[p])

    def with_sign(p):
        """Coupling p after a sign flip: only h_exp2 changes."""
        w, ln, lin, tr, e1, _, _ = parts[p]
        e2 = h_exp2(w, z[p], sig[p] * sig[p + 1])
        return w, ln, lin, tr, e1, e2, coupling_total(ln, lin, tr, e1, e2, -eta[p] * ga[p])

    def with_tree(p):
        """Coupling p after a tree-letter move: only h_tree changes."""
        w, ln, lin, _, e1, e2, _ = parts[p]
        q = p + 1
        tr = h_tree(t[p], xlo[p], xhi[p], u[p], z[p], w, t[q], xlo[q], xhi[q], u[q])
        return w, ln, lin, tr, e1, e2, coupling_total(ln, lin, tr, e1, e2, -eta[p] * ga[p])

    parts = [coupling(p) for p in range(n1)]  # (w, h_ln, h_linear, h_tree, h_exp1, h_exp2, total)

    def decide(kind: str, delta: float, uniform: float, before) -> bool:
        nonlocal budget
        ok = delta <= 0.0 or (delta < INF and uniform < math.exp(-delta))
        if ok:
            accept[kind] += 1
        if before is not None:
            budget -= 1
            proposal_log.append({"kind": kind, "delta_h": delta, "accepted": ok,
                                 "before": before, "proposed": spin()})
        return ok

    def move_cell(kind: str, i: int, refresh, bounds: bool, before) -> bool:
        """Accept or reject a move already applied to cell i: ``refresh``
        gives the new parts of the couplings i-1 and i, and ``bounds``
        recomputes the boundary energy of an end cell."""
        nonlocal e_left, e_right
        e_new = e_old = 0
        if i > 0:
            new_l = refresh(i - 1)
            e_new += new_l[6]
            e_old += parts[i - 1][6]
        if i < n1:
            new_r = refresh(i)
            e_new += new_r[6]
            e_old += parts[i][6]
        delta = e_new - e_old
        e_l, e_r = e_left, e_right
        if bounds and i == 0:
            e_l = left_energy(z0, xlo[0], xhi[0], t[0], a)
            delta += e_l - e_left
        if bounds and i == n1:
            e_r = right_energy(xlo[n1], xhi[n1], t[n1], zn, a)
            delta += e_r - e_right
        if not decide(kind, delta, draw_u(), before):
            return False
        if i > 0:
            parts[i - 1] = new_l
        if i < n1:
            parts[i] = new_r
        e_left, e_right = e_l, e_r
        return True

    def sweep():
        nonlocal z0, zn, e_left, e_right, draw_u
        draw_n = iter(gen.standard_normal(4 * n).tolist()).__next__
        draw_u = iter(gen.random(7 * n).tolist()).__next__
        s_z0, s_x, s_z, s_gamma, s_zn = (scales[c] for c in _SCALED)

        # left boundary field
        before = spin() if budget > 0 else None
        old = z0
        z0 = old + s_z0 * draw_n()
        e_new = left_energy(z0, xlo[0], xhi[0], t[0], a)
        if decide("z0", e_new - e_left, draw_u(), before):
            e_left = e_new
        else:
            z0 = old

        for i in range(n):
            # x move: every part of both couplings; the new exponential is
            # shared by them and the neighbours' cached ones are reused
            for xs, es in ((xlo, elo), (xhi, ehi)):
                before = spin() if budget > 0 else None
                old, e_old, u_old = xs[i], es[i], u[i]
                xs[i] = old + s_x * draw_n()
                es[i] = _exp(-xs[i])
                u[i] = 0.5 * (xlo[i] + xhi[i])
                if not move_cell("x", i, coupling, True, before):
                    xs[i], es[i], u[i] = old, e_old, u_old

            # sign flip: only the adjacent sign terms move (the boundary
            # energies do not depend on the sign); for a single cell the
            # measure is symmetric in the sign, so flip a fair coin
            if n > 1:
                before = spin() if budget > 0 else None
                sig[i] = -sig[i]
                if not move_cell("sigma", i, with_sign, False, before):
                    sig[i] = -sig[i]
            else:
                accept["sigma"] += 1
                if draw_u() < 0.5:
                    sig[i] = -sig[i]

            # tree letter: uniform over the locally admissible states; the
            # admissible set does not depend on the current letter, so the
            # proposal is symmetric
            letters = _LETTERS[(i < n1 and t[i + 1] == 1) + 2 * (i > 0 and t[i - 1] == 0)]
            old_t = t[i]
            new_t = letters[int(draw_u() * len(letters)) % len(letters)]
            if new_t != old_t:
                before = spin() if budget > 0 else None
                t[i] = new_t
                if not move_cell("tree", i, with_tree, True, before):
                    t[i] = old_t
            else:
                accept["tree"] += 1
                draw_u()

        # inner rung fields: z changes every part but h_exp1, gamma every
        # part but h_linear and h_exp1
        for p in range(n1):
            q = p + 1
            for fs, step, kind in ((z, s_z, "z"), (ga, s_gamma, "gamma")):
                w, ln, lin, tr, e1, e2, total = parts[p]
                before = spin() if budget > 0 else None
                old = fs[p]
                fs[p] = old + step * draw_n()
                zp = z[p]
                if fs is z:
                    lin = h_linear(u[p], u[q], zp, a)
                else:
                    w = ga[p] + u[q] - u[p]
                ln = h_ln(xlo[p], xhi[p], zp, w, xlo[q], xhi[q], a)
                tr = h_tree(t[p], xlo[p], xhi[p], u[p], zp, w, t[q], xlo[q], xhi[q], u[q])
                e2 = h_exp2(w, zp, sig[p] * sig[q])
                e_new = coupling_total(ln, lin, tr, e1, e2, -eta[p] * ga[p])
                if decide(kind, e_new - total, draw_u(), before):
                    parts[p] = w, ln, lin, tr, e1, e2, e_new
                else:
                    fs[p] = old

        # right boundary field
        before = spin() if budget > 0 else None
        old = zn
        zn = old + s_zn * draw_n()
        e_new = right_energy(xlo[n1], xhi[n1], t[n1], zn, a)
        if decide("zn", e_new - e_right, draw_u(), before):
            e_right = e_new
        else:
            zn = old

        for c in _CLASSES:
            propose[c] += per_sweep[c]

    # burn-in with optional scale tuning toward 0.4 acceptance
    window = 50
    for b in range(cfg.burn_in):
        sweep()
        if cfg.tune and (b + 1) % window == 0:
            for c in _SCALED:
                if propose[c]:
                    rate = accept[c] / propose[c]
                    scales[c] = float(np.clip(scales[c] * math.exp(0.6 * (rate - 0.4)), 0.02, 50.0))
                accept[c] = propose[c] = 0
    for c in _CLASSES:
        accept[c] = propose[c] = 0
    budget = cfg.debug_log_moves

    m = cfg.samples
    out_z0 = np.empty(m)
    out_zn = np.empty(m)
    out_xlo = np.empty((m, n))
    out_xhi = np.empty((m, n))
    out_sig = np.empty((m, n), dtype=np.int8)
    out_t = np.empty((m, n), dtype=np.int8)
    out_z = np.empty((m, n1))
    out_ga = np.empty((m, n1))
    for k in range(m):
        for _ in range(cfg.thinning):
            sweep()
        out_z0[k] = z0
        out_zn[k] = zn
        out_xlo[k] = xlo
        out_xhi[k] = xhi
        out_sig[k] = sig
        out_t[k] = t
        out_z[k] = z
        out_ga[k] = ga

    rates = {c: (accept[c] / propose[c] if propose[c] else math.nan) for c in _CLASSES}
    warnings = [
        f"acceptance rate {rates[c]:.3f} for {c} outside [0.1, 0.9]"
        for c in _CLASSES
        if not math.isnan(rates[c]) and not 0.1 <= rates[c] <= 0.9
    ]
    ess = {
        "Z0": effective_sample_size(out_z0),
        "Xlo_1": effective_sample_size(out_xlo[:, 0]),
    }
    if n > 1:
        ess["Gamma_1"] = effective_sample_size(out_ga[:, 0])
    batch = SampleBatch(
        config=cfg,
        z0=out_z0, xlo=out_xlo, xhi=out_xhi, sigma=out_sig, t=out_t,
        z=out_z, gamma=out_ga, zn=out_zn,
        acceptance=rates,
        ess=ess,
        tuned_scales=scales,
        warnings=warnings,
        proposal_log=proposal_log,
    )
    if not batch.admissible():
        raise LadderError("sampler produced a forbidden configuration")  # pragma: no cover
    return batch


# ---------------------------------------------------------------------------
# observables and estimators


OBSERVABLES = ("Z0", "Zn", "Xlo", "Xhi", "Z", "Gamma", "log_y_ratio", "log_z_over_y2")


def observable(batch: SampleBatch, name: str, i: int | None = None) -> np.ndarray:
    """Column of a named observable; ``i`` is the 1-based cell or rung index.

    ``log_y_ratio`` is the log modulus ratio of consecutive auxiliary
    variables; ``log_z_over_y2`` the log of a rung weight relative to the
    squared auxiliary variable at its left cell.  Both are linear in the
    stored fields.
    """
    if name == "Z0":
        return batch.z0
    if name == "Zn":
        return batch.zn
    if name in ("Xlo", "Xhi"):
        arr = batch.xlo if name == "Xlo" else batch.xhi
        return arr[:, i - 1]
    if name in ("Z", "Gamma"):
        arr = batch.z if name == "Z" else batch.gamma
        return arr[:, i - 1]
    u = 0.5 * (batch.xlo + batch.xhi)
    w_i = batch.gamma[:, i - 1] + u[:, i] - u[:, i - 1]
    if name == "log_y_ratio":
        return -0.5 * w_i
    if name == "log_z_over_y2":
        return batch.z[:, i - 1] - 0.5 * w_i
    raise LadderError(f"unknown observable {name!r}")


@dataclass(frozen=True)
class TailCurve:
    """Empirical tail of |observable| on a threshold grid."""

    thresholds: np.ndarray
    counts: np.ndarray
    log_freq: np.ndarray  # nan where censored
    err: np.ndarray  # binomial standard error of the log frequency
    slope: float | None
    intercept: float | None
    censored: list
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "thresholds": self.thresholds.tolist(),
            "counts": self.counts.tolist(),
            "log_freq": self.log_freq.tolist(),
            "err": self.err.tolist(),
            "slope": self.slope,
            "intercept": self.intercept,
            "censored": self.censored,
            "degenerate": self.degenerate,
        }


def tail_estimate(batch: SampleBatch, name: str, thresholds: Sequence[float],
                  i: int | None = None) -> TailCurve:
    """Tail curve of |observable| with a least-squares slope over the
    uncensored buckets.  Empty buckets are reported censored, not zero."""
    if batch.size == 0:
        raise LadderError("empty batch")
    vals = np.abs(observable(batch, name, i))
    thresholds = np.asarray(sorted(thresholds), dtype=float)
    m = batch.size
    counts = np.array([(vals >= t).sum() for t in thresholds], dtype=np.int64)
    freq = counts / m
    log_freq = np.where(counts > 0, np.log(np.maximum(freq, 1e-300)), np.nan)
    err = np.where(counts > 0, np.sqrt(np.maximum(1 - freq, 0.0) / np.maximum(counts, 1)), np.nan)
    censored = [float(t) for t, c in zip(thresholds, counts) if c == 0]
    degenerate = bool(np.ptp(vals) == 0.0)
    keep = counts > 0
    slope = intercept = None
    if not degenerate and keep.sum() >= 2 and np.ptp(thresholds[keep]) > 0:
        slope, intercept, _ = linear_fit(thresholds[keep], log_freq[keep])
    return TailCurve(
        thresholds=thresholds, counts=counts, log_freq=log_freq, err=err,
        slope=slope, intercept=intercept, censored=censored, degenerate=degenerate,
    )


def sign_disagreement_rate(batch: SampleBatch, i: int) -> dict:
    """Sign disagreement rate across rung ``i`` plus the residual of the
    exact flip identity: the rate equals the mean of a double-exponential
    weight on sign agreement."""
    n = batch.config.n
    if not 1 <= i <= n - 1:
        raise LadderError(f"rung index {i} outside 1..{n - 1}")
    dis = (batch.sigma[:, i - 1] != batch.sigma[:, i]).astype(float)
    agree = 1.0 - dis
    weight = np.exp(-2.0 * np.exp(-batch.z[:, i - 1]))
    resid_obs = dis - weight * agree
    return {
        "rate": float(dis.mean()),
        "identity_residual": float(resid_obs.mean()),
        "residual_err": batch_means_error(resid_obs),
        "rate_err": batch_means_error(dis),
    }


def environment_from_spin(omega: SpinConfig) -> EdgeWeights:
    """Edge weights induced by one spin configuration (left rung pinned 1)."""
    return psi_forward(omega).x

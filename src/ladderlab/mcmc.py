"""Metropolis sampler for the spin-chain measure and its deformations.

Single-site sweeps: random-walk proposals on every continuous field, plain
sign flips, and tree-state redraws restricted to the locally admissible
letters (so a forbidden adjacent ``AB`` is never proposed).  A sweep draws
its 4n normals and 7n uniforms up front and reads them by index.  It caches
u = (xlo + xhi)/2, e^{-xlo} and e^{-xhi} per cell, the parts of each
coupling as ``environment.coupling_parts`` returns them (the one
composition that ``middle_energy`` also reads), and the two boundary
energies.  Each move is written out in the sweep and refreshes only the
couplings it touches, by direct calls: an x move calls ``coupling_parts``
for both couplings of its cell, reusing the neighbours' exponentials; a
sign flip recomputes only their h_exp2 and a tree letter only their
h_tree, re-totalling the cached parts in ``coupling_parts``' order; a z or
gamma move calls ``coupling_parts`` for its one coupling; a z0 or zn move
recomputes only its boundary energy.  Every move, the single-cell sign
coin included, passes one Metropolis decision point, which writes the
``debug_log_moves`` record only while logging is on.  The boundary
energies are called through this module's ``left_energy``/``right_energy``;
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
    coupling_parts,
    h_exp2,
    h_tree,
    left_energy,
    middle_energy,
    psi_forward,
    right_energy,
)
from ladderlab.ladder import EdgeWeights, InputRefused, LadderError, check_int, check_weight
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
]

_CLASSES = ("z0", "x", "z", "gamma", "zn", "sigma", "tree")
_SCALED = _CLASSES[:5]  # the classes with a tuned proposal scale
# tree letters allowed by (right neighbour is B) + 2 * (left neighbour is A)
_LETTERS = ((0, 1, 2, 3), (1, 2, 3), (0, 2, 3), (2, 3))
_NO_COUPLING = (0.0,) * 7  # the parts beyond an end cell: no coupling, total 0


@dataclass(frozen=True)
class McmcConfig:
    """Sampler configuration targeting the chain with ``deform_j`` relaxed
    couplings (0 keeps the physical quarter coupling everywhere)."""

    n: int
    a: float
    deform_j: int = 0
    burn_in: int = 2000
    thinning: int = 2
    samples: int = 10_000
    rng: RngSpec = RngSpec(0)
    init: SpinConfig | None = None
    debug_log_moves: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", check_int(self.n, "n", 1))
        for name, lo, hi in (("deform_j", 0, self.n - 1), ("burn_in", 0, None), ("thinning", 1, None),
                             ("samples", 1, None), ("debug_log_moves", 0, None)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, lo, hi))
        check_weight(self.a)


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
    # parts[p + 1] = (w, h_ln, h_linear, h_tree, h_exp1, h_exp2, total) of coupling p,
    # between cells p and p + 1; the ends hold a total of 0, so cell i reads
    # its couplings at parts[i] and parts[i + 1] wherever it sits
    parts = [_NO_COUPLING, *(coupling_parts(xlo[p], xhi[p], u[p], elo[p], ehi[p],
                                            xlo[p + 1], xhi[p + 1], u[p + 1], elo[p + 1], ehi[p + 1],
                                            z[p], ga[p], sig[p] * sig[p + 1], t[p], t[p + 1], a, eta[p])
                             for p in range(n1)), _NO_COUPLING]
    if not all(map(math.isfinite, [e_left, e_right] + [part[6] for part in parts])):
        # every move out of a zero-density start computes inf - inf and is rejected
        raise LadderError("init configuration has a non-finite boundary or coupling energy")

    gen = cfg.rng.generator()
    scales = dict.fromkeys(_SCALED, 1.0)  # initial proposal scales, tuned during burn-in
    accept = dict.fromkeys(_CLASSES, 0)
    per_sweep = {"z0": 1, "x": 2 * n, "z": n1, "gamma": n1, "zn": 1, "sigma": n, "tree": n}
    budget = 0  # moves still to log; none during burn-in
    proposal_log: list[dict] = []

    def spin() -> SpinConfig:
        return SpinConfig(
            z0=z0, xlo=np.array(xlo), xhi=np.array(xhi), sigma=np.array(sig),
            t="".join(INT_TO_T[v] for v in t), z=np.array(z), gamma=np.array(ga), zn=zn,
        )

    def decide(kind: str, delta: float, uniform: float) -> bool:
        """Accept or reject an applied move: every state change passes here."""
        nonlocal budget, logged
        ok = delta <= 0.0 or (delta < INF and uniform < math.exp(-delta))
        if ok:
            accept[kind] += 1
        if budget > 0:
            budget -= 1
            proposed = spin()
            proposal_log.append({"kind": kind, "delta_h": delta, "accepted": ok,
                                 "before": logged, "proposed": proposed})
            if ok:
                logged = proposed
        return ok

    def sweep():
        """One sweep: z0, then per cell its two x moves, the sign and the tree
        letter, then per rung z and gamma, then zn.  Normal k and uniform k
        of the sweep's draws belong to fixed moves: z0 takes the first of
        each and zn the last; cell i its normals 1 + 2i and 2 + 2i and its
        uniforms 1 + 5i .. 5 + 5i; rung p its normals 1 + 2n + 2p, 2 + 2n +
        2p and its uniforms 1 + 5n + 2p, 2 + 5n + 2p."""
        nonlocal z0, zn, e_left, e_right
        normal = gen.standard_normal(4 * n).tolist()
        uniform = gen.random(7 * n).tolist()
        s_z0, s_x, s_z, s_gamma, s_zn = (scales[c] for c in _SCALED)

        # left boundary field: only the left boundary energy moves
        old = z0
        z0 = old + s_z0 * normal[0]
        e_l = left_energy(z0, xlo[0], xhi[0], t[0], a)
        if decide("z0", e_l - e_left, uniform[0]):
            e_left = e_l
        else:
            z0 = old

        # Each cell move sums the totals of its couplings p = i - 1 and i,
        # new and old, takes the difference and adds the change of the
        # boundary energy of an end cell, in that order (the goldens pin it).
        for i in range(n):
            p, r = i - 1, i + 1
            left, right = parts[i], parts[r]
            kn, ku = 1 + 2 * i, 1 + 5 * i

            # x move: every part of both couplings; the new exponential is
            # shared by them and the neighbours' cached ones are reused
            for xs, es in ((xlo, elo), (xhi, ehi)):
                old, e_old, u_old = xs[i], es[i], u[i]
                xs[i] = old + s_x * normal[kn]
                es[i] = _exp(-xs[i])
                u[i] = 0.5 * (xlo[i] + xhi[i])
                new_l = coupling_parts(xlo[p], xhi[p], u[p], elo[p], ehi[p],
                                       xlo[i], xhi[i], u[i], elo[i], ehi[i],
                                       z[p], ga[p], sig[p] * sig[i], t[p], t[i], a,
                                       eta[p]) if i else left
                new_r = coupling_parts(xlo[i], xhi[i], u[i], elo[i], ehi[i],
                                       xlo[r], xhi[r], u[r], elo[r], ehi[r],
                                       z[i], ga[i], sig[i] * sig[r], t[i], t[r], a,
                                       eta[i]) if i < n1 else right
                delta = (new_l[6] + new_r[6]) - (left[6] + right[6])
                if i == 0:
                    e_l = left_energy(z0, xlo[0], xhi[0], t[0], a)
                    delta += e_l - e_left
                if i == n1:
                    e_r = right_energy(xlo[n1], xhi[n1], t[n1], zn, a)
                    delta += e_r - e_right
                if decide("x", delta, uniform[ku]):
                    parts[i] = left = new_l
                    parts[r] = right = new_r
                    if i == 0:
                        e_left = e_l
                    if i == n1:
                        e_right = e_r
                else:
                    xs[i], es[i], u[i] = old, e_old, u_old
                kn += 1
                ku += 1

            # sign flip: only h_exp2 of the adjacent couplings moves (the
            # boundary energies do not read the sign); for a single cell the
            # measure is symmetric in the sign, so flip a fair coin and accept
            if n > 1:
                sig[i] = -sig[i]
                if i:
                    w, ln, lin, tr, e1, _, _ = left
                    e2 = h_exp2(w, z[p], sig[p] * sig[i])
                    new_l = w, ln, lin, tr, e1, e2, ln + lin + tr + e1 + e2 - eta[p] * ga[p]
                else:
                    new_l = left
                if i < n1:
                    w, ln, lin, tr, e1, _, _ = right
                    e2 = h_exp2(w, z[i], sig[i] * sig[r])
                    new_r = w, ln, lin, tr, e1, e2, ln + lin + tr + e1 + e2 - eta[i] * ga[i]
                else:
                    new_r = right
                if decide("sigma", (new_l[6] + new_r[6]) - (left[6] + right[6]), uniform[ku]):
                    parts[i] = left = new_l
                    parts[r] = right = new_r
                else:
                    sig[i] = -sig[i]
            else:
                if uniform[ku] < 0.5:
                    sig[i] = -sig[i]
                decide("sigma", 0.0, uniform[ku])

            # tree letter: uniform over the locally admissible states; the
            # admissible set does not depend on the current letter, so the
            # proposal is symmetric
            letters = _LETTERS[(i < n1 and t[r] == 1) + 2 * (i > 0 and t[p] == 0)]
            old_t = t[i]
            new_t = letters[int(uniform[ku + 1] * len(letters)) % len(letters)]
            if new_t == old_t:
                accept["tree"] += 1
                continue
            t[i] = new_t
            if i:
                w, ln, lin, _, e1, e2, _ = left
                tr = h_tree(t[p], xlo[p], xhi[p], u[p], z[p], w, new_t, xlo[i], xhi[i], u[i])
                new_l = w, ln, lin, tr, e1, e2, ln + lin + tr + e1 + e2 - eta[p] * ga[p]
            else:
                new_l = left
            if i < n1:
                w, ln, lin, _, e1, e2, _ = right
                tr = h_tree(new_t, xlo[i], xhi[i], u[i], z[i], w, t[r], xlo[r], xhi[r], u[r])
                new_r = w, ln, lin, tr, e1, e2, ln + lin + tr + e1 + e2 - eta[i] * ga[i]
            else:
                new_r = right
            delta = (new_l[6] + new_r[6]) - (left[6] + right[6])
            if i == 0:
                e_l = left_energy(z0, xlo[0], xhi[0], new_t, a)
                delta += e_l - e_left
            if i == n1:
                e_r = right_energy(xlo[n1], xhi[n1], new_t, zn, a)
                delta += e_r - e_right
            if decide("tree", delta, uniform[ku + 2]):
                parts[i], parts[r] = new_l, new_r
                if i == 0:
                    e_left = e_l
                if i == n1:
                    e_right = e_r
            else:
                t[i] = old_t

        # inner rung fields: a z or gamma move refreshes its one coupling
        kn, ku = 1 + 2 * n, 1 + 5 * n
        for p in range(n1):
            q = p + 1
            for fs, step, kind in ((z, s_z, "z"), (ga, s_gamma, "gamma")):
                old = fs[p]
                fs[p] = old + step * normal[kn]
                new = coupling_parts(xlo[p], xhi[p], u[p], elo[p], ehi[p],
                                     xlo[q], xhi[q], u[q], elo[q], ehi[q],
                                     z[p], ga[p], sig[p] * sig[q], t[p], t[q], a, eta[p])
                if decide(kind, new[6] - parts[q][6], uniform[ku]):
                    parts[q] = new
                else:
                    fs[p] = old
                kn += 1
                ku += 1

        # right boundary field, moved like the left one
        old = zn
        zn = old + s_zn * normal[kn]
        e_r = right_energy(xlo[n1], xhi[n1], t[n1], zn, a)
        if decide("zn", e_r - e_right, uniform[ku]):
            e_right = e_r
        else:
            zn = old

    # burn-in with scale tuning toward 0.4 acceptance
    window = 50
    for b in range(cfg.burn_in):
        sweep()
        if (b + 1) % window == 0:
            for c in _SCALED:
                if per_sweep[c]:
                    rate = accept[c] / (per_sweep[c] * window)
                    scales[c] = float(np.clip(scales[c] * math.exp(0.6 * (rate - 0.4)), 0.02, 50.0))
                accept[c] = 0
    for c in _CLASSES:
        accept[c] = 0
    budget = cfg.debug_log_moves
    logged = spin()  # the state after the last logged decision: the next record's before

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

    sweeps = m * cfg.thinning
    rates = {c: accept[c] / (per_sweep[c] * sweeps) if per_sweep[c] else math.nan for c in _CLASSES}
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


def observable(batch: SampleBatch, name: str, i: int | None = None) -> np.ndarray:
    """Column of a named observable; ``i`` is the 1-based cell or rung index.

    ``log_y_ratio`` is the log modulus ratio of consecutive auxiliary
    variables, linear in the stored fields.
    """
    if name == "Z0":
        return batch.z0
    if name == "Zn":
        return batch.zn
    columns = {"Xlo": batch.xlo, "Xhi": batch.xhi, "Z": batch.z, "Gamma": batch.gamma,
               "log_y_ratio": batch.gamma}
    if name not in columns:
        raise LadderError(f"unknown observable {name!r}")
    i = check_int(i, "i", 1, columns[name].shape[1])  # to n on a cell field, n - 1 on a rung field
    if name == "log_y_ratio":
        u = 0.5 * (batch.xlo + batch.xhi)
        return -0.5 * (batch.gamma[:, i - 1] + u[:, i] - u[:, i - 1])
    return columns[name][:, i - 1]


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


def tail_estimate(batch: SampleBatch, name: str, thresholds: Sequence[float],
                  i: int | None = None) -> TailCurve:
    """Tail curve of |observable| with a least-squares slope over the
    uncensored buckets.  Empty buckets are reported censored, not zero;
    a non-finite threshold is refused."""
    if batch.size == 0:
        raise LadderError("empty batch")
    vals = np.abs(observable(batch, name, i))
    thresholds = np.asarray(sorted(thresholds), dtype=float)
    if not np.isfinite(thresholds).all():
        raise InputRefused(f"thresholds must be finite, got {thresholds.tolist()}")
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
    i = check_int(i, "i", 1, batch.config.n - 1)
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

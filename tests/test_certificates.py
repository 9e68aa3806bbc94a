import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ladderlab import certificates
from ladderlab.certificates import (
    _BLOCK,
    PAIRS,
    check_boundary_bound,
    check_middle_bound,
    gamma_derivative_fd_errors,
    gamma_derivatives,
    minorant_certificate,
    middle_growth_rate,
    boundary_growth_rate,
    _cell_terms,
    _grid_blocks,
    _linear_identity_residuals,
    _middle_base_vec,
    _tree_piece_vec,
    verify_linear_minorant,
)
from ladderlab.cli import run
from ladderlab.environment import _exp, coupling_parts
from ladderlab.ladder import TREE_STATES, InputRefused, LadderError
from ladderlab.rng import RngSpec


def test_rates():
    assert middle_growth_rate(1.0) == pytest.approx(1.0 / 32.0)
    assert middle_growth_rate(5.0) == pytest.approx(1.0 / 16.0)
    assert boundary_growth_rate(1.0) == pytest.approx(1.0 / 12.0)
    with pytest.raises(LadderError):
        middle_growth_rate(0.5)
    with pytest.raises(LadderError):
        boundary_growth_rate(0.75)


def test_certificate_dd():
    c = minorant_certificate("D", "D")
    assert c.kappa_lo == Fraction(1, 8)
    assert c.kappa_hi == Fraction(1, 8)


def test_certificate_aa():
    c = minorant_certificate("A", "A")
    assert c.alpha_lo == Fraction(9, 10)
    assert c.beta_lo == Fraction(1, 10)
    assert c.gamma_lo == 0


def test_coefficients_all_pairs_valid():
    for t, t2 in PAIRS:
        c = minorant_certificate(t, t2)
        for v in c.all_ten():
            assert 0 <= v <= 1
        assert c.alpha_lo + c.beta_lo + c.gamma_lo == 1
        assert c.alpha_hi + c.beta_hi + c.gamma_hi == 1
        assert c.kappa_lo + c.kappa_hi == Fraction(1, 4)
        assert c.kappa_lo2 + c.kappa_hi2 == Fraction(1, 4)


def test_coefficients_reject_forbidden_pair():
    with pytest.raises(LadderError):
        minorant_certificate("A", "B")


def test_verify_linear_minorant_zero_residuals():
    report = verify_linear_minorant()
    assert report.passed
    assert report.samples == 15 * 6
    for pair, res in report.details["residuals"].items():
        assert all(r == "0" for r in res.values()), (pair, res)


def test_minorant_negative_control():
    # bump one dual weight: the lower-field residual moves by exactly -delta
    delta = Fraction(1, 1000)
    c = minorant_certificate("C", "C")
    bumped = dataclasses.replace(c, kappa_lo=c.kappa_lo + delta)
    assert _linear_identity_residuals(bumped)["xlo"] == -delta


def test_minorant_identity_certifies_the_scan_tree_steps(monkeypatch):
    # the exact identity reads the float scan's tree steps: every single-step
    # sign flip of an admissible pair breaks it
    flips = 0
    for t, t2 in PAIRS:
        steps = certificates._TREE_OPS[t + t2]
        for k, (op, name) in enumerate(steps):
            flipped = list(steps)
            flipped[k] = (np.subtract if op is np.add else np.add, name)
            with monkeypatch.context() as patch:
                patch.setitem(certificates._TREE_OPS, t + t2, flipped)
                with pytest.raises(LadderError, match=rf"pair \({t}, {t2}\)"):
                    verify_linear_minorant()
            flips += 1
    assert flips == 42
    assert verify_linear_minorant().passed


def _coupling(xlo, xhi, ss, t, z, gamma, xlo2, xhi2, ss2, t2, a, eta):
    """``coupling_parts`` at a point given in ``middle_energy``'s argument order."""
    return coupling_parts(xlo, xhi, 0.5 * (xlo + xhi), _exp(-xlo), _exp(-xhi),
                          xlo2, xhi2, 0.5 * (xlo2 + xhi2), _exp(-xlo2), _exp(-xhi2),
                          z, gamma, ss * ss2, t, t2, a, eta)


def test_minorant_numeric_spot_check():
    # direct inequality at half initial weight on random 6-tuples
    rng = np.random.default_rng(2)
    for _ in range(1000):
        xlo, xhi, z, gamma, xlo2, xhi2 = rng.uniform(-20, 20, size=6)
        t, t2 = PAIRS[rng.integers(len(PAIRS))]
        _, ln, lin, tr, *_ = _coupling(xlo, xhi, 1, TREE_STATES.index(t), z, gamma,
                                       xlo2, xhi2, 1, TREE_STATES.index(t2), 0.5, 0.25)
        lhs = ln + lin + tr - 0.25 * gamma
        c = minorant_certificate(t, t2)
        rhs = (
            float(c.kappa_lo) * xlo + float(c.kappa_hi) * xhi
            + float(c.kappa_lo2) * xlo2 + float(c.kappa_hi2) * xhi2
        )
        assert lhs >= rhs - 1e-9


def _middle_no_exp2_vec(points, t, t2, a, eta):
    """The scan's coupling energy without the sign term, at rate 0."""
    terms = _cell_terms(points)
    return _middle_base_vec(points, terms, a, eta, 0.0) + _tree_piece_vec(terms, t, t2)


def test_middle_bound_zero_point_margin():
    # the zero point with tree pair (C, C): bound left side is 4 ln 3 + 1
    val = _middle_no_exp2_vec([np.zeros(1)] * 6, "C", "C", 1.0, 0.25)
    assert val[0] == pytest.approx(4 * math.log(3.0) + 1.0, rel=1e-12)


def test_middle_no_exp2_vec_matches_scalar():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pt = rng.uniform(-30, 30, size=6)
        t, t2 = PAIRS[rng.integers(len(PAIRS))]
        a = rng.uniform(0.6, 4)
        eta = rng.uniform(-0.25, 0.25)
        vec = _middle_no_exp2_vec([np.array([v]) for v in pt], t, t2, a, eta)
        _, ln, lin, tr, e1, *_ = _coupling(pt[0], pt[1], 1, TREE_STATES.index(t), pt[2], pt[3],
                                           pt[4], pt[5], 1, TREE_STATES.index(t2), a, eta)
        scal = ln + lin + tr + e1 - eta * pt[3]  # all parts but h_exp2
        assert vec[0] == pytest.approx(scal, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("a,eta", [(0.8, -0.25), (1.0, 0.25), (1.0, 0.0), (5.0, 0.25)])
def test_middle_bound_sampled(a, eta):
    report = check_middle_bound(20_000, a, eta, rng=RngSpec(11), grid_step=10.0)
    assert report.passed
    assert report.min_margin >= -1e-9


def test_middle_bound_rejects_bad_eta():
    with pytest.raises(LadderError):
        check_middle_bound(10, 1.0, 0.3)


def test_boundary_bound_zero_point():
    # margin of the left bound at the zero point with T = C and a = 1
    report = check_boundary_bound(100, 1.0, "left", rng=RngSpec(5), radius=1e-12, grid_step=0)
    assert report.min_margin == pytest.approx(2.5 * math.log(2.0) + 1.0, abs=1e-6)


@pytest.mark.parametrize("target,check,args,dims", [
    ("h_exp1", check_middle_bound, (1.0, 0.0), 6),
    ("boundary_core_vec", check_boundary_bound, (1.0, "left"), 3),
])
def test_nan_margin_raises_naming_its_point(monkeypatch, target, check, args, dims):
    # one NaN margin in a block of finite ones: the scan must not skip the block
    energy = getattr(certificates, target)

    def poisoned(*energy_args):
        out = np.array(energy(*energy_args), dtype=float)
        out[5] = np.nan
        return out

    monkeypatch.setattr(certificates, target, poisoned)
    gen = RngSpec(5).generator()
    point = [float(gen.uniform(-50.0, 50.0, size=100)[5]) for _ in range(dims)]
    with pytest.raises(LadderError, match=r"NaN margin at uniform point") as err:
        check(100, *args, rng=RngSpec(5), grid_step=0)
    assert str(point) in str(err.value)


@pytest.mark.parametrize("extra", [
    [np.array([0.0, np.nan])] * 6,  # a NaN coordinate
    [np.array([0.0, np.inf])] * 6,
    [np.zeros(3)] * 5 + [np.zeros(1)],  # coordinates of different lengths
    [np.zeros(3)] * 5,  # five coordinates of a six-coordinate point
    np.zeros((6, 2, 2)),  # 2-D coordinates
    [[0.0, "x"]] * 6,
])
def test_malformed_extra_points_are_refused(extra):
    with pytest.raises(InputRefused, match="extra_points"):
        check_middle_bound(1, 1.0, 0.0, rng=RngSpec(3), grid_step=0, extra_points=extra)


@pytest.mark.parametrize("check,args", [(check_middle_bound, (1.0, 0.0)),
                                        (check_boundary_bound, (1.0, "left"))])
def test_negative_sample_counts_are_refused(check, args):
    with pytest.raises(InputRefused, match="samples must be >= 0"):
        check(-1, *args, grid_step=0)


@pytest.mark.parametrize("check,args", [(check_middle_bound, (1.0, 0.0)),
                                        (check_boundary_bound, (1.0, "left"))])
@pytest.mark.parametrize("bad,match", [
    (dict(samples=2.5), "samples must be >= 0 and an integer"),  # was a TypeError from PCG64.advance
    (dict(samples=True), "samples must be >= 0 and an integer"),
    (dict(radius=0.0), "radius must be finite and > 0"),
    (dict(radius=-1.0), "radius must be finite and > 0"),
    (dict(radius=math.inf), "radius must be finite and > 0"),  # was NumPy's OverflowError
    (dict(radius=math.nan), "radius must be finite and > 0"),
    (dict(grid_step=math.nan), "grid_step must be finite and >= 0"),  # silently meant no grid
    (dict(grid_step=-5.0), "grid_step must be finite and >= 0"),
    (dict(grid_step=math.inf), "grid_step must be finite and >= 0"),
])
def test_bad_scan_arguments_are_refused_before_the_scan(monkeypatch, check, args, bad, match):
    def no_scan(*_):
        raise AssertionError("the scan started")

    monkeypatch.setattr(certificates, "_uniform_blocks", no_scan)
    kwargs = {"samples": 10, "rng": RngSpec(5), **bad}
    with pytest.raises(InputRefused, match=match):
        check(kwargs.pop("samples"), *args, **kwargs)


@pytest.mark.parametrize("check,args", [(check_middle_bound, (1.0, 0.0)),
                                        (check_boundary_bound, (1.0, "left"))])
def test_scan_working_set_is_independent_of_the_sample_count(check, args):
    # the uniform points are streamed block by block: 10^6 samples hold what 10^4 do
    peaks = []
    for samples in (10**4, 10**6):
        tracemalloc.start()
        try:
            assert check(samples, *args, rng=RngSpec(1), grid_step=0).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 4e6
    assert peaks[1] - peaks[0] <= 1e6


def test_bound_violation_raises(monkeypatch):
    core = certificates.boundary_core_vec
    monkeypatch.setattr(certificates, "boundary_core_vec", lambda *args: core(*args) - 1e3)
    with pytest.raises(LadderError, match=r"boundary-bound a=1.0 side=left violated"):
        check_boundary_bound(100, 1.0, "left", rng=RngSpec(5), grid_step=0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_bound_critical_weight(side):
    report = check_boundary_bound(20_000, 0.75, side, rng=RngSpec(7))
    assert report.passed


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_bound_unit_weight(side):
    report = check_boundary_bound(20_000, 1.0, side, rng=RngSpec(9))
    assert report.passed
    assert report.details["rate"] == pytest.approx(1.0 / 12.0)


def test_gamma_derivatives_zero_when_signs_agree():
    assert gamma_derivatives(0.5, -1.0, 1, 2, 0.3, -0.2, 0.2, 0.7, 1, 3, 1.0, 0.5) == (0.0, 0.0)


def test_gamma_derivatives_match_finite_differences():
    # per sample: first derivative to 1e-6, second to 2e-4, relative to max(1, |fd|)
    worst1, worst2 = gamma_derivative_fd_errors(np.random.default_rng(13), 300, a_range=(0.8, 3.0))
    assert worst1 <= 1e-6
    assert worst2 <= 2e-4


@pytest.mark.parametrize("which", [0, 1])
def test_gamma_derivative_fd_errors_report_a_nan_derivative(monkeypatch, which):
    # max(worst, nan) kept worst, so one NaN derivative left the result unchanged
    honest = certificates.gamma_derivatives
    calls = iter(range(1000))

    def one_nan(*args):
        d = list(honest(*args))
        if next(calls) == 3:
            d[which] = math.nan
        return tuple(d)

    monkeypatch.setattr(certificates, "gamma_derivatives", one_nan)
    errors = gamma_derivative_fd_errors(np.random.default_rng(13), 10)
    assert math.isnan(errors[which]) and errors[1 - which] < 1e-4


def _derivative_excess(rng, a, count):
    """max over samples of |derivative| - sign-interaction energy."""
    out = -math.inf
    for _ in range(count):
        t, t2 = (TREE_STATES.index(c) for c in PAIRS[rng.integers(len(PAIRS))])
        xlo, xhi, xlo2, xhi2, z, gamma = (rng.normal(scale=3) for _ in range(6))
        fields = (xlo, xhi, -1, t, z, gamma, xlo2, xhi2, 1, t2, a)
        e2 = _coupling(*fields, 0.0)[5]
        for g in (-1.0, -0.5, 0.0, 0.5, 1.0):
            d1, d2 = gamma_derivatives(*fields, g)
            out = max(out, abs(d1) - e2, abs(d2) - e2)
    return out


def test_gamma_derivative_bound_calibrates_and_validates():
    # pilot run fixes the constant; ten fresh seeds must stay below it
    a = 1.0
    pilot = _derivative_excess(np.random.default_rng(100), a, 2000)
    c8_hat = max(pilot, 0.0) * 1.1
    for seed in range(10):
        fresh = _derivative_excess(np.random.default_rng(200 + seed), a, 500)
        assert fresh <= c8_hat + 1e-9


# ---------------------------------------------------------------------------
# the chunked coupling-bound scan that the block scan replaced, kept as the
# oracle: the whole grid materialised, 2^20-point chunks, and per chunk one
# margin array per letter pair


def _oracle_tree_piece(points, t, t2):
    xlo, xhi, z, gamma, xlo2, xhi2 = points
    u = 0.5 * (xlo + xhi)
    u2 = 0.5 * (xlo2 + xhi2)
    w = gamma + u2 - u
    h_tree = np.zeros_like(z)
    if t == "C":
        h_tree = h_tree + 0.5 * xlo
    elif t == "D":
        h_tree = h_tree + 0.5 * xhi
    if t2 == "C":
        h_tree = h_tree + 0.5 * xlo2
    elif t2 == "D":
        h_tree = h_tree + 0.5 * xhi2
    if t == "A":
        h_tree = h_tree + z - 0.5 * w - 0.5 * u
    elif t == "B":
        h_tree = h_tree + 0.5 * u
    if t2 == "A":
        h_tree = h_tree + 0.5 * u2
    elif t2 == "B":
        h_tree = h_tree + z + 0.5 * w - 0.5 * u2
    return h_tree


def _oracle_base(points, a, eta, rate):
    xlo, xhi, z, gamma, xlo2, xhi2 = points
    u = 0.5 * (xlo + xhi)
    u2 = 0.5 * (xlo2 + xhi2)
    w = gamma + u2 - u
    h_ln = 0.5 * (3.0 * a + 1.0) * (
        np.logaddexp(np.logaddexp(xlo + 0.5 * w, xlo2 - 0.5 * w), z)
        + np.logaddexp(np.logaddexp(xhi + 0.5 * w, xhi2 - 0.5 * w), z)
    )
    h_linear = -(a + 0.5) * (u + u2 + z)
    with np.errstate(over="ignore"):
        h_exp1 = 0.25 * (np.exp(-xlo) + np.exp(-xhi) + np.exp(-xlo2) + np.exp(-xhi2))
    rhs = rate * (np.abs(xlo) + np.abs(xhi) + np.abs(z) + np.abs(gamma) + np.abs(xlo2) + np.abs(xhi2))
    return h_ln + h_linear + h_exp1 - eta * gamma - rhs


def _oracle_grid(radius, step, dims):
    axis = np.arange(-radius, radius + 0.5 * step, step)
    grids = np.meshgrid(*([axis] * dims), indexing="ij", copy=False)
    return [g.reshape(-1) for g in grids]


def oracle_middle_scan(samples, a, eta, rng, radius=50.0, grid_radius=30.0, grid_step=5.0,
                       extra_points=None):
    """(min_margin, samples, worst) of the chunked scan, same draws."""
    rate = middle_growth_rate(a)
    gen = rng.generator()
    min_margin = math.inf
    worst = {}
    total = 0
    chunk = 1 << 20

    def scan(points, origin):
        nonlocal min_margin, worst, total
        npts = points[0].size
        for lo in range(0, npts, chunk):
            part = tuple(p[lo:lo + chunk] for p in points)
            base = _oracle_base(part, a, eta, rate)
            for t, t2 in PAIRS:
                margins = base + _oracle_tree_piece(part, t, t2)
                total += part[0].size
                k = int(np.argmin(margins))
                if margins[k] < min_margin:
                    min_margin = float(margins[k])
                    worst = {"pair": t + t2, "point": [float(p[k]) for p in part],
                             "origin": origin}

    uniform = [gen.uniform(-radius, radius, size=samples) for _ in range(6)]
    scan(uniform, "uniform")
    if grid_step > 0:
        scan(_oracle_grid(grid_radius, grid_step, 6), "grid")
    if extra_points is not None:
        scan([np.asarray(p, dtype=float) for p in extra_points], "extra")
    return min_margin, total, worst


def oracle_margin_at(worst, a, eta):
    """The chunked scan's margin at a reported worst point and pair."""
    point = tuple(np.array([v]) for v in worst["point"])
    base = _oracle_base(point, a, eta, middle_growth_rate(a))
    return float((base + _oracle_tree_piece(point, worst["pair"][0], worst["pair"][1]))[0])


# Bound-check goldens, recorded with the chunked scan.  A change to the
# sampled points, the margin arithmetic, the sample count or the tie rule
# shows here.  The verify entries are the byte-exact CLI outputs.
CERT_GOLDEN = json.loads((Path(__file__).parent / "certificates_golden.json").read_text())


def golden_extra(seed, count):
    return np.random.default_rng(seed).normal(scale=2.0, size=(6, count))


GOLDEN_BOUNDS = {
    "a0.8_eta-0.25": dict(a=0.8, eta=-0.25),
    "a0.8_eta-0.25_extra": dict(a=0.8, eta=-0.25, extra=(41, 2000)),
    "a1_eta0": dict(a=1.0, eta=0.0),
    "a1_eta0_extra": dict(a=1.0, eta=0.0, extra=(42, 2000)),
    "a5_eta0.25": dict(a=5.0, eta=0.25),
    "a5_eta0.25_extra": dict(a=5.0, eta=0.25, extra=(43, 2000)),
    # shaped like the sampler workload: full sample count, default grid
    "sampler": dict(a=1.0, eta=0.0, samples=100_000, grid_step=5.0, extra=(44, 5000)),
}
GOLDEN_VERIFY = {
    "verify middle-bound": ["verify", "--suite", "middle-bound", "--samples", "2000",
                            "--seed", "1", "--workers", "1"],
    "verify boundary-bound": ["verify", "--suite", "boundary-bound", "--samples", "2000",
                              "--seed", "1", "--workers", "1"],
}


def golden_bound(a, eta, samples=20_000, grid_step=10.0, extra=None):
    return check_middle_bound(samples, a, eta, rng=RngSpec(11), grid_step=grid_step,
                              extra_points=None if extra is None else golden_extra(*extra))


def bound_summary(report) -> dict:
    return {"min_margin": report.min_margin, "samples": report.samples,
            "passed": report.passed, "worst_point": report.worst_point}


def verify_text(tmp_path, args) -> str:
    out = tmp_path / "verify.json"
    assert run(args + ["--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_BOUNDS))
def test_middle_bound_golden(name):
    case = GOLDEN_BOUNDS[name]
    report = golden_bound(**case)
    assert bound_summary(report) == CERT_GOLDEN[name]
    assert oracle_margin_at(report.worst_point, case["a"], case["eta"]) == report.min_margin


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_bound_suites_golden(tmp_path, name):
    text = verify_text(tmp_path, GOLDEN_VERIFY[name])
    assert text == CERT_GOLDEN[name]
    doc = json.loads(text, parse_constant=lambda token: pytest.fail(f"non-standard token {token}"))
    assert doc["status"] == "ok" and len(doc["summary"]["checks"]) in (4, 9)


def test_margin_terms_match_the_chunked_arithmetic_bit_for_bit():
    gen = np.random.default_rng(17)
    points = gen.normal(scale=20.0, size=(6, 4000))
    points[:, :200] = -0.0  # 0 + (-0) is +0: the pieces start from zero
    points[:, 200:400] = np.round(points[:, 200:400])
    terms = _cell_terms(tuple(points))
    for t in TREE_STATES:
        for t2 in TREE_STATES:
            want = _oracle_tree_piece(tuple(points), t, t2)
            assert _tree_piece_vec(terms, t, t2).tobytes() == want.tobytes(), t + t2
    want = _oracle_base(tuple(points), 1.3, 0.1, 0.02)
    assert _middle_base_vec(tuple(points), terms, 1.3, 0.1, 0.02).tobytes() == want.tobytes()


@pytest.mark.parametrize("grid_step", [0.0, 7.5, 10.0, 15.0, 20.0])
def test_block_scan_matches_chunked_oracle(grid_step):
    # steps 7.5, 10, 15 and 20 give 9, 7, 5 and 4 points per axis: two, two,
    # one and no leading axes are filled per block
    gen = np.random.default_rng(int(4 * grid_step) + 600)
    for _ in range(3):
        a = float(gen.uniform(0.55, 6.0))
        eta = float(gen.uniform(-0.25, 0.25))
        seed = int(gen.integers(1 << 30))
        pts = gen.normal(scale=2.0, size=(6, 400))
        # duplicated points and xlo <-> xhi mirrored points tie with the originals
        extra = np.concatenate([pts, pts[:, :100], pts[[1, 0, 2, 3, 5, 4]]], axis=1)
        report = check_middle_bound(3000, a, eta, rng=RngSpec(seed), grid_step=grid_step,
                                    extra_points=extra)
        margin, samples, _ = oracle_middle_scan(3000, a, eta, RngSpec(seed), grid_step=grid_step,
                                                extra_points=extra)
        assert (report.min_margin, report.samples, report.passed) == (margin, samples, margin >= -1e-9)
        assert oracle_margin_at(report.worst_point, a, eta) == margin


# two leading axes per block in the first three cases, one in the fourth and
# none in the last two; the scans' default grid (step 5, six axes) fills
# three and is pinned by the goldens
@pytest.mark.parametrize("radius,step,dims", [(30.0, 7.5, 6), (30.0, 6.0, 5), (30.0, 10.0, 6),
                                              (30.0, 15.0, 6), (30.0, 5.0, 3), (30.0, 20.0, 6)])
def test_grid_blocks_are_the_grid_in_c_order(radius, step, dims):
    blocks = list(_grid_blocks(radius, step, dims))
    assert all(len(b) == dims and b[0].size <= _BLOCK for b in blocks)
    for coord, want in zip(zip(*blocks), _oracle_grid(radius, step, dims)):
        assert np.array_equal(np.concatenate(coord), want)


# ---------------------------------------------------------------------------
# the per-letter boundary scan that the shared scan driver replaced, kept as
# the oracle: the boundary energy written out per side and letter, whole
# sources, and per source one margin array per letter


def _oracle_boundary_core(xlo, xhi, z, t, a, side):
    u = 0.5 * (xlo + xhi)
    if side == "left":
        h_ln = a * np.logaddexp(xhi, z) + (a + 0.5) * (np.logaddexp(xlo, z) - u - z)
        sign_u, tree_a, tree_b = 0.25, 0.5 * u, z - 0.5 * u
    else:
        h_ln = (a + 0.5) * (np.logaddexp(xlo, z) + np.logaddexp(xhi, z) - u - z)
        sign_u, tree_a, tree_b = -0.25, z - 0.5 * u, 0.5 * u
    h_tree = np.zeros_like(h_ln) + {"A": tree_a, "B": tree_b, "C": 0.5 * xlo, "D": 0.5 * xhi}[t]
    return h_ln + h_tree + sign_u * u


def _oracle_boundary_margins(points, t, a, side):
    xlo, xhi, z = points
    core = _oracle_boundary_core(xlo, xhi, z, t, a, side)
    if a == 0.75:
        return core - 0.25 * z
    with np.errstate(over="ignore"):
        h_exp = 0.25 * (np.exp(-xlo) + np.exp(-xhi)) + 0.5 * np.exp(-z)
    return core + h_exp - boundary_growth_rate(a) * (np.abs(xlo) + np.abs(xhi) + np.abs(z))


def oracle_boundary_scan(samples, a, side, rng, radius=50.0, grid_radius=30.0, grid_step=5.0):
    """(min_margin, samples) of the per-letter scan, same draws."""
    gen = rng.generator()
    sources = [[gen.uniform(-radius, radius, size=samples) for _ in range(3)]]
    if grid_step > 0:
        sources.append(_oracle_grid(grid_radius, grid_step, 3))
    min_margin = math.inf
    total = 0
    for points in sources:
        for t in TREE_STATES:
            margins = _oracle_boundary_margins(points, t, a, side)
            total += margins.size
            min_margin = min(min_margin, float(np.min(margins)))
    return min_margin, total


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_scan_matches_per_letter_oracle(side):
    gen = np.random.default_rng(700 if side == "left" else 701)
    for a in [0.75, 1.0] + [float(v) for v in gen.uniform(0.76, 4.0, size=2)]:
        seed = int(gen.integers(1 << 30))
        # 40000 uniform points span two blocks; the grids hold xlo == xhi
        # points, where the letters C and D tie exactly
        for grid_step in (0.0, 5.0, 7.5):
            report = check_boundary_bound(40_000, a, side, rng=RngSpec(seed), grid_step=grid_step)
            margin, samples = oracle_boundary_scan(40_000, a, side, RngSpec(seed),
                                                   grid_step=grid_step)
            assert (report.min_margin, report.samples, report.passed) == (margin, samples,
                                                                         margin >= -1e-9)
            worst = report.worst_point
            point = tuple(np.array([v]) for v in worst["point"])
            assert float(_oracle_boundary_margins(point, worst["state"], a, side)[0]) == margin

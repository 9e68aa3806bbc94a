import math
from fractions import Fraction

import numpy as np
import pytest

from ladderlab.certificates import (
    PAIRS,
    BoundReport,
    check_boundary_bound,
    check_middle_bound,
    gamma_derivative_fd_errors,
    gamma_derivatives,
    minorant_certificate,
    middle_growth_rate,
    boundary_growth_rate,
    middle_no_exp2_vec,
    perturbed_minorant_residual,
    verify_linear_minorant,
)
from ladderlab.environment import (
    CycleSpin,
    HamiltonianParams,
    RungSpin,
    h_middle_parts,
    middle_energy_no_exp2,
)
from ladderlab.ladder import LadderError
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
    res = perturbed_minorant_residual("C", "C", "xlo", delta)
    assert res == -delta


def test_minorant_numeric_spot_check():
    # direct inequality at half initial weight on random 6-tuples
    rng = np.random.default_rng(2)
    params = HamiltonianParams(a=0.5001, eta=0.25)  # eta plays no role below
    for _ in range(1000):
        xlo, xhi, z, gamma, xlo2, xhi2 = rng.uniform(-20, 20, size=6)
        t, t2 = PAIRS[rng.integers(len(PAIRS))]
        parts = h_middle_parts(
            CycleSpin(xlo, xhi, 1, t), RungSpin(z, gamma), CycleSpin(xlo2, xhi2, 1, t2),
            HamiltonianParams(a=0.5, eta=0.25),
        )
        lhs = parts.h_ln + parts.h_linear + parts.h_tree - 0.25 * gamma
        c = minorant_certificate(t, t2)
        rhs = (
            float(c.kappa_lo) * xlo + float(c.kappa_hi) * xhi
            + float(c.kappa_lo2) * xlo2 + float(c.kappa_hi2) * xhi2
        )
        assert lhs >= rhs - 1e-9


def test_middle_bound_zero_point_margin():
    # the zero point with tree pair (C, C): bound left side is 4 ln 3 + 1
    val = middle_no_exp2_vec(*(np.zeros(1) for _ in range(6)), t="C", t2="C", a=1.0, eta=0.25)
    assert val[0] == pytest.approx(4 * math.log(3.0) + 1.0, rel=1e-12)


def test_middle_no_exp2_vec_matches_scalar():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pt = rng.uniform(-30, 30, size=6)
        t, t2 = PAIRS[rng.integers(len(PAIRS))]
        a = rng.uniform(0.6, 4)
        eta = rng.uniform(-0.25, 0.25)
        vec = middle_no_exp2_vec(*(np.array([v]) for v in pt), t=t, t2=t2, a=a, eta=eta)
        ti = "ABCD".index(t)
        t2i = "ABCD".index(t2)
        scal = middle_energy_no_exp2(pt[0], pt[1], ti, pt[2], pt[3], pt[4], pt[5], t2i, a, eta)
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
    c1 = CycleSpin(0.5, -1.0, 1, "C")
    c2 = CycleSpin(0.2, 0.7, 1, "D")
    assert gamma_derivatives(c1, RungSpin(0.3, -0.2), c2, 1.0, 0.5) == (0.0, 0.0)


def test_gamma_derivatives_match_finite_differences():
    # per sample: first derivative to 1e-6, second to 2e-4, relative to max(1, |fd|)
    worst1, worst2 = gamma_derivative_fd_errors(np.random.default_rng(13), 300, a_range=(0.8, 3.0))
    assert worst1 <= 1e-6
    assert worst2 <= 2e-4


def _derivative_excess(rng, a, count):
    """max over samples of |derivative| - sign-interaction energy."""
    out = -math.inf
    for _ in range(count):
        t, t2 = PAIRS[rng.integers(len(PAIRS))]
        c1 = CycleSpin(rng.normal(scale=3), rng.normal(scale=3), -1, t)
        c2 = CycleSpin(rng.normal(scale=3), rng.normal(scale=3), 1, t2)
        r = RungSpin(rng.normal(scale=3), rng.normal(scale=3))
        parts = h_middle_parts(c1, r, c2, HamiltonianParams(a, 0.0))
        for g in (-1.0, -0.5, 0.0, 0.5, 1.0):
            d1, d2 = gamma_derivatives(c1, r, c2, a, g)
            out = max(out, abs(d1) - parts.h_exp2, abs(d2) - parts.h_exp2)
    return out


def test_gamma_derivative_bound_calibrates_and_validates():
    # pilot run fixes the constant; ten fresh seeds must stay below it
    a = 1.0
    pilot = _derivative_excess(np.random.default_rng(100), a, 2000)
    c8_hat = max(pilot, 0.0) * 1.1
    for seed in range(10):
        fresh = _derivative_excess(np.random.default_rng(200 + seed), a, 500)
        assert fresh <= c8_hat + 1e-9


def test_bound_report_json():
    report = BoundReport(name="x", samples=3, min_margin=0.5)
    doc = report.to_json()
    assert doc["name"] == "x" and doc["samples"] == 3

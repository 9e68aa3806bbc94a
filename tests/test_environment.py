import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab.environment import (
    CycleSpin,
    EnvironmentPoint,
    HamiltonianParams,
    T_TO_INT,
    LadderError,
    RungSpin,
    SpinConfig,
    gibbs_identity_residual,
    h_left,
    h_middle,
    h_middle_parts,
    h_right,
    h_total,
    log_jacobian,
    log_phi,
    middle_energy_no_exp2,
    normalize_weights,
    psi_forward,
    psi_inverse,
    sigma_j,
)
from ladderlab.ladder import EdgeWeights, SpanningTreeCode


def random_spin(rng, n, scale=2.0, allow_ab=False):
    while True:
        t = "".join(rng.choice(list("ABCD"), size=n))
        if allow_ab or "AB" not in t:
            break
    return SpinConfig(
        z0=rng.normal(scale=scale),
        xlo=rng.normal(scale=scale, size=n),
        xhi=rng.normal(scale=scale, size=n),
        sigma=rng.choice([-1, 1], size=n),
        t=t,
        z=rng.normal(scale=scale, size=n - 1),
        gamma=rng.normal(scale=scale, size=n - 1),
        zn=rng.normal(scale=scale),
    )


def zero_spin(n, t=None, sigma=None):
    return SpinConfig(
        z0=0.0,
        xlo=np.zeros(n),
        xhi=np.zeros(n),
        sigma=np.ones(n, dtype=int) if sigma is None else sigma,
        t="C" * n if t is None else t,
        z=np.zeros(n - 1),
        gamma=np.zeros(n - 1),
        zn=0.0,
    )


# ---------------------------------------------------------------------------
# density


def test_log_phi_hand_value():
    # n=1, a=1, unit weights, y=0, code C: unit numerator, all four vertex
    # weights equal 2 with exponents 3/2, 1, 3/2, 3/2
    x = EdgeWeights(np.ones(4))
    val = log_phi(x, [0.0], "C", a=1.0)
    assert val == pytest.approx(-5.5 * math.log(2.0), rel=1e-14)


def test_log_phi_tree_factor():
    # doubling one tree edge weight moves log_phi by the edge's net exponent
    x = EdgeWeights(np.ones(4))
    base = log_phi(x, [0.3], "C", 1.0)
    # code C tree = {left rung, upper, right rung}; lower edge is off-tree
    x2 = np.ones(4)
    x2[2] = 2.0  # upper horizontal, in the tree
    val = log_phi(EdgeWeights(x2), [0.3], "C", 1.0)
    lhs = val - base
    # direct evaluation of the difference for this tiny case
    a = 1.0
    quad_base = 0.3**2 * (1 + 1 + 1 + 1)
    quad_new = 0.3**2 * (1 + 0.5 + 1 + 1)
    # weights x2 = [z0, lower, upper, z1] = [1, 1, 2, 1]
    v01 = 1 + 1  # z0 + lower
    v02 = 1 + 2  # z0 + upper
    v11 = 1 + 1  # lower + z1
    v12 = 2 + 1  # upper + z1
    expected = (
        (a - 1.5) * math.log(2.0)  # prefactor exponent on the changed edge
        + math.log(2.0)  # tree product
        - (a + 0.5) * math.log(v01 / 2)
        - a * math.log(v02 / 2)
        - (a + 0.5) * (math.log(v11 / 2) + math.log(v12 / 2))
        - 0.5 * (quad_new - quad_base)
    )
    assert lhs == pytest.approx(expected, rel=1e-12)


@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(0.05, 20.0),
    a=st.floats(0.76, 3.0),
)
@settings(max_examples=80, deadline=None)
def test_log_phi_scaling_law(n, seed, c, a):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 5.0, size=3 * n + 1)
    y = rng.normal(size=n)
    codes = [t for t in ("C" * n, "D" * n, "A" * n)]
    for code in codes:
        base = log_phi(EdgeWeights(vals), y, code, a)
        scaled = log_phi(EdgeWeights(c * vals), math.sqrt(c) * y, code, a)
        drop = -(3.5 * n + 1.0) * math.log(c)
        assert scaled - base == pytest.approx(drop, rel=1e-12, abs=1e-10)


def test_log_phi_finite_on_positive_inputs():
    rng = np.random.default_rng(7)
    for n in (1, 3):
        vals = rng.uniform(1e-4, 1e4, size=3 * n + 1)
        y = rng.normal(size=n)
        assert math.isfinite(log_phi(EdgeWeights(vals), y, "D" * n, 1.0))


def test_normalize_weights():
    x = EdgeWeights(np.full(4, 1.0))
    xs, ys = normalize_weights(x, [2.0], "simplex")
    assert xs.normalization == "simplex"
    assert np.allclose(xs.values, 0.25)
    assert ys[0] == pytest.approx(1.0)
    xr, yr = normalize_weights(xs, ys, "rung-zero-unit")
    assert xr.values[0] == 1.0
    assert np.allclose(xr.values, 1.0)
    # idempotence
    xr2, yr2 = normalize_weights(xr, yr, "rung-zero-unit")
    assert np.array_equal(xr.values, xr2.values)
    assert np.array_equal(yr, yr2)
    # transition ratios unchanged
    g_ratio = x.values[1] / (x.values[0] + x.values[1])
    s_ratio = xs.values[1] / (xs.values[0] + xs.values[1])
    assert g_ratio == pytest.approx(s_ratio, rel=1e-14)


# ---------------------------------------------------------------------------
# local energies


def test_middle_energy_infinite_on_forbidden_pair():
    params = HamiltonianParams(a=1.0, eta=0.25)
    c1 = CycleSpin(0.3, -0.2, 1, "A")
    c2 = CycleSpin(1.0, 0.5, -1, "B")
    assert h_middle(c1, RungSpin(0.1, -0.4), c2, params) == math.inf


def test_middle_energy_zero_point():
    params = HamiltonianParams(a=1.0, eta=0.25)
    c = CycleSpin(0.0, 0.0, 1, "C")
    val = h_middle(c, RungSpin(0.0, 0.0), c, params)
    assert val == pytest.approx(4.0 * math.log(3.0) + 1.0, rel=1e-14)
    for eta in (-0.25, 0.0, 0.1):
        alt = h_middle(c, RungSpin(0.0, 0.0), c, HamiltonianParams(1.0, eta))
        assert alt == pytest.approx(val, rel=1e-14)


@given(seed=st.integers(0, 2**32 - 1), eta=st.sampled_from([-0.25, 0.0, 0.125, 0.25]), a=st.floats(0.8, 4.0))
@settings(max_examples=120, deadline=None)
def test_middle_energy_reflection_symmetry(seed, eta, a):
    rng = np.random.default_rng(seed)
    flip = {"A": "B", "B": "A", "C": "C", "D": "D"}
    t1, t2 = rng.choice(list("ABCD")), rng.choice(list("ABCD"))
    c1 = CycleSpin(rng.normal(scale=3), rng.normal(scale=3), int(rng.choice([-1, 1])), t1)
    c2 = CycleSpin(rng.normal(scale=3), rng.normal(scale=3), int(rng.choice([-1, 1])), t2)
    r = RungSpin(rng.normal(scale=3), rng.normal(scale=3))
    lhs = h_middle(c1, r, c2, HamiltonianParams(a, eta))
    rhs = h_middle(
        CycleSpin(c2.xlo, c2.xhi, c2.sigma, flip[t2]),
        RungSpin(r.z, -r.gamma),
        CycleSpin(c1.xlo, c1.xhi, c1.sigma, flip[t1]),
        HamiltonianParams(a, -eta),
    )
    if math.isinf(lhs):
        assert math.isinf(rhs)
    else:
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)


def test_middle_parts_and_no_exp2():
    rng = np.random.default_rng(3)
    params = HamiltonianParams(1.0, 0.25)
    points = []
    for _ in range(50):
        c1 = CycleSpin(rng.normal(scale=4), rng.normal(scale=4), int(rng.choice([-1, 1])), rng.choice(list("ABCD")))
        c2 = CycleSpin(rng.normal(scale=4), rng.normal(scale=4), int(rng.choice([-1, 1])), rng.choice(list("ABCD")))
        points.append((c1, RungSpin(rng.normal(scale=4), rng.normal(scale=4)), c2))
    # saturated exponentials (|x| > 700), a saturated sign term and the AB pair
    points += [
        (CycleSpin(-720.0, 3.0, 1, "C"), RungSpin(0.5, -1.0), CycleSpin(1.0, 2.0, -1, "D")),
        (CycleSpin(2.0, 750.0, -1, "A"), RungSpin(-1.0, 0.3), CycleSpin(-705.0, 0.0, -1, "A")),
        (CycleSpin(0.2, -0.1, 1, "B"), RungSpin(-710.0, 2.0), CycleSpin(0.4, 0.3, -1, "C")),
        (CycleSpin(0.2, -0.1, 1, "A"), RungSpin(0.1, -0.4), CycleSpin(0.4, 0.3, -1, "B")),
    ]
    for c1, r, c2 in points:
        parts = h_middle_parts(c1, r, c2, params)
        total = h_middle(c1, r, c2, params)
        no_exp2 = middle_energy_no_exp2(c1.xlo, c1.xhi, T_TO_INT[c1.t], r.z, r.gamma,
                                        c2.xlo, c2.xhi, T_TO_INT[c2.t], params.a, params.eta)
        assert parts.total == total
        assert parts.total_no_exp2 == no_exp2
        if parts.constrained:
            assert total == no_exp2 == math.inf
            continue
        assert parts.h_exp2 >= 0.0
        if math.isfinite(total):
            assert parts.total_no_exp2 == pytest.approx(total - parts.h_exp2, rel=1e-10, abs=1e-10)
    assert h_middle_parts(*points[-1], params).constrained


def test_left_energy_zero_point():
    val = h_left(0.0, CycleSpin(0.0, 0.0, 1, "C"), a=1.0)
    assert val == pytest.approx(2.5 * math.log(2.0) + 1.0, rel=1e-14)


def test_right_energy_lower_bound_sample():
    # linear growth with rate 1/12 at a=1
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        xlo, xhi, zn = rng.uniform(-40, 40, size=3)
        t = rng.choice(list("ABCD"))
        val = h_right(CycleSpin(xlo, xhi, 1, t), zn, a=1.0)
        assert val >= (abs(xlo) + abs(xhi) + abs(zn)) / 12.0 - 1e-9


def test_boundary_energies_finite():
    for v in (-300.0, -5.0, 0.0, 5.0, 300.0):
        assert math.isfinite(h_left(v, CycleSpin(v, -v, 1, "A"), 1.0)) or v < -200
        assert not math.isnan(h_left(v, CycleSpin(v, -v, 1, "A"), 1.0))
        assert not math.isnan(h_right(CycleSpin(v, v, -1, "B"), -v, 1.0))


# ---------------------------------------------------------------------------
# total energy


def test_h_total_is_sum_of_pieces():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        omega = random_spin(rng, n)
        params = HamiltonianParams(1.3, 0.25)
        total = h_left(omega.z0, omega.cycle(1), 1.3)
        for i in range(1, n):
            total += h_middle(omega.cycle(i), omega.rung(i), omega.cycle(i + 1), params)
        total += h_right(omega.cycle(n), omega.zn, 1.3)
        assert h_total(omega, 1.3, 0) == pytest.approx(total, rel=1e-12)


def test_h_total_deformation_shift():
    rng = np.random.default_rng(9)
    omega = random_spin(rng, 6)
    for j in range(6):
        shift = h_total(omega, 1.0, j) - h_total(omega, 1.0, 0)
        assert shift == pytest.approx(sigma_j(omega, j), rel=1e-10, abs=1e-12)
    assert sigma_j(omega, 3) == pytest.approx(0.25 * float(np.sum(omega.gamma[:3])))


def test_h_total_infinite_on_adjacent_ab():
    omega = zero_spin(3, t="ABD")
    assert h_total(omega, 1.0, 0) == math.inf
    with pytest.raises(LadderError):
        h_total(zero_spin(3), 1.0, 3)


# ---------------------------------------------------------------------------
# change of variables


def test_psi_forward_zero_config():
    p = psi_forward(zero_spin(2))
    assert np.allclose(p.x.values, 1.0)
    assert np.allclose(p.y, 1.0)
    assert p.x.normalization == "rung-zero-unit"


def test_psi_forward_example():
    omega = SpinConfig(
        z0=2.0, xlo=np.zeros(1), xhi=np.zeros(1), sigma=np.array([1]),
        t="C", z=np.zeros(0), gamma=np.zeros(0), zn=0.0,
    )
    p = psi_forward(omega)
    e2 = math.exp(-2.0)
    assert p.x.values == pytest.approx([1.0, e2, e2, e2], rel=1e-14)
    assert p.y[0] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_psi_forward_rejects_forbidden():
    with pytest.raises(LadderError):
        psi_forward(zero_spin(2, t="AB"))


def test_psi_inverse_unit_point():
    x = EdgeWeights(np.ones(7), normalization="rung-zero-unit")
    p = EnvironmentPoint(x=x, y=np.ones(2), code=SpanningTreeCode("CC"))
    omega = psi_inverse(p)
    assert omega.z0 == 0.0
    assert np.allclose(omega.xlo, 0.0) and np.allclose(omega.xhi, 0.0)
    assert np.all(omega.sigma == 1)


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_psi_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    omega = random_spin(rng, n)
    p = psi_forward(omega)
    back = psi_inverse(p)
    assert back.z0 == pytest.approx(omega.z0, abs=1e-10)
    assert np.allclose(back.xlo, omega.xlo, atol=1e-10)
    assert np.allclose(back.xhi, omega.xhi, atol=1e-10)
    assert np.array_equal(back.sigma, omega.sigma)
    assert back.t == omega.t
    assert np.allclose(back.z, omega.z, atol=1e-10)
    assert np.allclose(back.gamma, omega.gamma, atol=1e-10)
    assert back.zn == pytest.approx(omega.zn, abs=1e-10)
    # forward again
    p2 = psi_forward(back)
    assert np.allclose(p2.x.values, p.x.values, rtol=1e-9)
    assert np.allclose(p2.y, p.y, rtol=1e-9)


def test_w_accessor_matches_y_ratio():
    rng = np.random.default_rng(17)
    omega = random_spin(rng, 5)
    p = psi_forward(omega)
    w = omega.w()
    for i in range(4):
        assert w[i] == pytest.approx(math.log(p.y[i] ** 2 / p.y[i + 1] ** 2), rel=1e-9, abs=1e-9)


def test_environment_point_validation():
    x = EdgeWeights(np.ones(4), normalization="rung-zero-unit")
    with pytest.raises(LadderError):
        EnvironmentPoint(x=x, y=np.zeros(1), code=SpanningTreeCode("A"))
    bad = EdgeWeights(np.ones(4))
    with pytest.raises(LadderError):
        EnvironmentPoint(x=bad, y=np.ones(1), code=SpanningTreeCode("A"))


# ---------------------------------------------------------------------------
# Jacobian


def test_log_jacobian_zero_config():
    for n in (1, 2, 5):
        assert log_jacobian(zero_spin(n)) == pytest.approx(-n * math.log(2.0), rel=1e-14)


def test_log_jacobian_example():
    omega = SpinConfig(
        z0=2.0, xlo=np.zeros(1), xhi=np.zeros(1), sigma=np.array([1]),
        t="C", z=np.zeros(0), gamma=np.zeros(0), zn=0.0,
    )
    assert log_jacobian(omega) == pytest.approx(math.log(0.5) - 7.0, rel=1e-13)


def _fd_jacobian_logdet(omega: SpinConfig, step=1e-5) -> float:
    """Finite-difference log |det| of the continuous part of psi_forward
    with one Richardson extrapolation step."""
    n = omega.n

    def pack(om):
        return np.concatenate([[om.z0], om.xlo, om.xhi, om.z, om.gamma, [om.zn]])

    def unpack(vec):
        k = 1 + 2 * n
        return SpinConfig(
            z0=vec[0], xlo=vec[1:1 + n], xhi=vec[1 + n:k],
            sigma=omega.sigma, t=omega.t,
            z=vec[k:k + n - 1], gamma=vec[k + n - 1:k + 2 * (n - 1)],
            zn=vec[-1],
        )

    def outputs(vec):
        p = psi_forward(unpack(vec))
        return np.concatenate([p.x.values[1:], p.y])

    x0 = pack(omega)
    dim = x0.size

    def jac(h):
        cols = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            cols.append((outputs(x0 + e) - outputs(x0 - e)) / (2 * h))
        return np.array(cols).T

    d1 = jac(step)
    d2 = jac(step / 2)
    richardson = (4.0 * d2 - d1) / 3.0
    sign, logdet = np.linalg.slogdet(richardson)
    assert sign != 0
    return logdet


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_log_jacobian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2):
        omega = random_spin(rng, n, scale=0.8)
        closed = log_jacobian(omega)
        fd = _fd_jacobian_logdet(omega)
        assert fd == pytest.approx(closed, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# the change-of-variables identity


def test_gibbs_identity_zero_config():
    assert abs(gibbs_identity_residual(zero_spin(1), 1.0)) < 1e-12
    assert abs(gibbs_identity_residual(zero_spin(2), 1.0)) < 1e-12


def test_gibbs_identity_random_sweep():
    rng = np.random.default_rng(23)
    worst = 0.0
    for n in (1, 2, 5):
        for a in (0.8, 1.0, 2.0):
            for _ in range(200):
                omega = random_spin(rng, n, scale=2.5)
                worst = max(worst, abs(gibbs_identity_residual(omega, a)))
    assert worst < 1e-9


def test_gibbs_identity_sign_flip_invariance():
    # a global sign flip keeps every neighbor product, so both sides and the
    # residual are unchanged; a suffix flip moves the energy but the residual
    # stays at zero because both sides move together
    rng = np.random.default_rng(31)
    omega = random_spin(rng, 5)
    base = gibbs_identity_residual(omega, 1.0)

    def with_sigma(sig):
        return SpinConfig(
            z0=omega.z0, xlo=omega.xlo, xhi=omega.xhi, sigma=sig, t=omega.t,
            z=omega.z, gamma=omega.gamma, zn=omega.zn,
        )

    global_flip = with_sigma(-omega.sigma)
    assert gibbs_identity_residual(global_flip, 1.0) == base
    assert h_total(global_flip, 1.0, 0) == h_total(omega, 1.0, 0)

    sig = omega.sigma.copy()
    sig[2:] *= -1
    suffix_flip = with_sigma(sig)
    assert h_total(suffix_flip, 1.0, 0) != h_total(omega, 1.0, 0)
    assert abs(gibbs_identity_residual(suffix_flip, 1.0)) < 1e-9


def test_gibbs_identity_rejects_forbidden():
    with pytest.raises(LadderError):
        gibbs_identity_residual(zero_spin(2, t="AB"), 1.0)


def test_spin_config_json_round_trip():
    rng = np.random.default_rng(41)
    omega = random_spin(rng, 3)
    doc = json.loads(json.dumps(omega.to_json()))
    back = SpinConfig.from_json(doc)
    assert back.t == omega.t
    assert np.allclose(back.xlo, omega.xlo)
    p = psi_forward(omega)
    pdoc = json.loads(json.dumps(p.to_json()))
    pback = EnvironmentPoint.from_json(pdoc)
    assert np.allclose(pback.x.values, p.x.values)

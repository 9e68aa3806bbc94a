import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab.environment import (
    T_TO_INT,
    EnvironmentPoint,
    LadderError,
    SpinConfig,
    _exp,
    boundary_core_vec,
    coupling_parts,
    gibbs_identity_residual,
    h_exp1,
    h_exp2,
    h_linear,
    h_total,
    h_tree,
    left_energy,
    log_jacobian,
    log_phi,
    middle_energy,
    psi_forward,
    psi_inverse,
    right_energy,
    tree_letter,
)
from ladderlab.ladder import EdgeWeights, SpanningTreeCode
from ladderlab.transfer import log_mass


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


def _log_phi_one_cell(u1, u2, u3, a):
    """log_phi of the one-cell ladder at y = 0 for each tree letter, with the
    left rung pinned to 1 and log weights u1, u2, u3 on the lower edge, the
    upper edge and the right rung (arrays broadcast)."""
    x1, x2, x3 = np.exp(u1), np.exp(u2), np.exp(u3)
    base = ((a - 1.5) * (u1 + u2 + u3) - (a + 0.5) * np.log1p(x1) - a * np.log1p(x2)
            - (a + 0.5) * (np.log(x1 + x3) + np.log(x2 + x3)))
    return {"A": base + u1 + u2, "B": base + u1 + u2 + u3, "C": base + u2 + u3, "D": base + u1 + u3}


def _one_cell_mass(a, nodes=160, lo=-30.0, hi=24.0):
    """The integral of phi over y and the three free weights of the one-cell
    ladder, summed over the codes A-D: Gauss-Legendre nodes in the log
    weights, y integrated in closed form (a Gaussian of precision
    1 + 1/x1 + 1/x2 + 1/x3), one lower-edge node at a time."""
    gl_n, gl_w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gl_n
    w = 0.5 * (hi - lo) * gl_w
    u2, u3, w23 = u[:, None], u[None, :], w[:, None] * w[None, :]
    total = 0.0
    for u1, w1 in zip(u, w):
        precision = 1.0 + np.exp(-u1) + np.exp(-u2) + np.exp(-u3)
        log_rest = 0.5 * np.log(2.0 * np.pi / precision) + u1 + u2 + u3  # y and the log-axis measure
        f = sum(np.exp(lp + log_rest) for lp in _log_phi_one_cell(u1, u2, u3, a).values())
        total += w1 * float((w23 * f).sum())
    return total


@pytest.mark.parametrize("a", [0.8, 1.0, 2.0, 4.0])
def test_one_cell_mass_is_the_keane_rolles_normalizer(a):
    # the quadrature's integrand is the production density before it is trusted
    gen = np.random.default_rng(11)
    for _ in range(10):
        u1, u2, u3 = gen.uniform(-3, 3, size=3)
        y, b = gen.normal(), gen.uniform(0.8, 4.0)
        x = EdgeWeights(np.exp([0.0, u1, u2, u3]))
        precision = 1.0 + math.exp(-u1) + math.exp(-u2) + math.exp(-u3)
        for code, lp in _log_phi_one_cell(u1, u2, u3, b).items():
            assert log_phi(x, [y], code, b) == pytest.approx(lp - 0.5 * precision * y * y, rel=1e-12)
    # half the chain's mass Z_1, since exp(-H) = 2^n phi J and psi is a bijection
    assert abs(math.log(_one_cell_mass(a)) - (log_mass(1, a) - math.log(2.0))) < 1e-6


# ---------------------------------------------------------------------------
# local energies


def test_middle_energy_infinite_on_forbidden_pair():
    assert middle_energy(0.3, -0.2, 1, 0, 0.1, -0.4, 1.0, 0.5, -1, 1, 1.0, 0.25) == math.inf


def test_middle_energy_zero_point():
    val = middle_energy(0.0, 0.0, 1, 2, 0.0, 0.0, 0.0, 0.0, 1, 2, 1.0, 0.25)
    assert val == pytest.approx(4.0 * math.log(3.0) + 1.0, rel=1e-14)
    for eta in (-0.25, 0.0, 0.1):
        alt = middle_energy(0.0, 0.0, 1, 2, 0.0, 0.0, 0.0, 0.0, 1, 2, 1.0, eta)
        assert alt == pytest.approx(val, rel=1e-14)


@given(seed=st.integers(0, 2**32 - 1), eta=st.sampled_from([-0.25, 0.0, 0.125, 0.25]), a=st.floats(0.8, 4.0))
@settings(max_examples=120, deadline=None)
def test_middle_energy_reflection_symmetry(seed, eta, a):
    rng = np.random.default_rng(seed)
    flip = (1, 0, 2, 3)  # A <-> B
    t1, t2 = (T_TO_INT[rng.choice(list("ABCD"))] for _ in range(2))
    xlo, xhi, s1 = rng.normal(scale=3), rng.normal(scale=3), int(rng.choice([-1, 1]))
    xlo2, xhi2, s2 = rng.normal(scale=3), rng.normal(scale=3), int(rng.choice([-1, 1]))
    z, gamma = rng.normal(scale=3), rng.normal(scale=3)
    lhs = middle_energy(xlo, xhi, s1, t1, z, gamma, xlo2, xhi2, s2, t2, a, eta)
    rhs = middle_energy(xlo2, xhi2, s2, flip[t2], z, -gamma, xlo, xhi, s1, flip[t1], a, -eta)
    if math.isinf(lhs):
        assert math.isinf(rhs)
    else:
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)


def parts_at(xlo, xhi, ss, t, z, gamma, xlo2, xhi2, ss2, t2, a, eta):
    """``coupling_parts`` at a point given in ``middle_energy``'s argument order."""
    return coupling_parts(xlo, xhi, 0.5 * (xlo + xhi), _exp(-xlo), _exp(-xhi),
                          xlo2, xhi2, 0.5 * (xlo2 + xhi2), _exp(-xlo2), _exp(-xhi2),
                          z, gamma, ss * ss2, t, t2, a, eta)


def coupling_points():
    """Points in ``middle_energy``'s argument order, without a and eta: random
    ones, then saturated exponentials (|x| > 700), a saturated sign term and
    the forbidden pair (A, B)."""
    rng = np.random.default_rng(3)

    def cell():
        return (rng.normal(scale=4), rng.normal(scale=4), int(rng.choice([-1, 1])),
                T_TO_INT[rng.choice(list("ABCD"))])

    points = []
    for _ in range(50):
        c1, c2 = cell(), cell()
        points.append((*c1, rng.normal(scale=4), rng.normal(scale=4), *c2))
    return points + [
        (-720.0, 3.0, 1, 2, 0.5, -1.0, 1.0, 2.0, -1, 3),
        (2.0, 750.0, -1, 0, -1.0, 0.3, -705.0, 0.0, -1, 0),
        (0.2, -0.1, 1, 1, -710.0, 2.0, 0.4, 0.3, -1, 2),
        (0.2, -0.1, 1, 0, 0.1, -0.4, 0.4, 0.3, -1, 1),
    ]


def allowed_points():
    return [pt for pt in coupling_points() if (pt[3], pt[9]) != (0, 1)]


def test_coupling_parts_total_is_middle_energy():
    points = coupling_points()
    assert any(math.isinf(_exp(-pt[0])) for pt in points)
    for pt in points:
        if (pt[3], pt[9]) == (0, 1):
            assert middle_energy(*pt, 1.0, 0.25) == math.inf
        else:
            assert parts_at(*pt, 1.0, 0.25)[6] == middle_energy(*pt, 1.0, 0.25)


def test_coupling_parts_and_no_exp2():
    for pt in allowed_points():
        w, ln, lin, tr, e1, e2, total = parts = parts_at(*pt, 1.0, 0.25)
        assert w == pt[5] + 0.5 * (pt[6] + pt[7]) - 0.5 * (pt[0] + pt[1])
        assert e2 >= 0.0
        # the sign term is the only part that reads the signs
        flipped = parts_at(*pt[:2], -pt[2], *pt[3:], 1.0, 0.25)
        assert flipped[:5] == parts[:5]
        if math.isfinite(total):
            no_exp2 = ln + lin + tr + e1 - 0.25 * pt[5]
            assert no_exp2 == pytest.approx(total - e2, rel=1e-10, abs=1e-10)


def test_tree_letter_moves_only_h_tree_and_the_total():
    # the sampler's tree move keeps the cached parts and re-totals them with
    # the new h_tree: that must be the full recomputation, bit for bit
    moves = 0
    for pt in allowed_points():
        parts = parts_at(*pt, 1.0, 0.25)
        for t in {0, 1, 2, 3} - {pt[3]} - ({0} if pt[9] == 1 else set()):
            moved = parts_at(*pt[:3], t, *pt[4:], 1.0, 0.25)
            assert moved[:3] + moved[4:6] == parts[:3] + parts[4:6]
            assert moved[6] == parts[1] + parts[2] + moved[3] + parts[4] + parts[5] - 0.25 * pt[5]
            moves += moved[3] != parts[3]
    assert moves > 100


def _parts_from_helpers(xlo, xhi, ss, t, z, gamma, xlo2, xhi2, ss2, t2, a, eta):
    """The coupling's parts from the one-line part functions, in the order
    ``coupling_parts`` writes them out."""
    u, u2 = 0.5 * (xlo + xhi), 0.5 * (xlo2 + xhi2)
    w = gamma + u2 - u
    lin = h_linear(u, u2, z, a)
    tr = tree_letter(t, xlo, xhi, u, z - 0.5 * w, 0) + tree_letter(t2, xlo2, xhi2, u2, z + 0.5 * w, 1)
    e1 = h_exp1(_exp(-xlo), _exp(-xhi), _exp(-xlo2), _exp(-xhi2))
    e2 = h_exp2(w, z, ss * ss2)
    assert tr == h_tree(t, xlo, xhi, u, z, w, t2, xlo2, xhi2, u2)
    return w, lin, tr, e1, e2


def test_coupling_parts_match_the_part_functions_bit_for_bit():
    """``coupling_parts`` writes out h_linear, the tree letters, h_exp1 and
    the total: on every branch they must be the part functions' bits."""
    points = [pt[:3] + (t,) + pt[4:9] + (t2,) for pt in coupling_points()
              for t in range(4) for t2 in range(4)]  # all 16 letter pairs
    # w = 0 with agreeing signs (h_exp2 = 0), h_exp2 overflowing to inf and
    # z the maximum of both rails' log-sum-exp
    points += [(1.0, 3.0, 1, 2, 0.5, 0.0, 1.0, 3.0, 1, 3), (1.0, 3.0, -1, 0, -760.0, 0.0, 1.0, 3.0, 1, 3),
               (-2.0, 0.5, 1, 3, 9.0, 1.5, 0.25, -1.0, -1, 0)]
    kinds = set()
    for pt in points:
        for a, eta in ((1.0, 0.25), (0.7, 0.0)):
            w, ln, lin, tr, e1, e2, total = parts_at(*pt, a, eta)
            want = _parts_from_helpers(*pt, a, eta)
            want += (ln + want[1] + want[2] + want[3] + want[4] + -eta * pt[5],)
            assert [v.hex() for v in (w, lin, tr, e1, e2, total)] == [v.hex() for v in want], pt
            kinds |= {("w0", w == 0.0 and pt[2] == pt[8]), ("inf", e2 == math.inf)}
            hw = 0.5 * w
            kinds.add(("z max", pt[4] >= max(pt[0] + hw, pt[6] - hw, pt[1] + hw, pt[7] - hw)))
    assert {("w0", True), ("inf", True), ("z max", True)} <= kinds


def test_left_energy_zero_point():
    val = left_energy(0.0, 0.0, 0.0, 2, a=1.0)
    assert val == pytest.approx(2.5 * math.log(2.0) + 1.0, rel=1e-14)


def test_right_energy_lower_bound_sample():
    # linear growth with rate 1/12 at a=1
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        xlo, xhi, zn = rng.uniform(-40, 40, size=3)
        t = T_TO_INT[rng.choice(list("ABCD"))]
        val = right_energy(xlo, xhi, t, zn, a=1.0)
        assert val >= (abs(xlo) + abs(xhi) + abs(zn)) / 12.0 - 1e-9


def test_boundary_energies_finite():
    for v in (-300.0, -5.0, 0.0, 5.0, 300.0):
        assert math.isfinite(left_energy(v, v, -v, 0, 1.0)) or v < -200
        assert not math.isnan(left_energy(v, v, -v, 0, 1.0))
        assert not math.isnan(right_energy(v, v, 1, -v, 1.0))


@pytest.mark.parametrize("a", [0.75, 1.0, 3.2])
@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_core_vec_matches_scalar_energy(side, a):
    """The array boundary energy plus its exponential part is the scalar
    ``left_energy`` / ``right_energy``, letter by letter."""
    rng = np.random.default_rng(31)
    xlo, xhi, z = rng.normal(scale=4.0, size=(3, 2000))
    h_exp = 0.25 * (np.exp(-xlo) + np.exp(-xhi)) + 0.5 * np.exp(-z)
    for t in range(4):
        vec = boundary_core_vec(xlo, xhi, z, t, a, side) + h_exp
        if side == "left":
            want = np.array([left_energy(c, l, h, t, a) for l, h, c in zip(xlo, xhi, z)])
        else:
            want = np.array([right_energy(l, h, t, c, a) for l, h, c in zip(xlo, xhi, z)])
        assert np.max(np.abs(vec - want) / np.abs(want)) < 1e-12, "ABCD"[t]


# ---------------------------------------------------------------------------
# total energy


def test_h_total_is_sum_of_pieces():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        omega = random_spin(rng, n)
        t = [T_TO_INT[c] for c in omega.t]
        cells = [(omega.xlo[i], omega.xhi[i], omega.sigma[i], t[i]) for i in range(n)]
        total = left_energy(omega.z0, omega.xlo[0], omega.xhi[0], t[0], 1.3)
        for i in range(n - 1):
            total += middle_energy(*cells[i], omega.z[i], omega.gamma[i], *cells[i + 1], 1.3, 0.25)
        total += right_energy(omega.xlo[-1], omega.xhi[-1], t[-1], omega.zn, 1.3)
        assert h_total(omega, 1.3, 0) == pytest.approx(total, rel=1e-12)


def test_h_total_deformation_shift():
    rng = np.random.default_rng(9)
    omega = random_spin(rng, 6)
    for j in range(6):
        # the first j couplings lose their -gamma/4
        shift = h_total(omega, 1.0, j) - h_total(omega, 1.0, 0)
        assert shift == pytest.approx(0.25 * float(np.sum(omega.gamma[:j])), rel=1e-10, abs=1e-12)


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


def _psi_forward_loops(omega):
    """Reference weights of psi_forward: per-cell math.exp over the edge
    indices 3(i-1)+k."""
    n, yfield = omega.n, omega.y()
    vals = np.empty(3 * n + 1)
    vals[0] = 1.0
    for i in range(1, n + 1):
        vals[3 * (i - 1) + 1] = math.exp(omega.xlo[i - 1] + yfield[i - 1])
        vals[3 * (i - 1) + 2] = math.exp(omega.xhi[i - 1] + yfield[i - 1])
    for i in range(1, n):
        vals[3 * (i - 1) + 3] = math.exp(omega.z[i - 1] + 0.5 * (yfield[i - 1] + yfield[i]))
    vals[3 * n] = math.exp(omega.zn + yfield[n - 1])
    return vals


def _psi_inverse_loops(point):
    """Reference fields of psi_inverse: per-cell math.log of the weights read
    through the EdgeWeights accessors."""
    n, x, y = point.n, point.x, point.y
    y2 = y * y
    return {
        "xlo": [math.log(x.lower(i) / y2[i - 1]) for i in range(1, n + 1)],
        "xhi": [math.log(x.upper(i) / y2[i - 1]) for i in range(1, n + 1)],
        "z0": -math.log(y2[0]),
        "z": [math.log(x.rung(i) / abs(y[i - 1] * y[i])) for i in range(1, n)],
        "zn": math.log(x.rung(n) / y2[n - 1]),
        "gamma": [0.5 * (math.log(x.lower(i) / x.lower(i + 1)) + math.log(x.upper(i) / x.upper(i + 1)))
                  for i in range(1, n)],
    }


def test_psi_bits_match_per_cell_loops():
    # bit for bit, not approx: np.exp and np.log can differ from math.exp and
    # math.log in the last bit, and every sampled environment passes psi
    rng = np.random.default_rng(24)
    for n in range(1, 17):
        for k in range(12):
            omega = random_spin(rng, n, scale=(0.5, 2.5, 6.0)[k % 3])
            point = psi_forward(omega)
            assert point.x.values.tolist() == _psi_forward_loops(omega).tolist(), (n, k)
            back = psi_inverse(point)
            for name, want in _psi_inverse_loops(point).items():
                got = np.asarray(getattr(back, name)).tolist()
                assert got == np.asarray(want).tolist(), (n, k, name)


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_log_jacobian_matches_finite_differences(seed):
    # in the coordinates (log x without the pinned left rung, log|y|) psi is affine in
    # the spin coordinates (z0, xlo, xhi, z, gamma, zn), so a central difference
    # resolves its determinant to rounding:
    # log|det D psi| = log|det D log psi| + sum log x + sum log|y|
    rng = np.random.default_rng(seed)
    h = 1e-6
    for n in (1, 2, 3):
        omega = random_spin(rng, n, scale=0.8)
        k = 1 + 2 * n

        def logs(vec):
            p = psi_forward(SpinConfig(
                z0=vec[0], xlo=vec[1:1 + n], xhi=vec[1 + n:k], sigma=omega.sigma, t=omega.t,
                z=vec[k:k + n - 1], gamma=vec[k + n - 1:k + 2 * (n - 1)], zn=vec[-1]))
            return np.log(np.concatenate([p.x.values[1:], np.abs(p.y)]))

        x0 = np.concatenate([[omega.z0], omega.xlo, omega.xhi, omega.z, omega.gamma, [omega.zn]])
        jac = np.array([(logs(x0 + e) - logs(x0 - e)) / (2 * h) for e in h * np.eye(x0.size)]).T
        sign, logdet = np.linalg.slogdet(jac)
        assert sign != 0
        assert abs(logdet + logs(x0).sum() - log_jacobian(omega)) < 1e-7


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

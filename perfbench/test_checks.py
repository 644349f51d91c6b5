"""Self-tests of the benchmark's checks and references.

Each check is shown to accept a correct output and to reject a corrupted
one. The outputs are built from the references alone, so these tests do not
need the package. Run with ``python3 -m pytest perfbench -q``.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy import optimize, special

import checks
import reference as ref
from checks import CheckFailure


# ----------------------------------------------------------------------
# references against closed forms
# ----------------------------------------------------------------------


@pytest.mark.parametrize("u", [0.4, 2.0, 7.5])
def test_qn_quadrature_matches_closed_forms(u):
    assert ref.qn_quad(3, u) == pytest.approx(4.0 * math.pi * (1.0 - math.cos(u)), rel=1e-11)
    # n = 4: the integrand is J_1, so Q_4(u) = 4 pi^2 (1 - J_0(u))
    assert ref.qn_quad(4, u) == pytest.approx(4.0 * math.pi**2 * (1.0 - special.j0(u)), rel=1e-11)


def test_exact_radii():
    assert ref.torus_single_radius((3, 4)) == pytest.approx(1.0 / 20.0)
    assert ref.sphere_single_radius(2) == pytest.approx(math.acos(1.0 / math.sqrt(3.0)))


def test_spherical_mean_in_three_dimensions():
    # the mean of cos(<k, y>) over a sphere of radius s about 0 is sin(|k|s)/(|k|s)
    waves = [(np.array([0.0, 0.0, 2.0]), 1.0, 0.0)]
    assert ref.spherical_mean(waves, 4.0, np.zeros(3), 0.7) == pytest.approx(math.sin(1.4) / 1.4)


def test_funk_hecke_of_constant_kernel_is_surface_area():
    # lambda_0 of g = 1 on [-1, 1] is the area of S^(d-1)
    for d in (3, 4, 5):
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        assert ref.funk_hecke(lambda t: 1.0, (-1.0, 1.0), 0, d) == pytest.approx(area, rel=1e-10)


# ----------------------------------------------------------------------
# sign-free balls
# ----------------------------------------------------------------------

TORUS_TERMS = [((5,), 1.0, 0.0)]  # cos(2 pi 5 x): sign-free radius 1/20 around x = 0
TORUS_BOUNDS = (("theorem1", ref.theorem1_bound(1, [(5,)])), ("kozma", ref.kozma_bound([(5,), (-5,)])))


def _torus_check(r_lower, res=400):
    checks.check_sign_ball("torus", r_lower, r_lower + 1.0 / res, TORUS_BOUNDS,
                           lambda p: ref.cosine_sum(TORUS_TERMS, p), "torus", 1, res,
                           (0.0,), 1.0)


def test_torus_ball_accepts_exact_radius():
    _torus_check(0.05)
    checks.check_exact_radius("torus", 0.05 - 0.5 / 400, 0.05, 1.0 / 400)


def test_torus_ball_rejects_radius_past_bound():
    with pytest.raises(CheckFailure, match="bound"):
        _torus_check(TORUS_BOUNDS[1][1] * 1.01)


def test_torus_ball_rejects_radius_over_opposite_sign():
    # below both bounds, but samples at |x| in (0.05, 0.08) are negative
    with pytest.raises(CheckFailure, match="opposite sign"):
        _torus_check(0.08)


def test_exact_radius_rejects_inflation_past_a_diagonal():
    with pytest.raises(CheckFailure, match="exact"):
        checks.check_exact_radius("torus", 0.05 + 2.0 / 400, 0.05, 1.0 / 400)


def test_sphere_ball_checks():
    degree, res = 6, 64
    pole = np.array([0.0, 0.0, 1.0])
    zonal = [(degree, pole, 1.0)]
    exact = ref.sphere_single_radius(degree)
    bounds = (("theorem2", ref.theorem2_bound(3, [degree])),)
    diag = 2.0 * math.sqrt(4.0 * math.pi / res**2)

    def run(r):
        checks.check_sign_ball("sphere", r, r + diag, bounds, lambda p: ref.zonal_sum(zonal, p),
                               "sphere", 3, res, pole, 1.0)
        checks.check_exact_radius("sphere", r, exact, diag)

    run(exact * 0.999)
    with pytest.raises(CheckFailure):
        run(exact + 1.5 * diag)


def test_box_ball_rejects_radius_over_opposite_sign():
    waves = [(np.array([1.0, 0.0]), 1.0, 0.0)]  # cos(x): slabs of half-width pi/2
    lo, hi = (-4.0, -4.0), (4.0, 4.0)
    args = ((("theorem3", ref.theorem3_bound([1.0])),), lambda p: ref.plane_wave_sum(waves, p),
            "box", 2, 81, (0.0, 0.0), 1.0, lo, hi)
    checks.check_sign_ball("box", 1.5, 1.6, *args)
    with pytest.raises(CheckFailure, match="opposite sign"):
        checks.check_sign_ball("box", 2.0, 2.1, *args)


# ----------------------------------------------------------------------
# quadrature outputs
# ----------------------------------------------------------------------


def test_ball_integral_off_by_one_percent_is_rejected():
    waves = [(np.array([1.0, 0.0, 0.0]), 1.0, 0.0)]
    want = ref.coulomb_ball(waves, 1.0, np.zeros(3), math.pi)  # 8 pi
    assert want == pytest.approx(8.0 * math.pi)
    checks.check_close("coulomb", want * (1.0 + 1e-7), want, 1e-5)
    with pytest.raises(CheckFailure):
        checks.check_close("coulomb", want * 1.01, want, 1e-5)


def test_zero_balance_and_wave_at_t_star():
    checks.check_small("zero balance", 3e-9, 1e-7)
    with pytest.raises(CheckFailure):
        checks.check_small("zero balance", 2e-7, 1e-7)
    lam = 4.0
    waves = [(np.array([0.0, 2.0]), 1.3, 0.4)]
    t_star = 2.0 * math.pi / math.sqrt(lam)
    assert abs(ref.wave_field([(lam, waves)], np.array([0.2, -0.1]), t_star)) < 1e-15
    with pytest.raises(CheckFailure):
        checks.check_small("u(t*)", 1e-4, 1e-5)


def _true_annihilator(m):
    """A bump on S^2 whose degree-m multiplier vanishes, found with scipy alone."""
    coef = np.zeros(m + 1)
    coef[m] = 1.0
    x2, x1 = np.sort(legendre.legroots(coef).real)[-2:]
    dj = 1.0 - 49.0 / (4.0 * m * m)
    h = min(0.25 * (1.0 - dj), 0.5 * (x1 - dj), 0.5 * (1.0 - x1), 0.4 * (x1 - x2))
    center = optimize.brentq(
        lambda c: ref.funk_hecke(ref.bump_profile(c, h), (c - h, c + h), m, 3),
        x1 - h, x1 + h, xtol=1e-15)
    return center, h


def test_annihilator_check():
    m, d = 20, 3
    center, h = _true_annihilator(m)
    checks.check_annihilator("bump", (center - h, center + h), center, h, m, d)
    shifted = center - 0.1 * h
    with pytest.raises(CheckFailure, match="does not vanish"):
        checks.check_annihilator("bump", (shifted - h, shifted + h), shifted, h, m, d)
    with pytest.raises(CheckFailure, match="window"):
        checks.check_annihilator("bump", (0.0, 0.5), 0.25, 0.25, m, d)


def _smoothing_case(drop_top=True):
    dim = 2
    f = {(1, 2): 0.3 + 0.1j, (-1, -2): 0.3 - 0.1j, (3, 0): -0.5j, (-3, 0): 0.5j,
         (4, 1): 0.2, (-4, -1): 0.2}
    top_sq = 17
    g = {}
    for k, a in f.items():
        if sum(c * c for c in k) == top_sq:
            if not drop_top:
                g[k] = 0.0
            continue
        g[k] = a * ref.smoothing_multiplier(k, dim, math.sqrt(top_sq))
    npts = 4 * math.ceil(math.sqrt(top_sq)) + 2
    axis = np.arange(npts) / npts
    mesh = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    grid = sum((a * np.exp(2j * math.pi * (pts @ np.array(k, float)))) for k, a in g.items()).real
    return dim, f, g, grid.reshape(npts, npts)


def test_smoothing_check():
    checks.check_smoothed("smooth", *_smoothing_case())
    with pytest.raises(CheckFailure, match="shell count"):
        checks.check_smoothed("smooth", *_smoothing_case(drop_top=False))
    dim, f, g, grid = _smoothing_case()
    # a surviving top-shell coefficient of 1e-6, with the shell count right
    npts = grid.shape[0]
    axis = np.arange(npts) / npts
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    leak = 2e-6 * np.cos(2.0 * math.pi * (4 * xx + yy))
    with pytest.raises(CheckFailure, match="top-shell coefficient"):
        checks.check_smoothed("smooth", dim, f, g, grid + leak)


# ----------------------------------------------------------------------
# CLI reports
# ----------------------------------------------------------------------


def _sign_row(r_lower=0.01, bound=0.2, name="theorem1"):
    return {"r_lower": r_lower, "bound": bound, "ratio": r_lower / bound, "pass": r_lower <= bound,
            "bound_name": name}


def test_sign_rows():
    checks.check_sign_rows("cli", [_sign_row()], {"theorem1": 0.2})
    with pytest.raises(CheckFailure, match="fails"):
        checks.check_sign_rows("cli", [_sign_row(r_lower=0.3)])
    with pytest.raises(CheckFailure, match="recomputed"):
        checks.check_sign_rows("cli", [_sign_row()], {"theorem1": 0.25})
    with pytest.raises(CheckFailure, match="no sign rows"):
        checks.check_sign_rows("cli", [])


def test_sharpness_best_above_ceiling_is_rejected():
    ceiling = ref.sharpness_ceiling(5, 1)
    row = {"A": 5, "B": 1, "best": 0.9 * ceiling, "ceiling": ceiling, "pass": True}
    checks.check_sharpness_rows("cli", [row])
    with pytest.raises(CheckFailure, match="outside"):
        checks.check_sharpness_rows("cli", [{**row, "best": ceiling + 0.01}])
    with pytest.raises(CheckFailure, match="recomputed"):
        checks.check_sharpness_rows("cli", [{**row, "ceiling": 0.5}])


def test_identity_rows_and_determinism():
    row = {"case": 0, "residual": 1e-9, "tol": 1e-6, "pass": True}
    checks.check_identity_rows("cli", [row], 1e-6)
    with pytest.raises(CheckFailure):
        checks.check_identity_rows("cli", [{**row, "residual": 2e-6, "pass": False}], 1e-6)
    with pytest.raises(CheckFailure):
        checks.check_same_body("cli", ["a,1", "b,2"], ["a,1", "b,3"])
    with pytest.raises(CheckFailure):
        checks.check_cli_exit("cli", 1)

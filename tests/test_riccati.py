import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import draw_params
from svsir import (
    InvalidParameter,
    ModelParams,
    StepSizeUnderflow,
    ToleranceSpec,
    bond_price,
    integrate_cd_batch,
)
from svsir.heston_cf import affine_cd, cd_arrays
from svsir.pricer import _provider
from svsir.riccati import SirCoefficients, _RiccatiRhs, integrate_cd

HESTON = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
SIR = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)


def _assembled_f(params, tau, phi, j, x, v, tol=ToleranceSpec()):
    """f_j = exp(C + D*v + i*phi*x) from the integrated (C, D), at forward log-moneyness x = ln(S/B)."""
    sol = integrate_cd(params, tau, phi, j, tol)
    return np.exp(sol.c_val + sol.d_val * v + 1j * phi * x)


def test_phi_zero_gives_exact_zero_solution():
    sol = integrate_cd(SIR, 3.0, 0.0, 2)
    assert sol.c_val == 0.0 and sol.d_val == 0.0
    assert _assembled_f(SIR, 3.0, 0.0, 1, 4.6, 0.04) == 1.0


def test_tau_zero_initial_condition():
    sol = integrate_cd(SIR, 0.0, 7.0, 1)
    assert sol.c_val == 0.0 and sol.d_val == 0.0
    assert sol.stats.steps_taken == 0


def test_beta_zero_matches_closed_form():
    tol = ToleranceSpec(rel=1e-11, abs=1e-13)
    for tau in (0.25, 1.0, 5.0):
        for phi in (0.05, 1.0, 10.0, 100.0):
            for j in (1, 2):
                sol = integrate_cd(HESTON, tau, phi, j, tol)
                c_ref, d_ref = cd_arrays(HESTON, 0.0, tau, phi, j)  # no discount term in C
                assert abs(sol.c_val - c_ref) < 1e-7
                assert abs(sol.d_val - d_ref) < 1e-7


def test_coefficients_reduce_to_constant_rate_table_at_beta_zero():
    co = SirCoefficients.from_params(HESTON)
    for tau in (0.0, 0.7, 4.0):
        g = co.g(tau)
        assert g == 0.0
        assert co.sigma_x_sq(g) == 1.0
        assert co.cross(g) == HESTON.rho_sv * HESTON.sigma
        assert co.b_j(1, g) == HESTON.alpha - HESTON.rho_sv * HESTON.sigma
        assert co.b_j(2, g) == HESTON.alpha
        assert co.zeta(1, g) == 0.5 and co.zeta(2, g) == -0.5


def test_coefficients_time_dependence_with_rates():
    co = SirCoefficients.from_params(SIR)
    assert co.g(0.0) == 0.0  # G(0) = 0: no bond volatility at maturity
    assert co.sigma_x_sq(co.g(0.0)) == 1.0
    assert co.sigma_x_sq(co.g(1.0)) != 1.0
    assert co.b_j(2, co.g(1.0)) > SIR.alpha  # G < 0 raises b_2
    assert co.b_j(1, co.g(1.0)) == co.b_j(1, co.g(0.0))  # b_1 stays constant


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(1e-4, 3.0),
    tau=st.floats(0.0, 30.0),
    rho=st.floats(-0.999, 0.999),
)
def test_sigma_x_sq_positive(beta, tau, rho):
    params = ModelParams(kappa=2.0, theta=0.04, sigma=0.6, lam=0.0, rho_sv=rho, mu=0.03, beta=beta)
    co = SirCoefficients.from_params(params)
    assert co.sigma_x_sq(co.g(tau)) > 0.0


def test_adaptive_tolerance_tracks_error():
    phi, tau, j = 20.0, 2.0, 1
    ref = integrate_cd(SIR, tau, phi, j, ToleranceSpec(rel=1e-12, abs=1e-14))
    err_loose = abs(integrate_cd(SIR, tau, phi, j, ToleranceSpec(rel=1e-5, abs=1e-7)).c_val - ref.c_val)
    err_tight = abs(integrate_cd(SIR, tau, phi, j, ToleranceSpec(rel=1e-9, abs=1e-11)).c_val - ref.c_val)
    assert err_tight < err_loose
    assert err_tight < 1e-7


def test_failed_solve_is_reported_with_context(monkeypatch):
    # a right-hand side that turns NaN past tau' = 0.5 stalls the controller
    # there; the failure names where it stopped, the frequency and the measure
    rhs = _RiccatiRhs.__call__
    monkeypatch.setattr(_RiccatiRhs, "__call__", lambda self, t, y: rhs(self, t, y) * (np.nan if t > 0.5 else 1.0))
    with np.errstate(invalid="ignore"), pytest.raises(StepSizeUnderflow) as info:
        integrate_cd(SIR, 1.0, 5.0, 1)
    assert "at tau'=0.5 (phi up to 5, j=1)" in str(info.value)


def test_tolerance_validation():
    with pytest.raises(InvalidParameter):
        ToleranceSpec(rel=1e-2)
    with pytest.raises(InvalidParameter):
        ToleranceSpec(rel=1e-13)
    for bad_abs in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidParameter, match="^abs: "):
            ToleranceSpec(abs=bad_abs)


def test_solution_stats_populated():
    sol = integrate_cd(SIR, 2.0, 30.0, 2, ToleranceSpec(rel=1e-9, abs=1e-11))
    assert sol.stats.steps_taken > 10
    assert sol.stats.rhs_evals >= 6 * sol.stats.steps_taken


def test_hermitian_symmetry_sampled():
    rng = np.random.default_rng(2)
    for _ in range(6):
        p = draw_params(rng, beta=rng.uniform(0.25, 2.0))
        phi = rng.uniform(0.1, 40.0)
        tau = rng.uniform(0.1, 3.0)
        j = int(rng.integers(1, 3))
        f_pos = _assembled_f(p, tau, phi, j, 4.5, 0.06)
        f_neg = _assembled_f(p, tau, -phi, j, 4.5, 0.06)
        assert f_neg == pytest.approx(f_pos.conjugate(), rel=1e-8, abs=1e-10)


def test_modulus_bounded_sampled():
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = draw_params(rng, beta=rng.uniform(0.25, 2.0))
        phis = np.linspace(0.05, 80.0, 25)
        c_vals, d_vals, _ = integrate_cd_batch(p, 1.2, phis, 2)
        f = np.exp(c_vals + d_vals * 0.07 + 1j * phis * 4.6)
        assert np.all(np.abs(f) <= 1.0 + 1e-10)


def test_checkpoints_consistent_with_separate_solves():
    tol = ToleranceSpec(rel=1e-10, abs=1e-12)
    c_list, d_list, _ = integrate_cd_batch(SIR, 3.0, [4.0], 1, tol, checkpoints=[0.5, 1.5, 3.0])
    for tau, c_chk, d_chk in zip((0.5, 1.5, 3.0), c_list, d_list):
        single = integrate_cd(SIR, tau, 4.0, 1, tol)
        assert complex(c_chk[0]) == pytest.approx(single.c_val, rel=1e-8, abs=1e-11)
        assert complex(d_chk[0]) == pytest.approx(single.d_val, rel=1e-8, abs=1e-11)


def test_d_path_regularity():
    # Re(D) must stay non-positive and bounded along the whole integration
    # (a blow-up would surface as StepSizeUnderflow, never a silent answer)
    rng = np.random.default_rng(19)
    checkpoints = np.linspace(0.25, 5.0, 20)
    for _ in range(5):
        p = draw_params(rng, beta=rng.uniform(0.25, 2.0))
        for j in (1, 2):
            _, d_path, _ = integrate_cd_batch(
                p, 5.0, [15.0], j, ToleranceSpec(rel=1e-9, abs=1e-11), checkpoints=checkpoints
            )
            reals = np.array([complex(d[0]).real for d in d_path])
            assert np.all(reals <= 1e-12)
            assert np.all(np.isfinite(reals))


def test_assembled_cf_satisfies_pricing_pde():
    # finite-difference residual of the pricing PDE at sampled interior
    # points; x- and v-derivatives are exact in the affine form, tau by
    # central differences
    tol = ToleranceSpec(rel=1e-11, abs=1e-13)
    co = SirCoefficients.from_params(SIR)
    h = 1e-5
    for tau, phi, v, j in [(0.8, 2.0, 0.04, 2), (1.5, 5.0, 0.10, 1), (0.6, 1.0, 0.02, 2)]:
        x = 4.6
        sol = integrate_cd(SIR, tau, phi, j, tol)
        f = np.exp(sol.c_val + sol.d_val * v + 1j * phi * x)
        f_x = 1j * phi * f
        f_xx = -(phi**2) * f
        f_v = sol.d_val * f
        f_vv = sol.d_val**2 * f
        f_xv = 1j * phi * sol.d_val * f
        f_tau = (_assembled_f(SIR, tau + h, phi, j, x, v, tol)
                 - _assembled_f(SIR, tau - h, phi, j, x, v, tol)) / (2 * h)
        g = co.g(tau)
        residual = (
            0.5 * co.sigma_x_sq(g) * v * f_xx
            + co.cross(g) * v * f_xv
            + 0.5 * SIR.sigma**2 * v * f_vv
            + co.zeta(j, g) * v * f_x
            + (co.a - co.b_j(j, g) * v) * f_v
            - f_tau
        )
        assert abs(residual) < 1e-4


def test_closed_form_matches_riccati_over_box():
    # the pricer's closed-form f_1 = Psi(phi - i)/S, f_2 = Psi(phi)/B against
    # the forward-measure Riccati oracle at x = ln(S/B), out to tau = 30 with
    # both signs of rho_sv; Im A on u = phi - i must stay free of branch jumps
    # (Lord & Kahl) and Psi(0) must be the discount bond
    rng = np.random.default_rng(112)
    taus = (0.25, 5.0, 30.0)
    phis = np.array([0.05, 0.5, 2.0, 7.0, 20.0, 50.0, 100.0])
    grid = np.arange(0.0, 30.0 + 1e-3, 1e-3)
    tol = ToleranceSpec(rel=1e-10, abs=1e-12)
    spot, v = 100.0, 0.04
    rhos = []
    for _ in range(20):
        p = draw_params(rng, beta=rng.uniform(0.25, 2.0))
        rhos.append(p.rho_sv)
        bonds = [bond_price(p, v, tau).price for tau in taus]
        provider = _provider(p, v, np.array(taus), np.array([math.log(b) for b in bonds]))
        for j in (1, 2):
            c_chk, d_chk, _ = integrate_cd_batch(p, taus[-1], phis, j, tol, checkpoints=taus)
            for m, (tau, b, c_ode, d_ode) in enumerate(zip(taus, bonds, c_chk, d_chk)):
                f_ode = np.exp(c_ode + d_ode * v + 1j * phis * math.log(spot / b))
                # the provider returns f_1 and f_2 times exp(-i*phi*x); put the phase at x back
                f_cf = provider(np.full(phis.size, m), phis)[j - 1] * np.exp(1j * phis * math.log(spot / b))
                assert np.max(np.abs(f_cf - f_ode)) < 1e-9, (p, tau, j)
        for phi in phis:
            a_path, _ = affine_cd(p, grid, phi - 1j)
            assert np.max(np.abs(np.diff(a_path.imag))) < 1.0, (p, phi)
        for tau, b in zip(taus, bonds):
            a0, d0 = affine_cd(p, tau, 0.0)
            assert complex(np.exp(a0 + d0 * v)) == pytest.approx(b, rel=1e-12, abs=0.0)
    assert min(rhos) < 0.0 < max(rhos)

"""The pricer against an independent reference at 30 digits.

Each row holds R_1, R_2 and the bond B of one (model, v, K, tau) at S = 100,
to 30 significant digits.  They were computed outside this package with
mpmath, which is not a dependency:

* Psi(u) by the little-trap closed form in the docstring of
  :mod:`svsir.heston_cf`, with h = (b - d)/(b + d) and exp(-d*tau), and b - d
  taken from the larger of b -+ d, at 50 digits;
* B = Psi(0), and f_1 = Psi(phi - i)/S, f_2 = Psi(phi)/B;
* R_j = 1/2 + (1/pi) Integral_0^inf Re[exp(-i*phi*ln K) f_j(phi)/(i*phi)] dphi,
  by mpmath's tanh-sinh quadrature on pieces of at most one period of
  exp(-i*phi*ln(K/S)), geometric towards 0, cut where |f_j| < 1e-55.

mp.quad's own error estimate was at most 1.9e-51 on every R_j, and the whole
computation repeated at 35 digits agreed with it to 1.3e-35.  So the
reference shares no code, no control variate and no quadrature with the
pricer, and its error is far below any tolerance tested here.

A pricer row must lie within its own ``err_estimate`` of the reference.
Where it does, the estimate exceeds the true error by 8.2-1,450x at abs_tol
1e-9 and by 2.2-194x at 1e-12 over these rows.
"""
import pytest

from svsir import ModelParams, bond_price, price_grid
from svsir.inversion import QuadratureSpec

EXAMPLE = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
# draws from PARAM_BOX (tests/conftest.py) with beta 0, 0.7 and 1.5, v ~ U(0.01, 0.16)
BOX_0 = ModelParams(kappa=1.1262718478640266, theta=0.08009026017152276, sigma=0.35935036897563366,
                    lam=0.5318871154297009, rho_sv=-0.40311573196648837, mu=0.0632414596682612, beta=0.0)
BOX_1 = ModelParams(kappa=3.668003428370109, theta=0.10791772040276978, sigma=0.30881193714889854,
                    lam=-0.06944085063003674, rho_sv=0.45374708022734656, mu=0.07358801284298226, beta=0.7)
BOX_2 = ModelParams(kappa=2.72554781450628, theta=0.08727305444835276, sigma=0.6781266808628991,
                    lam=0.6785517262028127, rho_sv=-0.2722672364398556, mu=0.02710499626510095, beta=1.5)
# violates Feller (2*kappa*theta = 0.04 < sigma^2 = 0.64)
FELLER_CORNER = ModelParams(kappa=2.0, theta=0.01, sigma=0.8, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
# the corner of PARAM_BOX with the narrowest strip (tests/test_inversion.py)
NARROW = ModelParams(kappa=0.5, theta=0.01, sigma=0.8, lam=-0.2, rho_sv=0.5, mu=0.03, beta=2.0)

# (id, model, v, K, tau, R_1, R_2, B)
REFERENCE = [
    ("example-K80-tau0.5", EXAMPLE, 0.04, 80.0, 0.5,
     0.96503965432908472603013486137, 0.950800364524165236162325438485, 0.965641835276308166647557023129),
    ("example-K100-tau0.5", EXAMPLE, 0.04, 100.0, 0.5,
     0.66291589824178521166167367866, 0.611490801567994022045726220701, 0.965641835276308166647557023129),
    ("example-K120-tau0.5", EXAMPLE, 0.04, 120.0, 0.5,
     0.137064152832192332718295566979, 0.111705399409402288983924628884, 0.965641835276308166647557023129),
    ("example-K80-tau1", EXAMPLE, 0.04, 80.0, 1.0,
     0.944045039742995578380258701347, 0.915236851313658342702276859853, 0.932552451131953737424200932602),
    ("example-K100-tau1", EXAMPLE, 0.04, 100.0, 1.0,
     0.71262616064814931818352828025, 0.64392684770472850795559884839, 0.932552451131953737424200932602),
    ("example-K120-tau1", EXAMPLE, 0.04, 120.0, 1.0,
     0.311536538930829070923011002304, 0.252044337827275308445858905243, 0.932552451131953737424200932602),
    ("box0", BOX_0, 0.051684882325023856, 95.0, 0.25,
     0.763110822609188368307428586234, 0.725454720074129274576179113908, 0.984313962817690639208819405936),
    ("box1", BOX_1, 0.04394995852651051, 110.0, 2.0,
     0.730306905420204770313856183328, 0.563447115663458552723080843439, 0.749718651818431524226428334145),
    ("box2", BOX_2, 0.08887252650178724, 100.0, 5.0,
     0.929538427579391881511142035779, 0.819050924669411121072827241286, 0.519835014972925840817186276738),
    ("example-tau-1e-4", EXAMPLE, 0.04, 100.0, 0.0001,
     0.502543211913525558362474259681, 0.50174534686420698012268874464, 0.999993000024500542738934616504),
    # the call here is +1.86e-13 (S*R_1 - K*B*R_2)
    ("example-tau-0.02-far", EXAMPLE, 0.04, 120.0, 0.02,
     5.50759889671807220182528849334e-13, 4.58059185063894608711693920682e-13, 0.998600984194926368666072231606),
    ("feller", FELLER_CORNER, 0.04, 105.0, 0.25,
     0.347291916405521934655905609814, 0.321379516084484270803175220903, 0.984265151766433254142393051244),
    ("narrow", NARROW, 0.04, 100.0, 10.0,
     0.988286954043223994442474193692, 0.979046046492877589671780232481, 0.619683865199486407921276022139),
]

# the forward log-moneyness x - ln K is formed from ln S, ln B and ln K, each ~4.6, so it carries ~2e-16 of
# rounding; at w = 4e-6 the density 1/sqrt(2*pi*w) ~ 200 turns that into ~4e-14 in R_j, 32x the estimate
EXCEEDS = {("example-tau-1e-4", 1e-12): "|R_j - ref| = 4.1e-14 against err_estimate 1.3e-15"}


def _cases():
    for row in REFERENCE:
        for abs_tol in (1e-9, 1e-12):
            reason = EXCEEDS.get((row[0], abs_tol))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(row, abs_tol, id=f"{row[0]}-{abs_tol:g}", marks=marks)


@pytest.mark.parametrize("row, abs_tol", _cases())
def test_probabilities_lie_within_their_error_estimate_of_the_reference(row, abs_tol):
    _, params, v, strike, tau, r1, r2, _ = row
    grid = price_grid(params, 100.0, v, [strike], [tau], QuadratureSpec(abs_tol=abs_tol))
    err = grid.err_estimate[0, 0]
    assert abs(grid.r1[0, 0] - r1) <= err, (grid.r1[0, 0], r1, err)
    assert abs(grid.r2[0, 0] - r2) <= err, (grid.r2[0, 0], r2, err)


@pytest.mark.parametrize("row", REFERENCE, ids=[row[0] for row in REFERENCE])
def test_bond_matches_the_reference(row):
    _, params, v, _, tau, _, _, bond = row
    assert bond_price(params, v, tau).price == pytest.approx(bond, rel=1e-14, abs=0.0)

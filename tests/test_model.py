import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import svsir
from svsir import (
    InvalidParameter,
    MarketState,
    ModelParams,
    OptionSpec,
    bond_price,
    integrate_cd_batch,
)
from svsir.heston_cf import cd_arrays, characteristic_fn
from svsir.model import OptionKind, validate


def make(**overrides) -> ModelParams:
    base = dict(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.1)
    base.update(overrides)
    return ModelParams(**base)


def test_valid_params_with_feller():
    report = validate(make())
    assert report.feller_satisfied  # 2*2*0.04 = 0.16 > 0.09
    assert report.warnings == ()


def test_feller_violation_warns_but_passes():
    report = validate(make(theta=0.01, sigma=0.5))  # 0.04 < 0.25
    assert not report.feller_satisfied
    assert len(report.warnings) == 1
    assert "Feller" in report.warnings[0]


def test_negative_risk_neutral_reversion_rejected():
    with pytest.raises(InvalidParameter, match="kappa\\+lam"):
        validate(make(kappa=1.0, lam=-1.5))  # kappa+lam = -0.5


@pytest.mark.parametrize(
    "field,value",
    [
        ("kappa", 0.0),
        ("kappa", -1.0),
        ("theta", -0.01),
        ("sigma", 0.0),
        ("rho_sv", 1.5),
        ("rho_sv", -1.0001),
        ("beta", -1e-9),
        ("mu", math.nan),
        ("sigma", math.inf),
    ],
)
def test_hard_violations_raise_with_field_name(field, value):
    with pytest.raises(InvalidParameter) as excinfo:
        validate(make(**{field: value}))
    assert field in str(excinfo.value) or field == "mu"  # nan reported under its own name
    if field == "mu":
        assert "mu" in str(excinfo.value)


def test_boundary_values_accepted():
    validate(make(theta=0.0))
    validate(make(rho_sv=1.0))
    validate(make(rho_sv=-1.0))
    validate(make(beta=0.0))
    validate(make(mu=-0.01))  # negative rate level is legal


params_strategy = st.builds(
    make,
    kappa=st.floats(0.01, 10.0),
    theta=st.floats(0.0, 1.0),
    sigma=st.floats(0.01, 2.0),
    lam=st.floats(-5.0, 5.0),
    rho_sv=st.floats(-1.0, 1.0),
    mu=st.floats(-0.1, 0.2),
    beta=st.floats(0.0, 5.0),
)


@given(params_strategy)
def test_validate_is_deterministic(params):
    try:
        first = validate(params)
    except InvalidParameter as exc:
        with pytest.raises(InvalidParameter) as repeat:
            validate(params)
        assert str(repeat.value) == str(exc)
        return
    second = validate(params)
    assert first == second
    assert first.feller_satisfied == (2 * params.kappa * params.theta >= params.sigma**2)


def test_market_state_invariants():
    MarketState(spot=100.0, variance=0.0, tau=0.0)  # degenerate limits are legal
    with pytest.raises(InvalidParameter, match="spot"):
        MarketState(spot=0.0, variance=0.04, tau=1.0)
    with pytest.raises(InvalidParameter, match="variance"):
        MarketState(spot=100.0, variance=-0.01, tau=1.0)
    with pytest.raises(InvalidParameter, match="tau"):
        MarketState(spot=100.0, variance=0.04, tau=-1.0)


SIR = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("name, call", [
    pytest.param("variance", lambda: bond_price(SIR, NAN, 1.0), id="bond_price-v-nan"),
    pytest.param("variance", lambda: bond_price(SIR, INF, 1.0), id="bond_price-v-inf"),
    pytest.param("tau", lambda: bond_price(SIR, 0.04, NAN), id="bond_price-tau-nan"),
    pytest.param("tau", lambda: bond_price(SIR, 0.04, INF), id="bond_price-tau-inf"),
    pytest.param("variance", lambda: characteristic_fn(SIR, SIR.mu, 4.6, NAN, 1.0, 1.0, 1),
                 id="characteristic_fn-v-nan"),
    pytest.param("tau", lambda: integrate_cd_batch(SIR, NAN, [1.0], 1), id="integrate_cd_batch-tau-nan"),
    pytest.param("checkpoints", lambda: integrate_cd_batch(SIR, 3.0, [1.0], 1, checkpoints=[-1.0, 3.0]),
                 id="integrate_cd_batch-checkpoint-negative"),
    pytest.param("checkpoints", lambda: integrate_cd_batch(SIR, 3.0, [1.0], 1, checkpoints=[0.5, NAN, 3.0]),
                 id="integrate_cd_batch-checkpoint-nan"),
])
def test_bare_variance_and_maturity_inputs_must_be_finite(name, call):
    with pytest.raises(InvalidParameter, match=f"^{name}: must be finite and >= 0"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: cd_arrays(SIR, SIR.mu, 1.0, 1.0, 3), id="cd_arrays"),
    pytest.param(lambda: integrate_cd_batch(SIR, 1.0, [1.0], 0), id="integrate_cd_batch"),
])
def test_measure_index_must_be_1_or_2(call):
    with pytest.raises(InvalidParameter, match="^j: measure index must be 1 or 2"):
        call()


def test_option_spec_invariants():
    OptionSpec(strike=100.0, kind=OptionKind.PUT)
    with pytest.raises(InvalidParameter, match="strike"):
        OptionSpec(strike=0.0)
    with pytest.raises(InvalidParameter, match="kind"):
        OptionSpec(strike=100.0, kind="call")  # type: ignore[arg-type]


def test_params_are_immutable():
    params = make()
    with pytest.raises(Exception):
        params.kappa = 3.0  # type: ignore[misc]


PUBLIC_SURFACE = {
    # what the acceptance gate imports from the package
    "MarketState", "McConfig", "ModelParams", "OptionSpec", "ToleranceSpec", "bond_price",
    "integrate_cd_batch", "ode_residual", "price_heston", "price_sir", "put_from_parity",
    "simulate_bond", "simulate_price",
    # the README's library quick start
    "price_grid", "simulate_grid",
    # what those return and raise
    "BondValue", "McEstimate", "PriceGrid", "PriceResult", "InvalidParameter", "NumericalError",
    "InversionError", "SubdivisionExhausted", "TailNotDecaying", "StepSizeUnderflow",
}


def test_public_surface():
    assert set(svsir.__all__) == PUBLIC_SURFACE and len(svsir.__all__) == len(PUBLIC_SURFACE)
    for name in svsir.__all__:
        assert getattr(svsir, name) is not None, name
    gate = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(gate)
                if isinstance(node, ast.ImportFrom) and node.module == "svsir" for alias in node.names}
    assert imported and imported <= set(svsir.__all__)

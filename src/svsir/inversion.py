"""Fourier inversion of characteristic functions into exercise probabilities.

The pricer needs, for every maturity m and strike K, the pair

    R_j = 1/2 + (1/pi) * Integral_0^inf Re[ exp(-i*phi*ln K) * f_j(phi) / (i*phi) ] dphi,

where f_j is supplied by a provider (the closed-form affine characteristic
function of :mod:`svsir.heston_cf` for every beta) at (maturity, frequency)
node pairs.  f_j does not depend on the strike, so one adaptive pass inverts
a whole maturity x strike surface: each maturity has one integrand row per
(measure j, strike), formed in real arithmetic as
(Im f_j cos(phi k) - Re f_j sin(phi k)) / phi with k = ln K.  Its
singularity at phi = 0 is removable, and Gauss-Kronrod 7(15) panels
integrate it on [PHI_MIN, phi_max_m]:

* f_j is evaluated once per measure on PHI_MIN and the doubling ladder
  PHI_LADDER_START, 2*PHI_LADDER_START, ... up to the spec's budget, for
  every maturity at once;
* each maturity gets its own phi_max_m, the first rung where
  |f_j(phi)| / phi < abs_tol/10 holds for both j (TailNotDecaying if none
  does), and its own initial panel count;
* each maturity keeps its own panel set, error target and panel budget: a
  panel splits when its maturity misses the target and its worst row holds
  more than its share, and every round evaluates the new halves of all
  maturities together, one provider call per measure for every
  ``PANELS_PER_CALL`` panels;
* the [0, PHI_MIN] sliver is added back as a one-term rectangle correction.

A one-maturity inversion is the same pass with one maturity.  When the
accumulated variance over a maturity is negligible, f_j never decays and R_j
collapses to an indicator; that degenerate row skips the quadrature and reads
the law's location off the phase of f_j at PHI_MIN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import InvalidParameter, NumericalError

PHI_MIN = 1e-6
# First rung of the phi_max ladder, which doubles from here up to the budget.
PHI_LADDER_START = 32.0
# Accumulated-variance proxy below which the law of the log price is treated
# as a point mass and R_j returned as an indicator.
DEGENERATE_PROXY = 1e-6
# Most 15-node panels evaluated per provider call; bounds the temporaries of
# a round that refines many maturities at once.
PANELS_PER_CALL = 64
NODES_PER_CALL = 15 * PANELS_PER_CALL

# The nodes handed to a provider: the maturity index and the frequency of each.
NODE = np.dtype([("m", np.intp), ("phi", float)])


class InversionError(NumericalError):
    """An inversion failure; ``maturity`` is the index of the failing maturity."""

    def __init__(self, message: str, maturity: int = 0) -> None:
        super().__init__(message)
        self.maturity = maturity


class TailNotDecaying(InversionError):
    """|f_j| did not fall below threshold within the phi budget."""


class SubdivisionExhausted(InversionError):
    """The panel budget ran out before meeting the error target."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error target and budgets for one inversion, applied to each maturity on its own."""

    abs_tol: float = 1e-9
    phi_max: float = 1e4
    max_subdivisions: int = 2048

    def __post_init__(self) -> None:
        if not 1e-12 <= self.abs_tol <= 1e-3:
            raise InvalidParameter(f"abs_tol: must lie in [1e-12, 1e-3], got {self.abs_tol}")
        if not PHI_LADDER_START <= self.phi_max < math.inf:
            raise InvalidParameter(
                f"phi_max: must be finite and >= {PHI_LADDER_START:g} (the first truncation "
                f"frequency tried), got {self.phi_max}"
            )
        if self.max_subdivisions < 4:
            raise InvalidParameter(f"max_subdivisions: must be >= 4, got {self.max_subdivisions}")


@dataclass(frozen=True)
class ProbabilityPair:
    """R_1 and R_2 with the worst achieved error estimate of the pair, per maturity and strike."""

    r1: float | np.ndarray
    r2: float | np.ndarray
    achieved_error_estimate: float | np.ndarray


@dataclass(frozen=True)
class CfProvider:
    """Characteristic-function interface consumed by :func:`gil_pelaez`.

    ``eval(j, nodes)`` returns f_j at ``nodes``, a 1-D array of dtype
    :data:`NODE` (see :func:`cf_nodes`) pairing a maturity index ``m`` with a
    real positive frequency ``phi``; f_j includes the exp(i*phi*x) factor.
    ``decay_proxy`` holds, per maturity, the accumulated variance scale of
    the underlying law (for the square-root variance models here,
    tau*v0 + kappa*theta*tau^2/2); a vanishing proxy flags a pure-phase
    characteristic function whose inversion is an indicator.
    """

    eval: Callable[[int, np.ndarray], np.ndarray]
    decay_proxy: float | np.ndarray


# Gauss-Kronrod 7(15): Kronrod nodes/weights plus the embedded 7-point Gauss
# weights (zeros at the Kronrod-only nodes), on [-1, 1].
_XK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([0.0, 0.129484966168870, 0.0, 0.279705391489277,
                     0.0, 0.381830050505119, 0.0, 0.417959183673469])

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _panel_estimates(g: Callable, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Kronrod integral and |Kronrod - Gauss| of every row of g on panels [lo_i, hi_i] of maturity owner_i.

    Both have g's row shape followed by one axis over the panels.  g sees at
    most ``PANELS_PER_CALL`` panels per call.
    """
    integrals, errors = [], []
    for start in range(0, lo.size, PANELS_PER_CALL):
        part = slice(start, start + PANELS_PER_CALL)
        mid = 0.5 * (lo[part] + hi[part])
        half = 0.5 * (hi[part] - lo[part])
        vals = g(np.repeat(owner[part], 15), (mid[:, None] + half[:, None] * _XK).ravel())
        vals = vals.reshape(vals.shape[:-1] + (mid.size, 15))
        integral = half * (vals @ _WK)
        integrals.append(integral)
        errors.append(np.abs(integral - half * (vals @ _WG)))
    return np.concatenate(integrals, axis=-1), np.concatenate(errors, axis=-1)


def _adaptive_integral(
    g: Callable,
    lo: float,
    hi: np.ndarray,
    target: float,
    budget: int,
    n_init: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive panel quadrature of every row of g on [lo, hi_m] for each maturity m, each row to absolute target.

    ``hi`` and ``n_init`` hold one entry per maturity.  ``g(m, phi)`` maps
    node arrays (maturity index, frequency) to values whose last axis runs
    over the nodes.  Each maturity keeps its own panel set and its own
    budget of ``budget`` panels: while some row of a maturity misses the
    target, every panel of it whose worst row holds more than its share
    splits, and the new halves of all maturities are evaluated together.
    Returns the integrals and error estimates of every row, with one last
    axis over the maturities.  Raises :class:`SubdivisionExhausted` naming
    the first maturity that needs more than ``budget`` panels.
    """
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n_init = np.broadcast_to(n_init, hi.shape)
    # the panels stay grouped by maturity, in ascending order
    owner = np.repeat(np.arange(hi.size), n_init)
    local = np.arange(owner.size) - np.repeat(np.cumsum(n_init) - n_init, n_init)
    step = (hi - lo) / n_init
    a = local * step[owner] + lo
    b = np.where(local + 1 == n_init[owner], hi[owner], (local + 1) * step[owner] + lo)
    integrals, errors = _panel_estimates(g, owner, a, b)

    while True:
        counts = np.bincount(owner, minlength=hi.size)
        starts = np.cumsum(counts) - counts
        totals = np.add.reduceat(errors, starts, axis=-1)
        unmet = (totals > target).reshape(-1, hi.size).any(axis=0)
        if not unmet.any():
            return np.add.reduceat(integrals, starts, axis=-1), totals
        full = np.flatnonzero(unmet & (counts >= budget))
        if full.size:
            m = int(full[0])
            raise SubdivisionExhausted(
                f"error {totals[..., m].max():.3e} > target {target:.3e} "
                f"after {counts[m]} panels on [{lo:.3g}, {hi[m]:.3g}]",
                maturity=m,
            )
        worst = errors.reshape(-1, owner.size).max(axis=0)
        # by maturity, worst first, so that each maturity's budget drops its least needed splits
        order = np.lexsort((-worst, owner))
        split = order[(unmet[owner] & (worst > target / counts[owner]))[order]]
        rank = np.arange(split.size) - np.searchsorted(owner[split], owner[split])
        split = split[rank < (budget - counts)[owner[split]]]

        mid = 0.5 * (a[split] + b[split])
        new_owner = np.concatenate([owner[split], owner[split]])
        lo_new = np.concatenate([a[split], mid])
        hi_new = np.concatenate([mid, b[split]])
        ints_new, errs_new = _panel_estimates(g, new_owner, lo_new, hi_new)
        keep = np.ones(owner.size, dtype=bool)
        keep[split] = False
        # a stable regroup keeps each maturity's panels in the order a one-maturity pass has them
        regroup = np.argsort(np.concatenate([owner[keep], new_owner]), kind="stable")
        owner = np.concatenate([owner[keep], new_owner])[regroup]
        a = np.concatenate([a[keep], lo_new])[regroup]
        b = np.concatenate([b[keep], hi_new])[regroup]
        integrals = np.concatenate([integrals[..., keep], ints_new], axis=-1)[..., regroup]
        errors = np.concatenate([errors[..., keep], errs_new], axis=-1)[..., regroup]


def _ladder(spec: QuadratureSpec) -> np.ndarray:
    return PHI_LADDER_START * 2.0 ** np.arange(int(math.log2(spec.phi_max / PHI_LADDER_START)) + 1)


def _find_phi_max(f_ladder: np.ndarray, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per maturity, the first ladder rung where |f_j(phi)|/phi < abs_tol/10 for both j, and the larger tail term there.

    ``f_ladder`` holds f_1 and f_2 on ``_ladder(spec)``: measures first,
    rungs last, and any maturity axis between them.
    """
    threshold = spec.abs_tol / 10.0
    ladder = _ladder(spec)
    tails = np.abs(f_ladder).max(axis=0) / ladder
    passed = tails < threshold
    failed = np.flatnonzero(~passed.any(axis=-1))
    if failed.size:
        m = int(failed[0])
        raise TailNotDecaying(
            f"max_j |f_j|/phi stayed >= {threshold:.3e} up to the phi budget {spec.phi_max:.3g} "
            f"(smallest {tails.reshape(-1, ladder.size)[m].min():.3e}); characteristic function "
            "decays too slowly (near-degenerate variance?)",
            maturity=m,
        )
    first = passed.argmax(axis=-1)
    return ladder[first], np.take_along_axis(tails, first[..., None], axis=-1)[..., 0]


def cf_nodes(m, phi) -> np.ndarray:
    """Provider nodes pairing maturity indices ``m`` with frequencies ``phi``, broadcast to one 1-D array."""
    m, phi = np.broadcast_arrays(m, phi)
    nodes = np.empty(phi.size, dtype=NODE)
    nodes["m"], nodes["phi"] = m.ravel(), phi.ravel()
    return nodes


def _cf(cf_provider: CfProvider, m: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """f_1 and f_2 stacked, at the node pairs (m_i, phi_i); at most ``NODES_PER_CALL`` nodes per call."""
    nodes = cf_nodes(m, phi)
    # an empty surface still makes one (empty) call per measure
    return np.concatenate([np.stack([cf_provider.eval(j, nodes[s:s + NODES_PER_CALL]) for j in (1, 2)])
                           for s in range(0, max(nodes.size, 1), NODES_PER_CALL)], axis=-1)


def _integrand(f: np.ndarray, phi: np.ndarray, log_k: np.ndarray) -> np.ndarray:
    """Re[exp(-i*phi*k) * f_j / (i*phi)] = (Im f_j cos(phi*k) - Re f_j sin(phi*k)) / phi, shaped (measure, strike, node).

    One complex exponential gives cos and sin together, faster than numpy's
    separate real cos and sin; the rest is real arithmetic.
    """
    phase = np.exp(-1j * (log_k[:, None] * phi))
    return (f.imag[:, None] * phase.real + f.real[:, None] * phase.imag) / phi


def gil_pelaez(
    cf_provider: CfProvider,
    x: float | np.ndarray,
    log_strike: float | np.ndarray,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityPair:
    """Exercise probabilities R_1, R_2 from a characteristic-function provider, over a maturity x strike surface.

    ``x`` holds, per maturity, the log-moneyness the provider's phase is
    anchored at (a float for one maturity); it only scales that maturity's
    initial panel count.  ``log_strike`` is a float or a 1-D array shared by
    every maturity.  r1, r2 and the error estimate come back shaped
    ``shape(x) + shape(log_strike)``.  Raises :class:`TailNotDecaying` or
    :class:`SubdivisionExhausted`, with context and the failing maturity's index.
    """
    shape = np.shape(x) + np.shape(log_strike)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log_k = np.asarray(log_strike, dtype=float).reshape(-1)
    phis = np.concatenate([[PHI_MIN], _ladder(spec)])
    f_table = _cf(cf_provider, np.arange(x.size)[:, None], phis).reshape(2, x.size, phis.size)
    r = np.empty((2, x.size, log_k.size))
    err = np.zeros((x.size, log_k.size))

    degenerate = np.broadcast_to(cf_provider.decay_proxy, x.shape) < DEGENERATE_PROXY
    if degenerate.any():
        # point-mass law: the phase slope at a tiny frequency is its location
        centers = np.log(f_table[:, degenerate, :1]).imag / PHI_MIN
        r[:, degenerate] = np.where(np.abs(centers - log_k) <= 1e-12, 0.5, centers > log_k)

    regular = np.flatnonzero(~degenerate)
    if regular.size:
        try:
            phi_max, tail_est = _find_phi_max(f_table[:, regular, 1:], spec)
            oscillation = np.abs(x[regular, None] - log_k).max(axis=1, initial=1.0)
            n_init = np.clip(np.ceil((phi_max - PHI_MIN) * oscillation / (3.0 * math.pi)),
                             8, spec.max_subdivisions // 2).astype(int)
            integral, quad_err = _adaptive_integral(
                lambda m, phi: _integrand(_cf(cf_provider, regular[m], phi), phi, log_k),
                PHI_MIN, phi_max, 0.25 * spec.abs_tol * math.pi, spec.max_subdivisions, n_init,
            )
        except InversionError as exc:
            exc.maturity = int(regular[exc.maturity])
            raise
        # rectangle correction for the [0, PHI_MIN] sliver (finite limit there)
        integral += PHI_MIN * _integrand(f_table[:, regular, 0], np.full(regular.size, PHI_MIN), log_k)
        r[:, regular] = np.swapaxes(0.5 + integral / math.pi, 1, 2)
        err[regular] = ((quad_err.max(axis=0) + tail_est) / math.pi).T
    return ProbabilityPair(r1=r[0].reshape(shape)[()], r2=r[1].reshape(shape)[()],
                           achieved_error_estimate=err.reshape(shape)[()])

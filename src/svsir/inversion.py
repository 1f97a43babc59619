"""Fourier inversion of characteristic functions into exercise probabilities.

The pricer needs, for every maturity m and strike K, the pair

    R_j = 1/2 + (1/pi) * Integral_0^inf Re[ exp(-i*phi*k) * f_j(phi) / (i*phi) ] dphi,   k = ln K,

where f_j comes from a function (the closed-form affine characteristic
function of :mod:`svsir.heston_cf` for every beta) at (maturity, frequency)
node pairs.  Each maturity is inverted against a Black-Scholes control with
the location x_m and variance w_m the pricer passes (Joshi & Yang 2011;
Andersen & Lake 2018),

    f_BS_j(phi) = exp(i*phi*(x_m +- w_m/2) - phi^2*w_m/2),   + for j = 1, - for j = 2,

whose own integral is N(d_j) with d_j = (x_m - k +- w_m/2) / sqrt(w_m), so

    R_j = N(d_j) + (1/pi) * Integral_0^inf Re[ exp(-i*phi*k) * (f_j - f_BS_j) / (i*phi) ] dphi.

The integral runs on the scaled axis s = phi*sqrt(w_m), where the difference
decays on a scale of order one at every maturity; its integrand
(Im g cos(phi k) - Re g sin(phi k)) / s with g = f_j - f_BS_j is finite at
s = 0, which no Gauss-Kronrod node touches.  f_j does not depend on the
strike, so one adaptive pass inverts a whole maturity x strike surface, one
integrand row per (maturity, measure j, strike), and Gauss-Kronrod 7(15)
panels integrate it on [0, s_max_m]:

* f_1 and f_2 are evaluated in one call on the ladder ``S_LADDER``
  (0.5, 1, 2, ..., 2^16 in s) for every maturity at once;
* each maturity gets its own s_max_m, the first rung where
  |f_j - f_BS_j| / s < abs_tol/10 holds for both j (TailNotDecaying if none
  does), and its own initial panel count: one per 3*pi radians of the
  strike phase, and at least one per unit of s;
* each maturity keeps its own panel set, error target and panel budget: a
  panel splits when its maturity misses the target and its worst row holds
  more than its share, and every round evaluates the new halves of all
  maturities together, one call for every ``PANELS_PER_CALL`` panels.

A one-maturity inversion is the same pass with one maturity.  Where
w_m = 0 (tau = 0, or v = theta = 0) the law of the log price is a point
mass at x_m: R_j is 1, 1/2 or 0 as x_m is above, at or below k, and the
maturity makes no characteristic-function call.

Known limit: a strike many sqrt(w_m) from the money in log terms, as at a
tiny w_m, needs about |x_m - k| * s_max / (2*pi*sqrt(w_m)) oscillation
cycles; past the panel budget its maturity raises SubdivisionExhausted.
Only a contour shift removes that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import InvalidParameter, NumericalError

# The truncation ladder on the scaled axis s = phi*sqrt(w): 0.5, 1, 2, ..., 2^16.
S_LADDER = 0.5 * 2.0 ** np.arange(18)
# Most 15-node panels evaluated per characteristic-function call; bounds the temporaries of
# a round that refines many maturities at once.
PANELS_PER_CALL = 64
NODES_PER_CALL = 15 * PANELS_PER_CALL

# The nodes handed to the characteristic function: the maturity index and the frequency of each.
NODE = np.dtype([("m", np.intp), ("phi", float)])

# erfc over arrays without scipy, which the price path does not load
_erfc = np.frompyfunc(math.erfc, 1, 1)


class InversionError(NumericalError):
    """An inversion failure; ``maturity`` is the index of the failing maturity."""

    def __init__(self, message: str, maturity: int = 0) -> None:
        super().__init__(message)
        self.maturity = maturity


class TailNotDecaying(InversionError):
    """|f_j - f_BS_j| / s did not fall below threshold on the s ladder."""


class SubdivisionExhausted(InversionError):
    """The panel budget ran out before meeting the error target."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error target and budgets for one inversion, applied to each maturity on its own."""

    abs_tol: float = 1e-9
    max_subdivisions: int = 2048

    def __post_init__(self) -> None:
        if not 1e-12 <= self.abs_tol <= 1e-3:
            raise InvalidParameter(f"abs_tol: must lie in [1e-12, 1e-3], got {self.abs_tol}")
        if self.max_subdivisions < 4:
            raise InvalidParameter(f"max_subdivisions: must be >= 4, got {self.max_subdivisions}")


@dataclass(frozen=True)
class ProbabilityPair:
    """R_1 and R_2 with the worst achieved error estimate of the pair, per maturity and strike."""

    r1: float | np.ndarray
    r2: float | np.ndarray
    achieved_error_estimate: float | np.ndarray


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

    ``hi`` and ``n_init`` hold one entry per maturity.  ``g(m, s)`` maps
    node arrays (maturity index, abscissa) to values whose last axis runs
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


def _find_s_max(diff: np.ndarray, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per maturity, the first ``S_LADDER`` rung where |f_j - f_BS_j|/s < abs_tol/10 for both j, and the tail term there.

    ``diff`` holds f_j - f_BS_j on ``S_LADDER``: measures first, rungs last,
    and any maturity axis between them.
    """
    threshold = spec.abs_tol / 10.0
    tails = np.abs(diff).max(axis=0) / S_LADDER
    passed = tails < threshold
    failed = np.flatnonzero(~passed.any(axis=-1))
    if failed.size:
        m = int(failed[0])
        raise TailNotDecaying(
            f"max_j |f_j - f_BS_j|/s stayed >= {threshold:.3e} up to the top of the s ladder, "
            f"{S_LADDER[-1]:g} (smallest {tails.reshape(-1, S_LADDER.size)[m].min():.3e}); "
            "characteristic function decays too slowly (near-degenerate variance?)",
            maturity=m,
        )
    first = passed.argmax(axis=-1)
    return S_LADDER[first], np.take_along_axis(tails, first[..., None], axis=-1)[..., 0]


def cf_nodes(m, phi) -> np.ndarray:
    """Nodes pairing maturity indices ``m`` with frequencies ``phi``, broadcast to one 1-D array."""
    m, phi = np.broadcast_arrays(m, phi)
    nodes = np.empty(phi.size, dtype=NODE)
    nodes["m"], nodes["phi"] = m.ravel(), phi.ravel()
    return nodes


def _cf(cf: Callable, m: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """f_1 and f_2 stacked, at the node pairs (m_i, phi_i); at most ``NODES_PER_CALL`` nodes per call."""
    nodes = cf_nodes(m, phi)
    return np.concatenate([cf(nodes[s:s + NODES_PER_CALL]) for s in range(0, nodes.size, NODES_PER_CALL)], axis=-1)


def _control(w: np.ndarray, phi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Centred f_BS_1 and f_BS_2 stacked, exp(+-i*phi*w/2 - s^2/2): complex conjugates of each other."""
    f_bs = np.exp(0.5j * phi * w - 0.5 * s * s)
    return np.stack([f_bs, f_bs.conj()])


def _integrand(g: np.ndarray, phase: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Re[phase * g_j / (i*s)] = (Im g_j Re phase + Re g_j Im phase) / s, shaped (measure, strike, node).

    ``phase`` is exp(i*phi*(x - k)) on (strike, node): one complex exponential
    is faster than numpy's separate real cos and sin.
    """
    return (g.imag[:, None] * phase.real + g.real[:, None] * phase.imag) / s


def gil_pelaez(
    cf: Callable[[np.ndarray], np.ndarray],
    x: float | np.ndarray,
    w: float | np.ndarray,
    log_strike: float | np.ndarray,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityPair:
    """Exercise probabilities R_1, R_2 from a characteristic function, over a maturity x strike surface.

    ``x`` and ``w`` hold, per maturity, the location and the variance (>= 0)
    of the Black-Scholes control (floats for one maturity).  ``cf(nodes)``
    returns f_1 and f_2 stacked, each times exp(-i*phi*x_m): row j - 1 is the
    characteristic function of ln S_T - x_m under measure j at ``nodes``, a
    1-D :data:`NODE` array (see :func:`cf_nodes`) pairing a maturity index
    ``m`` with a frequency ``phi`` > 0.  ``log_strike`` is a float or a 1-D
    array shared by every maturity; r1, r2 and the error estimate come back
    shaped ``shape(x) + shape(log_strike)``.  Raises :class:`TailNotDecaying`
    or :class:`SubdivisionExhausted` with context and the failing maturity's index.
    """
    shape = np.shape(x) + np.shape(log_strike)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.broadcast_to(np.asarray(w, dtype=float), x.shape)
    moneyness = x[:, None] - np.asarray(log_strike, dtype=float).reshape(-1)
    # where w = 0 the law is a point mass at x
    r = np.stack([0.5 + 0.5 * np.sign(moneyness)] * 2)
    err = np.zeros(moneyness.shape)

    live = np.flatnonzero(w > 0.0)
    if live.size:
        w, moneyness = w[live], moneyness[live]
        root_w = np.sqrt(w)

        def difference(m, s):
            phi = s / root_w[m]
            return phi, _cf(cf, live[m], phi) - _control(w[m], phi, s)

        def integrand(m, s):
            phi, g = difference(m, s)
            return _integrand(g, np.exp(1j * (moneyness[m].T * phi)), s)

        try:
            ladder = difference(np.repeat(np.arange(live.size), S_LADDER.size), np.tile(S_LADDER, live.size))[1]
            s_max, tail_est = _find_s_max(ladder.reshape(2, live.size, S_LADDER.size), spec)
            # at least one panel per unit of s, the scale on which the control's exp(-s^2/2) varies
            oscillation = np.abs(moneyness).max(axis=1, initial=0.0) / root_w
            n_init = np.clip(np.ceil(s_max * np.maximum(oscillation / (3.0 * math.pi), 1.0)),
                             8, spec.max_subdivisions // 2).astype(int)
            integral, quad_err = _adaptive_integral(
                integrand, 0.0, s_max, 0.25 * spec.abs_tol * math.pi, spec.max_subdivisions, n_init,
            )
        except InversionError as exc:
            exc.maturity = int(live[exc.maturity])
            raise
        d = (moneyness + np.array([0.5, -0.5])[:, None, None] * w[:, None]) / root_w[:, None]
        r[:, live] = 0.5 * _erfc(-d / math.sqrt(2.0)).astype(float) + np.swapaxes(integral, 1, 2) / math.pi
        err[live] = ((quad_err.max(axis=0) + tail_est) / math.pi).T
    return ProbabilityPair(r1=r[0].reshape(shape)[()], r2=r[1].reshape(shape)[()],
                           achieved_error_estimate=err.reshape(shape)[()])

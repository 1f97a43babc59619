"""Fourier inversion of characteristic functions into exercise probabilities.

The pricer needs, for every maturity m and strike K, the pair

    R_j = 1/2 + (1/pi) * Integral_0^inf Re[ exp(-i*phi*k) * f_j(phi) / (i*phi) ] dphi,   k = ln K,

from a function giving f_j (the closed-form affine characteristic function of :mod:`svsir.heston_cf`) at
(maturity, frequency) node pairs.  Each maturity is inverted against a Black-Scholes control with the location x_m
and variance w_m the pricer passes (Joshi & Yang 2011; Andersen & Lake 2018): f_BS_j(phi) = exp(i*phi*(x_m +- w_m/2)
- phi^2*w_m/2), + for j = 1, inverts to N(d_j) with d_j = (x_m - k +- w_m/2)/sqrt(w_m), and R_j is N(d_j) plus the
integral above of f_j - f_BS_j.  It runs on the scaled axis s = phi*sqrt(w_m); write Z = (ln S_T - x_m)/sqrt(w_m)
and freq = (x_m - k)/sqrt(w_m).  With step h the midpoint sum of (1/pi) * Integral_0^inf sin(a*s)/s ds is
sgn(sin(a*h/2))/2, exact for |a| < L = 2*pi/h, so the rule over all its nodes misses R_j by at most the mass f_j and
f_BS_j put on |Z + freq| >= L.  Chernoff bounds each side by E[exp(t*Z)]*exp(-|t|*(L -+ freq)), and E_j[exp(t*Z)]
is f_j at phi = -i*t/sqrt(w_m), finite inside the strip of analyticity that the moment-explosion times set
(Lee 2004; Andersen & Piterbarg 2007).  So, with every maturity in one pass:

* one call evaluates f_1 and f_2 on the ladder ``S_LADDER`` (0.5, 1, ..., 2^16 in s) and at each side's
  ``MOMENTS_PER_SIDE`` largest orders of ``MOMENT_ORDERS`` inside the caller's strip; s_max_m is the first rung
  where |f_j - f_BS_j|/s < abs_tol/10 for both j (TailNotDecaying if none, or if one is not finite);
* a row beyond the bound's reach across its strike is N(d_j) to abs_tol/16 and takes no node; the other rows set
  the largest step that keeps each of their four tails within abs_tol/32, and so n_m midpoint panels on
  [0, s_max_m], evaluated once, at most ``NODES_PER_CALL`` a call, maturities mixed;
* each strike phase is the product of two entries of angle-addition tables;
* the error estimate is the bound at the step taken, plus the tail term |f_j - f_BS_j|/(pi*s) at s_max_m and a
  rounding allowance.

Where w_m = 0 (tau = 0, or v = theta = 0) the law is a point mass at x_m: R_j is 1, 1/2 or 0 as x_m is above, at
or below k, and the maturity makes no characteristic-function call.  A maturity whose step needs more than
``MAX_NODES`` nodes, as where its strip is too narrow for the bound, raises SubdivisionExhausted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import InvalidParameter, NumericalError

# The truncation ladder on the scaled axis s = phi*sqrt(w): 0.5, 1, 2, ..., 2^16.
S_LADDER = 0.5 * 2.0 ** np.arange(18)
# Scaled moment orders t = p*sqrt(w) the aliasing bound may use, lower side then upper: +-2^-24, ..., +-2^3 by
# factors of sqrt(2); a strip narrower than 2^-24 needs more than MAX_NODES nodes at any rung and abs_tol.
MOMENT_ORDERS = np.multiply.outer([-1.0, 1.0], 2.0 ** (np.arange(-48, 7) / 2.0))
# How many of a maturity's largest orders inside its strip are evaluated per side.
MOMENTS_PER_SIDE = 3
# Most midpoint nodes of one maturity, enough for the narrowest strip of the tests' parameter box (~1.3e6 at tau = 30).
MAX_NODES = 2**21
# Most nodes per characteristic-function call; bounds the temporaries of a pass over many maturities.
NODES_PER_CALL = 960

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
    """The node cap ``MAX_NODES`` is below the node count the aliasing bound asks for."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error target for one inversion, applied to each maturity on its own."""

    abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 1e-12 <= self.abs_tol <= 1e-3:
            raise InvalidParameter(f"abs_tol: must lie in [1e-12, 1e-3], got {self.abs_tol}")


@dataclass(frozen=True)
class ProbabilityPair:
    """R_1 and R_2 with the worst achieved error estimate of the pair, per maturity and strike."""

    r1: float | np.ndarray
    r2: float | np.ndarray
    achieved_error_estimate: float | np.ndarray


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner m and index i < counts[m] of every item when each m numbers its own items, m-major."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _phases(theta: np.ndarray, counts: np.ndarray) -> Callable:
    """exp(i*theta_km*(i + 1/2)) at node arrays (maturity m, i < counts_m), shaped (strike, node), from two tables.

    ``theta`` is (strike, maturity).  With b_m = ceil(sqrt(counts_m)) and i = q*b_m + r, a phase is
    exp(i*theta*q*b_m) * exp(i*theta*(r + 1/2)): two correctly rounded exponentials, so its error is
    ~eps*|theta*(i + 1/2)| at every i; along a cos/sin recurrence it grows with i.
    """
    block = np.ceil(np.sqrt(counts)).astype(np.intp)
    rows = -(-counts // block)
    (qm, q), (rm, r) = _ragged(rows), _ragged(block)
    blocks, steps = np.exp(1j * theta[:, qm] * (q * block[qm])), np.exp(1j * theta[:, rm] * (r + 0.5))
    first_q, first_r = np.cumsum(rows) - rows, np.cumsum(block) - block
    return lambda m, i: (blocks.take(first_q[m] + i // block[m], axis=1)
                         * steps.take(first_r[m] + i % block[m], axis=1))


def _midpoint(h: Callable, freq: np.ndarray, s_max: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint rule of Im[exp(i*freq_mk*s) * h_j(m, s)] on [0, s_max_m] in n_m panels, per maturity, strike, measure.

    ``freq`` is (maturity, strike); ``s_max`` and ``n`` hold one entry per maturity.  ``h(m, s)`` maps node arrays
    (maturity index, abscissa) to (measure, node) values, at most ``NODES_PER_CALL`` nodes a call, maturities mixed.
    Returns the integrals as (measure, maturity, strike) and the rule's sums of |h_j| and |h_j|*s as (2, measure,
    maturity), which scale its rounding.
    """
    width, ends = s_max / n, np.cumsum(n)
    phases, starts = _phases(freq.T * width, n), ends - n
    sums, sizes = np.zeros((2, freq.shape[1], n.size)), np.zeros((2, 2, n.size))
    for start in range(0, ends[-1], NODES_PER_CALL):  # node k is node i = k - starts[m] of maturity m
        k = np.arange(start, min(start + NODES_PER_CALL, ends[-1]))
        m = np.searchsorted(ends, k, side="right")
        i = k - starts[m]
        s = (i + 0.5) * width[m]
        vals = h(m, s)
        own = slice(m[0], m[-1] + 1)  # every maturity has a node, so a chunk's maturities are a run
        first = np.maximum(starts[own], start) - start
        size = np.abs(vals)
        sizes[..., own] += np.add.reduceat(np.stack([size, size * s]), first, axis=-1)
        phase = phases(m, i)  # a measure at a time keeps the (strike, node) temporaries small
        sums[..., own] += [np.add.reduceat((v * phase).imag, first, axis=-1) for v in vals]
    return np.swapaxes(sums * width, 1, 2), sizes * width


def _find_s_max(diff: np.ndarray, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per maturity, the first ``S_LADDER`` rung where |f_j - f_BS_j|/s < abs_tol/10 for both j, and the tail term there.

    ``diff`` holds f_j - f_BS_j on ``S_LADDER``: measures first, rungs last,
    and any maturity axis between them.
    """
    threshold = spec.abs_tol / 10.0
    tails = np.abs(diff).max(axis=0) / S_LADDER
    passed = tails < threshold
    failed = np.flatnonzero(~passed.any(axis=-1) | ~np.isfinite(tails).all(axis=-1))
    if failed.size:
        m = int(failed[0])
        raise TailNotDecaying(
            f"max_j |f_j - f_BS_j|/s was not finite or stayed >= {threshold:.3e} up to the top of the s ladder, "
            f"{S_LADDER[-1]:g} (smallest {tails.reshape(-1, S_LADDER.size)[m].min():.3e}); "
            "characteristic function decays too slowly (near-degenerate variance?)",
            maturity=m,
        )
    first = passed.argmax(axis=-1)
    return S_LADDER[first], np.take_along_axis(tails, first[..., None], axis=-1)[..., 0]


def _control(w: np.ndarray, phi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Centred f_BS_1 and f_BS_2 stacked, exp(+-i*phi*w/2 - s^2/2): complex conjugates of each other."""
    f_bs = np.exp(0.5j * phi * w - 0.5 * s * s)
    return np.stack([f_bs, f_bs.conj()])


def gil_pelaez(
    cf: Callable[[np.ndarray, np.ndarray], np.ndarray],
    strip: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: float | np.ndarray,
    w: float | np.ndarray,
    log_strike: float | np.ndarray,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityPair:
    """Exercise probabilities R_1, R_2 from a characteristic function, over a maturity x strike surface.

    ``x`` and ``w`` hold, per maturity, the location and the variance (>= 0) of the Black-Scholes control (floats
    for one maturity).  ``cf(m, phi)`` returns f_1 and f_2 stacked, each times exp(-i*phi*x_m): row j - 1 is the
    characteristic function of ln S_T - x_m under measure j at the nodes given by two 1-D arrays, the maturity
    index ``m`` and the frequency ``phi`` of each, real and > 0 or, for a moment, -i*p.  ``strip(m, p)`` says, over
    broadcast arrays of maturity indices and orders, whether -i*p lies in the strip where both f_j of maturity m are
    analytic, that is whether their moments of order p are finite.  ``log_strike`` is a float or a 1-D array shared
    by every maturity; r1, r2 and the error estimate come back shaped ``shape(x) + shape(log_strike)``.  Raises
    :class:`TailNotDecaying` or :class:`SubdivisionExhausted` with context and the failing maturity's index.
    """
    shape = np.shape(x) + np.shape(log_strike)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.broadcast_to(np.asarray(w, dtype=float), x.shape)
    moneyness = x[:, None] - np.asarray(log_strike, dtype=float).reshape(-1)
    # where w = 0 the law is a point mass at x
    r = np.stack([0.5 + 0.5 * np.sign(moneyness)] * 2)
    err = np.zeros(moneyness.shape)

    live, eps = np.flatnonzero(w > 0.0), np.finfo(float).eps
    if live.size:
        w, root_w, moneyness = w[live], np.sqrt(w[live]), moneyness[live]
        freq = moneyness / root_w[:, None]
        # each side's largest orders inside the strip (an interval of orders), evaluated after the ladders in its call
        top = strip(live[:, None, None], MOMENT_ORDERS / root_w[:, None, None]).sum(axis=-1)[..., None]
        top = top - np.arange(1, MOMENTS_PER_SIDE + 1)
        t, lad = MOMENT_ORDERS[[[0], [1]], np.maximum(top, 0)], S_LADDER / root_w[:, None]
        phi = np.concatenate([lad.ravel(), (-1j * t / root_w[:, None, None]).ravel()])
        # a moment near its order's explosion may overflow, and is then not used; _find_s_max checks the ladder
        with np.errstate(over="ignore", invalid="ignore"):
            values = cf(np.repeat(np.tile(live, 2), np.repeat([S_LADDER.size, t[0].size], live.size)), phi)
        try:
            ladder = values[:, :lad.size].reshape(2, live.size, -1) - _control(w[:, None], lad, S_LADDER)
            s_max, tail_est = _find_s_max(ladder, spec)
        except InversionError as exc:
            exc.maturity = int(live[exc.maturity])
            raise
        # ln of the largest of E[exp(t*Z)] under f_1, f_2, f_BS_1 and f_BS_2, +inf where unused; per maturity and side,
        # the order of least reach (ln E[exp(t*Z)] + ln(32/abs_tol))/|t| keeps each of the four tails of a row on that
        # side within abs_tol/32 wherever L - sign(t)*freq is at least the reach
        moments, size = values[:, lad.size:].real.max(axis=0).reshape(t.shape), np.abs(t)
        log_m = np.maximum(np.log(moments, out=np.full(t.shape, np.inf), where=(moments > 0.0) & (top >= 0)),
                           0.5 * size * (size + root_w[:, None, None]))
        reach = (log_m + math.log(32.0 / spec.abs_tol)) / size
        row, best = np.arange(live.size)[:, None], reach.argmin(axis=-1)
        log_m, size, reach = log_m[row, [0, 1], best], size[row, [0, 1], best], reach.min(axis=-1)
        # a row beyond the reach across its strike is N(d_j) to abs_tol/16 and takes no node; the others set L
        far = (freq >= reach[:, :1]) | (-freq >= reach[:, 1:])
        length = np.where(far, 0.0, np.maximum(reach[:, :1] - freq, reach[:, 1:] + freq)).max(axis=1, initial=0.0)
        n = np.maximum(np.ceil(s_max * length / (2.0 * math.pi)), 1.0)
        if not n.max() <= MAX_NODES:
            m = int(np.argmin(n <= MAX_NODES))
            raise SubdivisionExhausted(f"the aliasing bound on [0, {s_max[m]:.3g}] needs {n[m]:.0f} > {MAX_NODES} "
                                       f"midpoint nodes (target {spec.abs_tol / 8.0:.3e})", maturity=int(live[m]))
        integral, sizes = _midpoint(lambda m, s: (cf(live[m], s / root_w[m]) - _control(w[m], s / root_w[m], s)) / s,
                                    freq, s_max, n.astype(np.intp))
        # twice (f_j and f_BS_j) each tail at the step taken, or a far row's across its strike, on the side facing it
        toward = freq[..., None] * np.array([1.0, -1.0])
        distance = np.where(far, 0.0, 2.0 * math.pi * (n / s_max)[:, None])[..., None] + toward
        bound = np.exp(np.minimum(log_m[:, None] - size[:, None] * distance, 0.0)) * (distance > 0.0)
        # rounding: eps for the sum N(d_j) + integral/pi, and a few eps per term of the integral from the phase
        # (eps*|freq*s| more), the CF and the sum
        terms = (sizes[0, ..., None] + sizes[1, ..., None] * np.abs(freq)).max(axis=0)
        d = (moneyness + np.array([0.5, -0.5])[:, None, None] * w[:, None]) / root_w[:, None]
        r[:, live] = 0.5 * _erfc(-d / math.sqrt(2.0)).astype(float) + np.where(far, 0.0, integral) / math.pi
        err[live] = 2.0 * bound.sum(-1) + np.where(far, 0.0, (tail_est[:, None] + 4.0 * eps * terms) / math.pi) + eps
    return ProbabilityPair(r1=r[0].reshape(shape)[()], r2=r[1].reshape(shape)[()],
                           achieved_error_estimate=err.reshape(shape)[()])

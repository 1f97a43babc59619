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
  ``MOMENTS_PER_SIDE`` largest orders of ``MOMENT_ORDERS`` inside the caller's strip; s_max_m is the lowest rung
  where |f_j - f_BS_j|/s < abs_tol/10 for both j, there and above (TailNotDecaying if none, or if one is not finite);
* a row beyond the bound's reach across its strike is N(d_j) to abs_tol/16 and takes no node; the other rows set
  the largest step that keeps each of their four tails within abs_tol/32, and so n_m midpoint panels on
  [0, s_max_m], evaluated once, at most ``NODES_PER_CALL`` a call, maturities mixed;
* each strike phase exp(i*freq*s) comes from one sine and one cosine of its angle, each correctly rounded, so it
  carries only the rounding of the angle, eps*|freq*s|;
* the error estimate is the bound at the step taken, plus the tail term |f_j - f_BS_j|/(pi*s) at s_max_m and a
  rounding allowance.

The control is this module's own: the caller passes f_j, and w_m, and nothing else of f_BS_j.  numpy runs on node
arrays and on (maturity, strike) row arrays only; what belongs to one maturity (its orders' reach, s_max_m, n_m,
the tail term) is formed on Python floats, so that a pass over few maturities and strikes pays few array calls.

Where w_m = 0 (tau = 0, or v = theta = 0) the law is a point mass at x_m: R_j is 1, 1/2 or 0 as x_m is above, at
or below k, and the maturity makes no characteristic-function call.  So it is, to rounding, where w_m <=
``W_POINT_MASS`` (~2.4e-299), so small that the top rung's phi^2 = 2^32/w_m overflows: that law lies within
~1.6e-149 of x_m in log-price.  A maturity whose step needs more than ``MAX_NODES`` nodes, as where its strip is too
narrow for the bound, raises SubdivisionExhausted.
"""
from __future__ import annotations

import bisect
import itertools
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
# The largest w taken as a point mass: at or below it the top rung's phi^2 = S_LADDER[-1]^2/w overflows.
W_POINT_MASS = float(S_LADDER[-1] ** 2 / np.finfo(float).max)
# Most midpoint nodes of one maturity, enough for the narrowest strip of the tests' parameter box (~1.3e6 at tau = 30).
MAX_NODES = 2**21
# Most nodes per characteristic-function call; bounds the temporaries of a pass over many maturities.
NODES_PER_CALL = 960

# the per-maturity bookkeeping reads these as Python floats: the rungs, and the sizes |t| of the orders on either side
_LADDER, _SIZES = S_LADDER.tolist(), MOMENT_ORDERS[1].tolist()
_EPS = float(np.finfo(float).eps)
# the sign of t on each side, and of w/2 in d_j for each measure
_SIDES, _HALVES = np.array([1.0, -1.0]), np.array([0.5, -0.5])[:, None, None]
# a side's row of MOMENT_ORDERS; the orders evaluated are the last 1, 2, ... of those inside the strip, largest first
_SIDE_ROWS, _RANKS = np.array([[0], [1]]), np.arange(1, MOMENTS_PER_SIDE + 1)
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


def _less_control(f: np.ndarray, phi: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(f_j - f_BS_j)/s from f_1 and f_2 stacked at the nodes phi = s/sqrt(w) (w: each node's control variance).

    The control, centred at x, is f_BS_1 = exp(i*phi*w/2 - s^2/2) and f_BS_2 its complex conjugate.  Overwrites f.
    """
    f_bs = np.exp(0.5j * phi * w - 0.5 * s * s)
    f[0] -= f_bs
    f[1] -= f_bs.conj()
    return f / s


def _midpoint(cf: Callable, live: np.ndarray, freq: np.ndarray, w: np.ndarray, root_w: np.ndarray,
              s_max: list[float], n: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint rule of Im[exp(i*freq_mk*s) * g_j(m, s)] on [0, s_max_m] in n_m panels, per maturity, strike, measure.

    g_j = (f_j - f_BS_j)/s.  ``freq`` is (maturity, strike); ``w``, ``root_w`` = sqrt(w), ``s_max`` and ``n`` hold
    one entry per maturity, whose index for ``cf`` is in ``live``.  ``cf`` is evaluated at most ``NODES_PER_CALL``
    nodes a call, maturities mixed.  Returns the integrals as (measure, maturity, strike) and the rule's sums of
    |g_j| and |g_j|*s as (2, measure, maturity), which scale its rounding.
    """
    width, ends = np.array(s_max) / n, list(itertools.accumulate(n))
    starts = [end - count for end, count in zip(ends, n)]
    layout, scales = np.array([live, starts]), np.array([width, root_w, w])
    sums, sizes = np.zeros((2, freq.shape[1], len(n))), np.zeros((2, 2, len(n)))
    for start in range(0, ends[-1], NODES_PER_CALL):
        stop = min(start + NODES_PER_CALL, ends[-1])
        # every maturity has a node, so a chunk's maturities are a run; node k is node i = k - starts[m] of m
        own = slice(bisect.bisect_right(ends, start), bisect.bisect_left(ends, stop) + 1)
        counts = [min(end, stop) - max(begin, start) for begin, end in zip(starts[own], ends[own])]
        first = [0, *itertools.accumulate(counts[:-1])]
        maturity, begin = layout[:, own].repeat(counts, axis=1)
        step, root, var = scales[:, own].repeat(counts, axis=1)
        s = (np.arange(start, stop) - begin + 0.5) * step
        phi = s / root
        vals = _less_control(cf(maturity, phi), phi, var, s)
        size = np.abs(vals)
        sizes[..., own] += np.add.reduceat(np.array([size, size * s]), first, axis=-1)
        # Im[g_j*exp(i*angle)] from one sine and one cosine per (strike, node), a measure at a time
        angle = freq[own].T.repeat(counts, axis=1) * s
        sin, cos = np.sin(angle), np.cos(angle)
        sums[..., own] += [np.add.reduceat(v.real * sin + v.imag * cos, first, axis=-1) for v in vals]
    return np.swapaxes(sums * width, 1, 2), sizes * width


def _find_s_max(g: np.ndarray, spec: QuadratureSpec) -> list[tuple[float, float]]:
    """Per maturity, the lowest ``S_LADDER`` rung where |f_j - f_BS_j|/s < abs_tol/10 for both j, there and above.

    ``g`` holds (f_j - f_BS_j)/s on ``S_LADDER``: measures first, rungs last, and any maturity axis between them.
    Returns each such rung with its tail term.  |g| need not fall monotonically: at a tiny w it can dip below the
    threshold on a low rung and rise above it again.
    """
    threshold = spec.abs_tol / 10.0
    tails = np.abs(g).max(axis=0).reshape(-1, S_LADDER.size)
    settled = np.logical_and.accumulate(tails[:, ::-1] < threshold, axis=-1)[:, ::-1]
    first, finite = settled.argmax(axis=-1).tolist(), np.isfinite(tails).all(axis=-1).tolist()
    found = []
    for m, (row, rung, ok, below) in enumerate(zip(tails.tolist(), first, finite, settled.tolist())):
        if not (ok and below[rung]):
            raise TailNotDecaying(
                f"max_j |f_j - f_BS_j|/s was not finite or stayed >= {threshold:.3e} up to the top of the s ladder, "
                f"{_LADDER[-1]:g} (smallest {tails[m].min():.3e}); "
                "characteristic function decays too slowly (near-degenerate variance?)",
                maturity=m,
            )
        found.append((_LADDER[rung], row[rung]))
    return found


def _least_reach(ranks: list[int], log_moments: list[float], root_w: float, log_target: float) -> tuple[float, ...]:
    """(ln E[exp(t*Z)], |t|, reach) of the order of least reach among one side's evaluated orders.

    ``ranks`` holds the index in ``MOMENT_ORDERS`` of each order evaluated, largest first, < 0 where the strip holds
    no such order, and ``log_moments`` ln of the larger of E[exp(t*Z)] under f_1 and f_2 there.  The moment taken is
    the larger of that and the control's, exp(0.5*|t|*(|t| + sqrt(w))).  The reach (ln E[exp(t*Z)] +
    ln(32/abs_tol))/|t| is how far from the strike, across it on this side, the order keeps each of the four tails
    of a row within abs_tol/32 (``log_target`` is ln(32/abs_tol)); the first of equal reaches is taken.
    """
    best = None
    for rank, log_m in zip(ranks, log_moments):
        size = _SIZES[max(rank, 0)]
        log_m = max(log_m if rank >= 0 else math.inf, 0.5 * size * (size + root_w))
        reach = (log_m + log_target) / size
        if best is None or reach < best[2]:
            best = (log_m, size, reach)
    return best


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
    w = np.full(x.shape, w, dtype=float)
    moneyness = x[:, None] - np.asarray(log_strike, dtype=float).reshape(-1)
    # where w <= W_POINT_MASS the law is a point mass at x
    at_mass = 0.5 + 0.5 * np.sign(moneyness)
    r, err = np.array([at_mass, at_mass]), np.zeros(moneyness.shape)

    live = np.flatnonzero(w > W_POINT_MASS)
    if live.size:
        w, moneyness = w[live], moneyness[live]
        root_w = np.sqrt(w)
        freq = moneyness / root_w[:, None]
        # per maturity and side, how many orders lie inside the strip (an interval of orders); the largest
        # MOMENTS_PER_SIDE of them are evaluated after the ladders, in the same call
        ranks = strip(live[:, None, None], MOMENT_ORDERS / root_w[:, None, None]).sum(axis=-1)[..., None] - _RANKS
        orders = MOMENT_ORDERS[_SIDE_ROWS, np.maximum(ranks, 0)]
        rungs, split = np.array(_LADDER * live.size), live.size * S_LADDER.size
        nodes = np.concatenate([live.repeat(S_LADDER.size), live.repeat(2 * MOMENTS_PER_SIDE)])
        phi = rungs / root_w.repeat(S_LADDER.size)
        # E_j[exp(t*Z)] is f_j at phi = -i*t/sqrt(w_m)
        phi = np.concatenate([phi, -1j * orders.ravel() / root_w.repeat(2 * MOMENTS_PER_SIDE)])
        # a moment near its order's explosion may overflow, and is then not used; _find_s_max checks the ladder
        with np.errstate(over="ignore", invalid="ignore"):
            f = cf(nodes, phi)
            ladder = _less_control(f[:, :split], phi[:split], w.repeat(S_LADDER.size), rungs)
        moments = f[:, split:].real
        try:
            truncation = _find_s_max(ladder.reshape(2, live.size, -1), spec)
        except InversionError as exc:
            exc.maturity = int(live[exc.maturity])
            raise
        # ln of the larger of E[exp(t*Z)] under f_1 and f_2; per maturity and side, on floats, the order of least
        # reach: (ln E[exp(t*Z)], |t|, reach)
        moments = moments.max(axis=0).reshape(ranks.shape)
        log_moments = np.log(moments, out=np.full(ranks.shape, np.inf), where=moments > 0.0).tolist()
        log_target = math.log(32.0 / spec.abs_tol)
        bounds = np.array([[_least_reach(side_ranks, side_logs, root_w_m, log_target)
                            for side_ranks, side_logs in zip(ranks_m, logs_m)]
                           for ranks_m, logs_m, root_w_m in zip(ranks.tolist(), log_moments, root_w.tolist())])
        # a row beyond the reach across its strike is N(d_j) to abs_tol/16 and takes no node; the others set L
        below, above = bounds[:, :1, 2], bounds[:, 1:, 2]
        far = (freq >= below) | (-freq >= above)
        length = np.where(far, 0.0, np.maximum(below - freq, above + freq)).max(axis=1, initial=0.0)
        n, lengths = [], []
        for j, ((s_max, _), length_m) in enumerate(zip(truncation, length.tolist())):
            need = s_max * length_m / (2.0 * math.pi)
            if not need <= MAX_NODES:
                raise SubdivisionExhausted(f"the aliasing bound on [0, {s_max:.3g}] needs {np.ceil(need):.0f} > "
                                           f"{MAX_NODES} midpoint nodes (target {spec.abs_tol / 8.0:.3e})",
                                           maturity=int(live[j]))
            n.append(max(math.ceil(need), 1))
            lengths.append(2.0 * math.pi * (n[-1] / s_max))
        s_max, tail_est = zip(*truncation)
        integral, sums = _midpoint(cf, live, freq, w, root_w, s_max, n)
        # twice (f_j and f_BS_j) each tail at the step taken, or a far row's across its strike, on the side facing it
        distance = np.where(far, 0.0, np.array(lengths)[:, None])[..., None] + freq[..., None] * _SIDES
        bound = np.exp(np.minimum(bounds[:, None, :, 0] - bounds[:, None, :, 1] * distance, 0.0)) * (distance > 0.0)
        # rounding: eps for the sum N(d_j) + integral/pi, and a few eps per term of the integral from the phase
        # (eps*|freq*s| more), the CF and the sum
        terms = (sums[0, ..., None] + sums[1, ..., None] * np.abs(freq)).max(axis=0)
        d = (moneyness + _HALVES * w[:, None]) / root_w[:, None]
        r[:, live] = 0.5 * _erfc(-d / math.sqrt(2.0)).astype(float) + np.where(far, 0.0, integral) / math.pi
        rounding = (np.array(tail_est)[:, None] + 4.0 * _EPS * terms) / math.pi
        err[live] = 2.0 * bound.sum(-1) + np.where(far, 0.0, rounding) + _EPS
    return ProbabilityPair(r1=r[0].reshape(shape)[()], r2=r[1].reshape(shape)[()],
                           achieved_error_estimate=err.reshape(shape)[()])

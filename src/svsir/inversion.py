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
decays on a scale of order one at every maturity.  Its integrand
Im[exp(i*phi*(x_m - k)) * g/s] with g = f_j - f_BS_j is even and analytic in
s, so the midpoint rule on [0, s_max_m], which never touches s = 0, is the
trapezoid rule on the whole line and converges exponentially (Trefethen &
Weideman 2014).  The strike enters only through that phase, so one pass
inverts a whole maturity x strike surface, one integrand row per (maturity,
measure j, strike):

* f_1 and f_2 are evaluated in one call on the ladder ``S_LADDER``
  (0.5, 1, 2, ..., 2^16 in s) for every maturity at once;
* each maturity gets its own s_max_m, the first rung where
  |f_j - f_BS_j| / s < abs_tol/10 holds for both j (TailNotDecaying if none
  does), and its own n_m = ceil(2*s_max_m*(1 + max|x_m - k|/(pi*sqrt(w_m))))
  midpoint panels: two per unit of s, plus two per pi radians of the
  strike phase;
* each round splits every panel of a maturity in three, so that the new
  nodes join the old ones, and |I_3n - I_n| is the error estimate; a
  maturity whose rows all meet the target stops, and each round evaluates
  the new nodes of the others together, at most ``NODES_PER_CALL`` per
  call;
* on a round's equally spaced nodes each phase is the product of two entries
  of angle-addition tables built once per round, not one exponential.

Where w_m = 0 (tau = 0, or v = theta = 0) the law of the log price is a
point mass at x_m: R_j is 1, 1/2 or 0 as x_m is above, at or below k, and
the maturity makes no characteristic-function call.

Known limit: a strike many sqrt(w_m) from the money in log terms, as at a
tiny w_m, needs about |x_m - k| * s_max / (2*pi*sqrt(w_m)) oscillation
cycles; past ``MAX_NODES`` nodes its maturity raises SubdivisionExhausted.
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
# Most midpoint nodes of one maturity; a maturity whose next round needs more raises SubdivisionExhausted.
MAX_NODES = 2**17
# Most nodes per characteristic-function call; bounds the temporaries of a round of many maturities.
NODES_PER_CALL = 960
# Where a round's nodes sit in each panel, in panel widths: the first round takes the midpoint
# and the two nodes that split the midpoint rule in three, a later round only those two.
_OFFSETS = np.array([3.0, 1.0, 5.0]) / 6.0

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
    """The node cap ``MAX_NODES`` was reached before meeting the error target."""


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


def _phases(theta: np.ndarray, offsets: np.ndarray, count: int) -> Callable:
    """exp(i*theta*(i + o)) at node arrays (group, i), i < ``count``, shaped (strike, node), from two tables.

    ``theta`` is (strike, maturity); group g is maturity g // len(offsets) at offset offsets[g % len(offsets)].
    With b = ceil(sqrt(count)) and i = q*b + r, a phase is exp(i*theta*q*b) * exp(i*theta*(r + o)): two correctly
    rounded exponentials, so its error is ~eps*|theta*(i + o)| at every i; along a cos/sin recurrence it grows with i.
    """
    block = math.isqrt(count - 1) + 1
    angles = (block * np.arange(-(-count // block)), (offsets[:, None] + np.arange(block)).ravel())
    blocks, steps = (np.exp(1j * theta[..., None] * a).reshape(len(theta), theta.shape[1] * a.size) for a in angles)
    return lambda group, i: (blocks.take(group // offsets.size * angles[0].size + i // block, axis=1)
                             * steps.take(group * block + i % block, axis=1))


def _midpoint(h: Callable, freq: np.ndarray, s_max: np.ndarray, n: np.ndarray, target: float):
    """Midpoint rule of Im[exp(i*freq_mk*s) * h_j(m, s)] on [0, s_max_m] per maturity m, strike k and measure j.

    ``freq`` is (maturity, strike); ``s_max`` and ``n``, the first round's panel count, hold one entry per maturity.
    ``h(m, s)`` maps node arrays (maturity index, abscissa) to (measure, node) values, at most ``NODES_PER_CALL``
    nodes a call.  Each round splits in three the panels of every maturity with a row above ``target``, keeping
    the old nodes, and |I_3n - I_n| is the error estimate.  Returns integrals and estimates as (measure, strike,
    maturity); raises :class:`SubdivisionExhausted` naming the first maturity whose next round needs > ``MAX_NODES``.
    """
    n = n.astype(float)  # a far strike at a tiny w can ask for more panels than an integer holds
    todo, offsets = np.arange(s_max.size), _OFFSETS
    # per row and maturity, the sum of the integrand over the nodes of the maturity's current n panels
    total, error = np.zeros((2, 2) + freq.T.shape)
    worst = np.full(s_max.size, np.inf)
    while todo.size:
        over = todo[3.0 * n[todo] > MAX_NODES]
        if over.size:
            m = int(over[0])
            raise SubdivisionExhausted(f"the next round on [0, {s_max[m]:.3g}] needs {3.0 * n[m]:.0f} > {MAX_NODES} "
                                       f"midpoint nodes (error {worst[m]:.3e}, target {target:.3e})", maturity=m)
        width = s_max / n
        # one group of n_m nodes per (maturity, offset), maturity-major, summed per group
        counts = np.repeat(n[todo].astype(np.intp), offsets.size)
        ends = np.cumsum(counts)
        phases = _phases(freq[todo].T * width[todo], offsets, int(counts.max()))
        sums = np.zeros((2, freq.shape[1], counts.size))
        for start in range(0, int(ends[-1]), NODES_PER_CALL):
            node = np.arange(start, min(start + NODES_PER_CALL, ends[-1]))
            group = np.searchsorted(ends, node, side="right")
            m, i = todo[group // offsets.size], node - (ends - counts)[group]
            vals = h(m, (i + offsets[group % offsets.size]) * width[m])
            first = np.flatnonzero(np.diff(group, prepend=-1))
            phase = phases(group, i)  # a measure at a time keeps the (strike, node) temporaries small
            sums[..., group[first]] += [np.add.reduceat((v * phase).imag, first, axis=-1) for v in vals]
        sums = sums.reshape(sums.shape[:-1] + (todo.size, offsets.size))
        coarse = total[..., todo] + sums[..., :-2].sum(axis=-1)  # the first round's midpoints
        total[..., todo] = coarse + sums[..., -2:].sum(axis=-1)
        error[..., todo] = np.abs(total[..., todo] / 3.0 - coarse) * width[todo]
        n[todo] *= 3.0
        offsets = _OFFSETS[1:]
        worst[todo] = error[..., todo].reshape(-1, todo.size).max(axis=0, initial=0.0)
        todo = todo[worst[todo] > target]
    return total * (s_max / n), error


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


def _control(w: np.ndarray, phi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Centred f_BS_1 and f_BS_2 stacked, exp(+-i*phi*w/2 - s^2/2): complex conjugates of each other."""
    f_bs = np.exp(0.5j * phi * w - 0.5 * s * s)
    return np.stack([f_bs, f_bs.conj()])


def gil_pelaez(
    cf: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: float | np.ndarray,
    w: float | np.ndarray,
    log_strike: float | np.ndarray,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityPair:
    """Exercise probabilities R_1, R_2 from a characteristic function, over a maturity x strike surface.

    ``x`` and ``w`` hold, per maturity, the location and the variance (>= 0)
    of the Black-Scholes control (floats for one maturity).  ``cf(m, phi)``
    returns f_1 and f_2 stacked, each times exp(-i*phi*x_m): row j - 1 is the
    characteristic function of ln S_T - x_m under measure j at the nodes
    given by two 1-D arrays, the maturity index ``m`` and the frequency
    ``phi`` > 0 of each.  ``log_strike`` is a float or a 1-D array shared by
    every maturity; r1, r2 and the error estimate come back shaped
    ``shape(x) + shape(log_strike)``.  Raises :class:`TailNotDecaying` or
    :class:`SubdivisionExhausted` with context and the failing maturity's index.
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
            return cf(live[m], phi) - _control(w[m], phi, s)

        try:
            ladder = difference(np.repeat(np.arange(live.size), S_LADDER.size), np.tile(S_LADDER, live.size))
            s_max, tail_est = _find_s_max(ladder.reshape(2, live.size, S_LADDER.size), spec)
            # two panels per unit of s, the control's scale, and two per pi radians of the widest strike's phase
            freq = moneyness / root_w[:, None]
            n = np.ceil(2.0 * s_max * (1.0 + np.abs(freq).max(axis=1, initial=0.0) / math.pi))
            integral, quad_err = _midpoint(lambda m, s: difference(m, s) / s, freq, s_max, n,
                                           0.25 * spec.abs_tol * math.pi)
        except InversionError as exc:
            exc.maturity = int(live[exc.maturity])
            raise
        d = (moneyness + np.array([0.5, -0.5])[:, None, None] * w[:, None]) / root_w[:, None]
        r[:, live] = 0.5 * _erfc(-d / math.sqrt(2.0)).astype(float) + np.swapaxes(integral, 1, 2) / math.pi
        err[live] = ((quad_err.max(axis=0) + tail_est) / math.pi).T
    return ProbabilityPair(r1=r[0].reshape(shape)[()], r2=r[1].reshape(shape)[()],
                           achieved_error_estimate=err.reshape(shape)[()])

"""Monte Carlo oracle under the risk-neutral dynamics.

The model is the joint system

    d ln S = (r - v/2) dt + sqrt(v) dz1,
    dv     = (kappa*theta - (kappa+lam)*v) dt + sigma*sqrt(v) dz2,
    r      = mu + beta*v,        corr(dz1, dz2) = rho_sv.

Two simulators, one scheme each:

* :func:`simulate_price` and :func:`simulate_bond` run full-truncation Euler:
  v+ = max(v, 0) wherever the variance enters a coefficient, while the
  carried state v itself is left uncapped.  The stochastic discount
  exp(-Integral r dt) is accumulated by the trapezoid rule on the short-rate
  path, and the payoff is read off the simulated stock.  Each step draws two
  normals (one with ``simulate_bond``, which needs no stock).  The bond never
  needs its own driver: with rho_bv = 1 it is a deterministic function of
  (tau, v) along each path.

* :func:`simulate_grid`, the oracle behind ``svsir verify``, is a conditional
  (mixing) estimator on Andersen's (2008) quadratic-exponential (QE) variance
  paths.  Each step draws one uniform u and takes one QE step of v: the
  quadratic branch maps u to a normal by inverse CDF, the exponential branch
  (psi > 1.5) uses u itself.  The loop accumulates I_v = Integral v dt by the
  trapezoid rule.  Given the variance path, ln S_T is Gaussian with mean
  ln S + I_r - I_v/2 + rho*W and variance (1 - rho^2)*I_v, where
  I_r = mu*tau + beta*I_v and W = Integral sqrt(v) dz2
  = (v_T - v0 - kappa*theta*tau + (kappa+lam)*I_v)/sigma.  So every path has
  a Black-type call price, exp(-I_r)*(F*N(d1) - K*N(d2)), and the estimate is
  its mean over paths; no stock is simulated.  A path whose conditional
  variance is 0 (rho = +-1, or I_v = 0) prices at the discounted intrinsic
  value of its conditional forward.

One path set prices a whole grid: :func:`simulate_grid` runs the QE loop one
segment per maturity, in sorted order, and after each reads every strike off
the same paths.  A segment takes ``max(1, ceil(length * n_steps_per_year))``
equal steps, so no step is longer than a one-maturity run's; a segment of zero
length (a repeated maturity) takes none.  Estimates on one path set share
their noise, so the errors of a grid's points are correlated.

Determinism contract: a counter-based Philox stream keyed by the seed, with
normal variates by inverse CDF, so identical (seed, inputs) give bit-identical
estimates on a platform.  A QE step draws exactly one uniform per path, an
Euler step one or two normals.  Each draw has a fixed index in the stream:
with n paths, path i reads draw s*n + i at QE step s; at Euler step s it reads
2*s*n + i for z2 and 2*s*n + n + i for z1 (with stock), or s*n + i (without).
So every path's value is fixed by the seed, whatever runs it.  An estimate
takes the mean and standard deviation of its samples by numpy's pairwise
sums, after shifting them by their first (:func:`_moments`); the grid does so
per block of paths and combines the blocks in block order (:func:`_combine`),
and the Euler simulators take their samples as one block.  For maturities on
the step lattice, such as 0.5 and 1 year at 250 steps a year, each grid
estimate equals the one-maturity grid estimate at the same seed bit for bit.
The loops reuse preallocated buffers in place but keep the operand order of
the plain expressions, so that reuse does not change a path.

Every operation of a step is elementwise per path, so the step loops run on
path slices at once, one slice per CPU the process may use (its affinity
mask, which ``taskset`` and cgroups bound; there is no setting) and none
shorter than ``MIN_SLICE_PATHS``.  Each slice draws from its own Philox
positioned at its draws' indices, so the results are bit-identical at any
slice count.  With one slice the loop runs in the calling thread and starts
none.  The Euler loop splits the paths into contiguous slices of full-length
buffers.  :func:`simulate_grid` splits them by their count alone into blocks
of at most ``BLOCK_PATHS`` (:func:`_blocks`), which the slices take in turn
as each finishes one, so its memory is eight block-length arrays per slice
and does not grow with the paths.  Every buffer is allocated once, in the
calling thread, and the grid's read-off reuses the QE loop's scratch.
:func:`simulate_grid` alone on the example grid (2 CPUs) peaks 3.8 MiB RSS
above its imports at 100k paths and 4.7 MiB at 1,000,000, where holding the
whole path set took 7.9 and 71.4 MiB.

scipy is imported only here, inside :func:`_to_normals` (``ndtri``) and
:func:`_grid_block` (``ndtr``): loading ``scipy.special`` costs about 0.3 s,
and ``import svsir`` and the CLI's ``price``, ``sweep`` and ``bond`` never
simulate a path, so they never pay it.  The thread pool behind the slices is
imported as lazily, only when a run has more than one slice.
"""
from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (InvalidParameter, MarketState, ModelParams, OptionKind, OptionSpec,
                    check_nonnegative, validate)

# Andersen's switch between the quadratic (psi <= PSI_C) and exponential QE branches
PSI_C = 1.5
# psi = s^2/m^2 is floored here before the quadratic branch divides by it: at
# psi = 0 (v = 0 absorbing, theta = 0) the step must stay finite and give m = 0
PSI_FLOOR = 1e-100
# the shortest path slice given a thread of its own: on a 2-CPU host, two
# slices broke even with one at ~3k paths each (the per-step Python calls
# and stream seeks no longer amortised), so 8k keeps a margin
MIN_SLICE_PATHS = 8192
# the longest path block simulate_grid runs at once in a slice, so that it
# holds eight block arrays per slice at any path count; 2**15 makes four
# blocks of 25,000 at 100k paths, where 2**14 (eight of 12,500) saved
# 1.5 MiB but cost the benchmark's verify workload 17% of its throughput
BLOCK_PATHS = 2**15
# sqrt of the smallest normal double (2**-1022): below it, squares are subnormal or 0
_SQRT_TINY = 2.0**-511

# a block's size, first sample, and mean and standard deviation after the shift by its first
_Moments = tuple[int, float, float, float]


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps_per_year: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1000:
            raise InvalidParameter(f"n_paths: must be >= 1000, got {self.n_paths}")
        if self.n_steps_per_year < 50:
            raise InvalidParameter(
                f"n_steps_per_year: must be >= 50, got {self.n_steps_per_year}"
            )
        if self.seed < 0:
            raise InvalidParameter(f"seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int


def _moments(samples: np.ndarray, tmp: np.ndarray) -> _Moments:
    """Size, first sample, and mean and standard deviation of ``samples``
    shifted by their first, which they are in place; ``tmp``, of their size,
    takes the squared deviations."""
    # shifting by the first sample leaves the moments as the plain two-pass
    # formulas give them, but degenerate (constant) samples come out with a
    # standard deviation of exactly zero
    first = samples[0]
    samples -= first
    # np.std(ddof=1)'s own steps and pairwise sums, bit for bit, without its
    # temporary: in the grid's worker threads that would be allocated anew
    mean = samples.mean()
    np.subtract(samples, mean, out=tmp)
    np.square(tmp, out=tmp)
    std = np.sqrt(tmp.sum() / (samples.size - 1))
    if std < _SQRT_TINY:
        # the squares underflow (to 0 for all samples below ~1e-162): take the
        # moments of the samples scaled by their largest magnitude instead
        scale = float(np.abs(samples).max())
        if scale > 0.0:
            std = (samples / scale).std(ddof=1) * scale
    return samples.size, first, mean, std


def _combine(blocks: Sequence[_Moments]) -> McEstimate:
    """Mean and standard error of the union of blocks of samples, from their
    :func:`_moments`, merged in the order given (Chan, Golub & LeVeque 1979).

    Each merge adds the blocks' root sums of squared deviations by ``hypot``,
    so that tiny samples keep their standard error; one block is returned as
    its moments give it."""
    (n, first, mean, std), *rest = blocks
    if rest:
        root = std * math.sqrt(n - 1)
        for n_b, first_b, mean_b, std_b in rest:
            total = n + n_b
            delta = (first_b - first) + mean_b - mean
            mean += delta * n_b / total
            root = math.hypot(root, std_b * math.sqrt(n_b - 1), delta * math.sqrt(n * n_b / total))
            n = total
        std = root / math.sqrt(n - 1)
    return McEstimate(
        mean=float(first + mean),
        std_error=float(std / math.sqrt(n)),
        n_paths=n,
    )


def _estimate(samples: np.ndarray) -> McEstimate:
    """Mean and standard error of ``samples``, which are shifted in place."""
    return _combine([_moments(samples, np.empty_like(samples))])


def _to_normals(u: np.ndarray) -> None:
    """Map the uniforms in ``u`` to standard normals in place, by inverse CDF."""
    from scipy.special import ndtri

    # rng.random() can emit exactly 0.0; keep ndtri finite
    np.maximum(u, 2.0**-53, out=u)
    ndtri(u, out=u)


class _Stream:
    """The Philox uniforms of ``seed`` from absolute draw index ``start`` on.

    Philox makes its uniforms in blocks of four, and ``advance`` skips whole
    blocks after dropping what is left of a partly drawn one; so a seek to
    draw k advances to k's block and discards ``k % 4`` uniforms.
    """

    def __init__(self, seed: int, start: int = 0) -> None:
        self._bits = np.random.Philox(seed)
        self._rng = np.random.Generator(self._bits)
        self._at = 0
        self.seek(start)

    def seek(self, k: int) -> None:
        """Move on to draw ``k``, which must not lie before the next draw."""
        if k == self._at:
            return
        blocks = k // 4 - -(-self._at // 4)  # whole blocks after the partly drawn one
        if blocks >= 0:
            self._bits.advance(blocks)
            self._at = k - k % 4
        if k > self._at:
            self._rng.random(k - self._at)
        self._at = k

    def uniforms(self, out: np.ndarray) -> None:
        """Fill ``out`` with the next ``out.size`` uniforms."""
        self._rng.random(out=out)
        self._at += out.size

    def normals(self, out: np.ndarray) -> None:
        """Fill ``out`` with standard normals by inverse CDF."""
        self.uniforms(out)
        _to_normals(out)


def _slice_count(n_paths: int) -> int:
    """Path slices to run at once: one per CPU this process may use, but none
    shorter than ``MIN_SLICE_PATHS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_paths // MIN_SLICE_PATHS))


def _split(n: int, k: int) -> list[slice]:
    """``k`` contiguous slices of near-equal length covering ``range(n)``."""
    return [slice(n * j // k, n * (j + 1) // k) for j in range(k)]


def _run(tasks: Sequence[Callable[[], object]]) -> None:
    """Run ``tasks`` at once: the calling thread takes the first, a worker
    thread each of the others.  Numpy releases the interpreter lock inside its
    loops, so the slices' array work overlaps."""
    if len(tasks) == 1:
        tasks[0]()
        return
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(tasks) - 1) as pool:
        # each worker runs in a copy of the caller's context, which holds numpy's error state
        futures = [pool.submit(contextvars.copy_context().run, task) for task in tasks[1:]]
        tasks[0]()
        for future in futures:
            future.result()


def _steps(length: float, cfg: McConfig) -> tuple[int, float]:
    """Step count and step size of a segment: ``max(1, ceil(length * n_steps_per_year))``
    equal steps, or none if ``length`` is 0."""
    n_steps = max(1, math.ceil(length * cfg.n_steps_per_year)) if length > 0 else 0
    return n_steps, length / max(n_steps, 1)


def _terminal(params: ModelParams, v0: float, ln_spot: float, tau: float, cfg: McConfig,
              with_stock: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal (ln S, v, Integral r dt) arrays after full-truncation Euler to ``tau``."""
    n = cfg.n_paths
    ln_s = np.full(n, float(ln_spot))
    v = np.full(n, float(v0))
    rate_integral = np.zeros(n)
    arrays = (ln_s, v, rate_integral, *(np.empty(n) for _ in range(6)))
    _run([partial(_euler_paths, params, tau, cfg, with_stock, part, *(a[part] for a in arrays))
          for part in _split(n, _slice_count(n))])
    return ln_s, v, rate_integral


def _euler_paths(params: ModelParams, tau: float, cfg: McConfig, with_stock: bool, part: slice,
                 ln_s: np.ndarray, v: np.ndarray, rate_integral: np.ndarray, v_pos: np.ndarray,
                 r_now: np.ndarray, vol: np.ndarray, z1: np.ndarray, z2: np.ndarray,
                 tmp: np.ndarray) -> None:
    """Full-truncation Euler to ``tau`` on the paths ``part``, in place on their
    views of the state (``ln_s``, ``v``, ``rate_integral``) and of six scratch buffers."""
    rho = params.rho_sv
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    drift_level = params.kappa * params.theta
    alpha = params.alpha
    n_steps, dt = _steps(tau, cfg)
    sqrt_dt = math.sqrt(dt)
    n = cfg.n_paths
    draws = 2 * n if with_stock else n  # uniforms a step takes over all paths

    stream = _Stream(cfg.seed, part.start)
    np.maximum(v, 0.0, out=v_pos)
    np.multiply(v_pos, params.beta, out=r_now)
    r_now += params.mu  # r at the start of each step

    # each line keeps the operand order of the plain expressions
    #   ln_s += (r_now - 0.5*v_pos)*dt + vol*sqrt_dt*(rho*z2 + rho_perp*z1)
    #   v = v + (drift_level - alpha*v_pos)*dt + sigma*vol*sqrt_dt*z2
    #   rate_integral += 0.5*(r_now + r_next)*dt
    # so the paths do not depend on how the buffers are reused
    for step in range(n_steps):
        np.sqrt(v_pos, out=vol)
        stream.seek(step * draws + part.start)
        stream.normals(z2)
        if with_stock:
            stream.seek(step * draws + n + part.start)
            stream.normals(z1)
            z1 *= rho_perp
            np.multiply(z2, rho, out=tmp)
            z1 += tmp
            np.multiply(vol, sqrt_dt, out=tmp)
            z1 *= tmp
            np.multiply(v_pos, 0.5, out=tmp)
            np.subtract(r_now, tmp, out=tmp)
            tmp *= dt
            tmp += z1
            ln_s += tmp
        np.multiply(v_pos, alpha, out=tmp)
        np.subtract(drift_level, tmp, out=tmp)
        tmp *= dt
        v += tmp
        vol *= params.sigma
        vol *= sqrt_dt
        vol *= z2
        v += vol
        np.maximum(v, 0.0, out=v_pos)
        r_next = z1  # z1 is free again: it takes r at the end of the step
        np.multiply(v_pos, params.beta, out=r_next)
        r_next += params.mu
        np.add(r_now, r_next, out=tmp)
        tmp *= 0.5
        tmp *= dt
        rate_integral += tmp
        r_now, z1 = r_next, r_now


def _qe_paths(params: ModelParams, first: int, n_steps: int, dt: float, cfg: McConfig,
              part: slice, v: np.ndarray, var_integral: np.ndarray, u: np.ndarray,
              mean: np.ndarray, psi: np.ndarray, tmp: np.ndarray, v_next: np.ndarray) -> None:
    """QE steps ``first .. first + n_steps``, each of length ``dt``, on the paths
    ``part``, in place on their views of the state (``v``, ``var_integral``)
    and of five scratch buffers."""
    n = cfg.n_paths
    stream = _Stream(cfg.seed, first * n + part.start)
    # the conditional moments of a step: E[v_next | v] = c0 + c1*v, Var[v_next | v] = c2*v + c3
    alpha, sigma2 = params.alpha, params.sigma * params.sigma
    c1, one_minus = math.exp(-alpha * dt), -math.expm1(-alpha * dt)
    theta_rn = params.kappa * params.theta / alpha  # risk-neutral long-run variance
    c0, c2 = theta_rn * one_minus, sigma2 * c1 * one_minus / alpha
    c3 = theta_rn * sigma2 * one_minus * one_minus / (2.0 * alpha)
    half_dt = 0.5 * dt

    # each line keeps the operand order of the plain expressions
    #   m = c0 + c1*v;  psi = (c3 + c2*v) / max(m**2, tiny)
    #   quadratic:   q = 2/clip(psi, PSI_FLOOR, PSI_C);  b2 = q - 1 + sqrt((q - 1)*q)
    #                v_next = m/(b2 + 1) * (sqrt(b2) + ndtri(u))**2
    #   exponential: with 1 - p = 2/(psi + 1), v_next = log((1 - p)/(1 - u)) * m/(1 - p)
    #                if u > p, else 0
    #   var_integral += (v + v_next)*(0.5*dt)
    # so the paths do not depend on how the buffers are reused
    tiny = np.finfo(float).tiny
    for step in range(first, first + n_steps):
        stream.seek(step * n + part.start)
        stream.uniforms(u)
        np.multiply(v, c1, out=mean)
        mean += c0
        np.multiply(v, c2, out=psi)
        psi += c3
        np.square(mean, out=tmp)
        np.maximum(tmp, tiny, out=tmp)
        psi /= tmp
        exp_paths = np.flatnonzero(psi > PSI_C)
        if exp_paths.size:
            # Andersen's p = (psi - 1)/(psi + 1), held as 1 - p so that it cannot round to 0
            not_p = 2.0 / (psi[exp_paths] + 1.0)
            not_u = 1.0 - u[exp_paths]
            v_exp = np.where(not_u < not_p,
                             np.log(not_p / not_u) * mean[exp_paths] / not_p, 0.0)
        np.clip(psi, PSI_FLOOR, PSI_C, out=psi)
        np.divide(2.0, psi, out=psi)
        np.subtract(psi, 1.0, out=tmp)
        psi *= tmp
        np.sqrt(psi, out=psi)
        psi += tmp  # b^2
        np.add(psi, 1.0, out=tmp)
        mean /= tmp  # a = m/(b^2 + 1)
        np.sqrt(psi, out=psi)
        _to_normals(u)
        psi += u
        np.square(psi, out=v_next)
        v_next *= mean
        if exp_paths.size:
            v_next[exp_paths] = v_exp
        np.add(v, v_next, out=tmp)
        tmp *= half_dt
        var_integral += tmp
        v, v_next = v_next, v
    if n_steps % 2:
        # an odd step count leaves the state in the caller's v_next: move it back
        np.copyto(v_next, v)


def _blocks(n_paths: int) -> list[slice]:
    """The fewest contiguous blocks of near-equal length covering
    ``range(n_paths)`` with none longer than ``BLOCK_PATHS``.  The split
    depends on ``n_paths`` alone."""
    return _split(n_paths, -(-n_paths // BLOCK_PATHS))


def _grid_block(params: ModelParams, spot: float, v0: float, strikes: Sequence[float],
                maturities: Sequence[float], cfg: McConfig, part: slice, v: np.ndarray,
                var_integral: np.ndarray, *scratch: np.ndarray) -> list[_Moments]:
    """The :func:`_moments` of every grid point on the paths ``part``, maturities
    outer, strikes inner, in the order given: one QE segment to each maturity
    in sorted order, in place on views of the state (``v``, ``var_integral``)
    and of six scratch buffers, each strike read off after its maturity's."""
    from scipy.special import ndtr

    rho, sigma = params.rho_sv, params.sigma
    var_share = max(0.0, 1.0 - rho * rho)
    v.fill(v0)
    var_integral.fill(0.0)
    # the QE loop takes the first five, the read-off all six
    log_fwd, fwd, disc, std, d1, n2 = scratch
    rows: list[list[_Moments]] = [[] for _ in maturities]
    done, steps_done = 0.0, 0
    for m in sorted(range(len(maturities)), key=lambda m: maturities[m]):
        tau = maturities[m]
        n_steps, dt = _steps(tau - done, cfg)
        _qe_paths(params, steps_done, n_steps, dt, cfg, part, v, var_integral, *scratch[:5])
        done, steps_done = tau, steps_done + n_steps
        # ln(F e^{-I_r}/S) = rho*W - rho^2*I_v/2, with W read off the variance path
        np.subtract(v, v0 + params.kappa * params.theta * tau, out=fwd)
        fwd *= rho / sigma
        np.multiply(var_integral, rho * params.alpha / sigma - 0.5 * rho * rho, out=d1)
        fwd += d1
        np.multiply(var_integral, params.beta, out=disc)
        disc += params.mu * tau  # I_r
        np.add(fwd, disc, out=log_fwd)  # ln(F/S)
        np.exp(fwd, out=fwd)
        fwd *= spot  # F e^{-I_r}
        np.negative(disc, out=disc)
        np.exp(disc, out=disc)  # e^{-I_r}
        np.multiply(var_integral, var_share, out=std)
        np.sqrt(std, out=std)
        flat = std == 0.0
        any_flat = bool(flat.any())
        for strike in strikes:
            np.add(log_fwd, math.log(spot / strike), out=d1)
            # a flat path (std = 0) divides by 0 here; its payoff is replaced below
            with np.errstate(divide="ignore", invalid="ignore"):
                d1 /= std
            np.multiply(std, 0.5, out=n2)
            d1 += n2
            np.subtract(d1, std, out=n2)
            ndtr(n2, out=n2)
            n2 *= disc
            n2 *= strike
            ndtr(d1, out=d1)
            d1 *= fwd
            d1 -= n2  # e^{-I_r} (F N(d1) - K N(d2))
            if any_flat:
                np.multiply(disc, strike, out=n2)
                np.subtract(fwd, n2, out=n2)
                np.maximum(n2, 0.0, out=n2)
                np.copyto(d1, n2, where=flat)
            rows[m].append(_moments(d1, n2))
    return [point for row in rows for point in row]


def simulate_grid(
    params: ModelParams,
    spot: float,
    v0: float,
    strikes: Sequence[float],
    maturities: Sequence[float],
    cfg: McConfig,
) -> list[McEstimate]:
    """Call-price estimates over a (maturity x strike) grid, by the conditional
    estimator on QE variance paths.

    One path set runs one segment to each maturity in sorted order, and
    every strike is read off the same paths there.  The paths run in the
    blocks of :func:`_blocks`, each slice taking the next block left on
    buffers of one block's length, and each point's block moments are
    combined in block order.  Returns maturities outer, strikes inner, in
    the order given.  At ``tau = 0`` the estimate is the intrinsic value
    with standard error 0.
    """
    validate(params)
    for tau in maturities:
        MarketState(spot=spot, variance=v0, tau=tau)
    for strike in strikes:
        OptionSpec(strike=strike)
    blocks = _blocks(cfg.n_paths)
    k = min(_slice_count(cfg.n_paths), len(blocks))
    size = max(part.stop - part.start for part in blocks)
    # every slice's state and scratch, allocated here in the calling thread
    buffers = [[np.empty(size) for _ in range(8)] for _ in range(k)]
    points: list[list[_Moments]] = [[] for _ in blocks]
    task = partial(_grid_block, params, spot, v0, strikes, maturities, cfg)
    # blocks go to whichever slice is free, so a slice slowed by other load
    # takes fewer; a block's moments do not depend on the slice that ran it
    pending = deque(range(len(blocks)))  # its pops are thread-safe

    def run_blocks(bufs: list[np.ndarray]) -> None:
        while True:
            try:
                b = pending.popleft()
            except IndexError:
                return
            part = blocks[b]
            points[b] = task(part, *(a[:part.stop - part.start] for a in bufs))

    _run([partial(run_blocks, bufs) for bufs in buffers])
    return [_combine(point) for point in zip(*points)]


def simulate_price(
    params: ModelParams, state: MarketState, opt: OptionSpec, cfg: McConfig
) -> McEstimate:
    """Discounted-payoff estimate of the European option price."""
    validate(params)
    if state.tau == 0.0:
        intrinsic = (
            max(state.spot - opt.strike, 0.0)
            if opt.kind is OptionKind.CALL
            else max(opt.strike - state.spot, 0.0)
        )
        return McEstimate(mean=intrinsic, std_error=0.0, n_paths=cfg.n_paths)
    ln_s, _, rate_integral = _terminal(
        params, state.variance, math.log(state.spot), state.tau, cfg, with_stock=True
    )
    s_t = np.exp(ln_s)
    if opt.kind is OptionKind.CALL:
        payoff = np.maximum(s_t - opt.strike, 0.0)
    else:
        payoff = np.maximum(opt.strike - s_t, 0.0)
    return _estimate(np.exp(-rate_integral) * payoff)


def simulate_bond(params: ModelParams, v0: float, tau: float, cfg: McConfig) -> McEstimate:
    """Estimate of E[exp(-Integral_0^tau (mu + beta*v_s) ds)]; the closed-form
    bond's Monte Carlo counterpart."""
    validate(params)
    check_nonnegative("variance", v0)
    check_nonnegative("tau", tau)
    _, _, rate_integral = _terminal(params, v0, 0.0, tau, cfg, with_stock=False)
    return _estimate(np.exp(-rate_integral))

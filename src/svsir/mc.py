"""Monte Carlo oracle under the risk-neutral dynamics.

The model is the joint system

    d ln S = (r - v/2) dt + sqrt(v) dz1,
    dv     = (kappa*theta - (kappa+lam)*v) dt + sigma*sqrt(v) dz2,
    r      = mu + beta*v,        corr(dz1, dz2) = rho_sv.

One scheme serves every estimate: a conditional (mixing) estimator on
Andersen's (2008) quadratic-exponential (QE) variance paths.  Each step draws
one uniform u and takes one QE step of v: the quadratic branch maps u to a
normal by inverse CDF, the exponential branch (psi > 1.5) uses u itself.  The
loop accumulates I_v = Integral v dt by the trapezoid rule.  Given the
variance path, ln S_T is Gaussian with mean ln S + I_r - I_v/2 + rho*W and
variance (1 - rho^2)*I_v, where I_r = mu*tau + beta*I_v and W = Integral
sqrt(v) dz2 = (v_T - v0 - kappa*theta*tau + (kappa+lam)*I_v)/sigma.  So every
path has a Black-type call price, exp(-I_r)*(F*N(d1) - K*N(d2)), and a
discount exp(-I_r), and an estimate is the mean over paths; no stock is
simulated.  A path whose conditional variance is 0 (rho = +-1, or I_v = 0)
prices at the discounted intrinsic value of its conditional forward.

One block reader, :func:`_read_block`, forms every estimate.  It runs one
segment to each maturity in sorted order on one path set, and after each
reads off, on the same paths, each option it is given and last the
maturity's discount exp(-I_r).  A segment takes ``max(1, ceil(length *
n_steps_per_year))`` equal steps, so no step is longer than a one-maturity
run's; a segment of zero length (a repeated maturity) takes none.  A put is
each path's call less exp(-I_r)*(F - K), which is put-call parity on the
path, exactly.  Estimates on one path set share their noise, so the errors of
a grid's points are correlated.  :func:`simulate_grid`, the oracle behind
``svsir verify``, gives the reader a call per strike and drops the
discounts; :func:`simulate_price` gives it one option; :func:`simulate_bond`,
the closed-form bond's counterpart, gives it none and keeps the discount.

What this gives up: no estimate simulates the stock itself, so the oracle is
not independent of the mixing identity above.

Determinism contract: a counter-based Philox stream keyed by the seed, with
normal variates by inverse CDF, so identical (seed, inputs) give bit-identical
estimates on a platform.  A step draws exactly one uniform per path, and each
draw has a fixed index in the stream: with n paths, path i reads draw s*n + i
at step s.  So every path's value is fixed by the seed, whatever runs it.  An
estimate takes the mean and standard deviation of a block's samples by
numpy's pairwise sums, after shifting them by their first (:func:`_moments`),
and combines the blocks in block order (:func:`_combine`).  For maturities on
the step lattice, such as 0.5 and 1 year at 250 steps a year, each grid
estimate equals the one-maturity estimate at the same seed bit for bit.
The loops reuse preallocated buffers in place but keep the operand order of
the plain expressions, so that reuse does not change a path.

Every operation of a step is elementwise per path, so the step loops run on
path slices at once, one per CPU the process may use (its affinity mask,
which ``taskset`` and cgroups bound; there is no setting).  The paths are
split by their count alone into blocks of at most ``BLOCK_PATHS``
(:func:`_blocks`), which the slices take in turn as each finishes one
(:func:`_on_blocks`).  Each block draws from its own Philox positioned at its
draws' indices, so the results are bit-identical at any slice count.  With
one slice the loop runs in the calling thread and starts none.  A slice
holds eight block-length buffers, allocated once in the calling thread, so
memory does not grow with the paths: on 2 CPUs at 1,000,000 paths,
:func:`simulate_grid` on the example grid peaks 4.7 MiB RSS above its imports
(71.4 MiB when it held the whole path set).

scipy is imported only here, inside :func:`_to_normals` (``ndtri``) and
:func:`_call` (``ndtr``): loading ``scipy.special`` costs about 0.3 s, and
``import svsir`` and the CLI's ``price``, ``sweep`` and ``bond`` never
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

from .model import InvalidParameter, MarketState, ModelParams, OptionKind, OptionSpec, validate

# Andersen's switch between the quadratic (psi <= PSI_C) and exponential QE branches
PSI_C = 1.5
# psi = s^2/m^2 is floored here before the quadratic branch divides by it: at
# psi = 0 (v = 0 absorbing, theta = 0) the step must stay finite and give m = 0
PSI_FLOOR = 1e-100
# the longest path block a slice runs at once: 2**15 makes four blocks of
# 25,000 at 100k paths, where 2**14 (eight of 12,500) saved 1.5 MiB but
# cost the benchmark's verify workload 17% of its throughput
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


def _to_normals(u: np.ndarray) -> None:
    """Map the uniforms in ``u`` to standard normals in place, by inverse CDF."""
    from scipy.special import ndtri

    # rng.random() can emit exactly 0.0; keep ndtri finite
    np.maximum(u, 2.0**-53, out=u)
    ndtri(u, out=u)


class _Stream:
    """The Philox uniforms of ``seed``, read from any absolute draw index.

    Philox makes its uniforms in blocks of four, and ``advance`` skips whole
    blocks after dropping what is left of a partly drawn one; so a read from
    draw k advances to k's block and discards ``k % 4`` uniforms.
    """

    def __init__(self, seed: int) -> None:
        self._bits = np.random.Philox(seed)
        self._rng = np.random.Generator(self._bits)
        self._at = 0

    def uniforms(self, k: int, out: np.ndarray) -> None:
        """Fill ``out`` with the uniforms from draw ``k`` on; ``k`` must not lie before the next draw."""
        if k != self._at:
            blocks = k // 4 - -(-self._at // 4)  # whole blocks after the partly drawn one
            if blocks >= 0:
                self._bits.advance(blocks)
                self._at = k - k % 4
            if k > self._at:
                self._rng.random(k - self._at)
        self._rng.random(out=out)
        self._at = k + out.size


def _slice_count() -> int:
    """Path slices to run at once: one per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _blocks(n_paths: int) -> list[slice]:
    """The fewest contiguous blocks of near-equal length covering
    ``range(n_paths)``, none longer than ``BLOCK_PATHS``."""
    k = -(-n_paths // BLOCK_PATHS)
    return [slice(n_paths * j // k, n_paths * (j + 1) // k) for j in range(k)]


def _on_blocks(task: Callable[..., object], n_paths: int, n_buffers: int) -> list:
    """The results of ``task(part, *buffers)`` on every block of :func:`_blocks`,
    in block order.  Each slice takes the next block left as it finishes one,
    on its own ``n_buffers`` arrays of a block's length.  The calling thread
    runs one slice and a worker thread each of the others; numpy releases the
    interpreter lock inside its loops, so the slices' array work overlaps."""
    blocks = _blocks(n_paths)
    size = max(part.stop - part.start for part in blocks)
    buffers = [[np.empty(size) for _ in range(n_buffers)]
               for _ in range(min(_slice_count(), len(blocks)))]
    results: list = [None] * len(blocks)
    pending = deque(range(len(blocks)))  # its pops are thread-safe

    def run_blocks(bufs: list[np.ndarray]) -> None:
        while True:
            try:
                b = pending.popleft()
            except IndexError:
                return
            part = blocks[b]
            results[b] = task(part, *(a[:part.stop - part.start] for a in bufs))

    if len(buffers) == 1:
        run_blocks(buffers[0])
        return results
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(buffers) - 1) as pool:
        # each worker runs in a copy of the caller's context, which holds numpy's error state
        futures = [pool.submit(contextvars.copy_context().run, run_blocks, bufs) for bufs in buffers[1:]]
        run_blocks(buffers[0])
        for future in futures:
            future.result()
    return results


def _steps(length: float, cfg: McConfig) -> tuple[int, float]:
    """Step count and step size of a segment: ``max(1, ceil(length * n_steps_per_year))``
    equal steps, or none if ``length`` is 0."""
    n_steps = max(1, math.ceil(length * cfg.n_steps_per_year)) if length > 0 else 0
    return n_steps, length / max(n_steps, 1)


def _qe_paths(params: ModelParams, first: int, n_steps: int, dt: float, cfg: McConfig,
              part: slice, v: np.ndarray, var_integral: np.ndarray, u: np.ndarray,
              mean: np.ndarray, psi: np.ndarray, tmp: np.ndarray, v_next: np.ndarray) -> None:
    """QE steps ``first .. first + n_steps``, each of length ``dt``, on the paths
    ``part``, in place on their views of the state (``v``, ``var_integral``)
    and of five scratch buffers."""
    n = cfg.n_paths
    stream = _Stream(cfg.seed)
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
        stream.uniforms(step * n + part.start, u)
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


def _call(spot: float, strike: float, flat: np.ndarray | None, log_fwd: np.ndarray, fwd: np.ndarray,
          disc: np.ndarray, std: np.ndarray, d1: np.ndarray, n2: np.ndarray) -> None:
    """Write each path's call price e^{-I_r} (F N(d1) - K N(d2)) into ``d1``, from
    the conditional law that :func:`_read_block` formed, with ``n2`` as scratch; a
    path in ``flat`` prices at its intrinsic value e^{-I_r} max(F - K, 0)."""
    from scipy.special import ndtr

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
    d1 -= n2
    if flat is not None:
        np.multiply(disc, strike, out=n2)
        np.subtract(fwd, n2, out=n2)
        np.maximum(n2, 0.0, out=n2)
        np.copyto(d1, n2, where=flat)


def _read_block(params: ModelParams, spot: float, v0: float, options: Sequence[OptionSpec],
                maturities: Sequence[float], cfg: McConfig, part: slice, v: np.ndarray, var_integral: np.ndarray,
                log_fwd: np.ndarray, fwd: np.ndarray, disc: np.ndarray, std: np.ndarray, price: np.ndarray,
                tmp: np.ndarray) -> list[_Moments]:
    """The :func:`_moments` on the paths ``part`` of each option's discounted
    payoff, then of the discount e^{-I_r}, maturities outer in the order given.
    After each maturity's QE segment, run in place on the paths' views of the
    state (``v``, ``var_integral``) and of six scratch buffers, it forms each
    path's conditional law of ln S_T: ``log_fwd`` = ln(F/S), ``fwd`` = F e^{-I_r},
    ``disc`` = e^{-I_r} and ``std``, its standard deviation.  The discount comes
    last, as :func:`_moments` shifts its samples in place."""
    rho, sigma = params.rho_sv, params.sigma
    var_share = max(0.0, 1.0 - rho * rho)
    v.fill(v0)
    var_integral.fill(0.0)
    rows: list[list[_Moments]] = [[] for _ in maturities]
    done, steps_done = 0.0, 0
    for m in sorted(range(len(maturities)), key=lambda m: maturities[m]):
        tau = maturities[m]
        n_steps, dt = _steps(tau - done, cfg)
        _qe_paths(params, steps_done, n_steps, dt, cfg, part, v, var_integral, log_fwd, fwd, disc, std, tmp)
        done, steps_done = tau, steps_done + n_steps
        # ln(F e^{-I_r}/S) = rho*W - rho^2*I_v/2, with W read off the variance path
        np.subtract(v, v0 + params.kappa * params.theta * tau, out=fwd)
        fwd *= rho / sigma
        np.multiply(var_integral, rho * params.alpha / sigma - 0.5 * rho * rho, out=tmp)
        fwd += tmp
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
        flat = flat if flat.any() else None
        for opt in options:
            _call(spot, opt.strike, flat, log_fwd, fwd, disc, std, price, tmp)
            if opt.kind is OptionKind.PUT:
                # parity holds on each path: put = call - e^{-I_r} (F - K)
                np.multiply(disc, opt.strike, out=tmp)
                np.subtract(fwd, tmp, out=tmp)
                price -= tmp
            rows[m].append(_moments(price, tmp))
        rows[m].append(_moments(disc, tmp))
    return [point for row in rows for point in row]


def _simulate(params: ModelParams, spot: float, v0: float, options: Sequence[OptionSpec],
              maturities: Sequence[float], cfg: McConfig) -> list[McEstimate]:
    """The estimates of :func:`_read_block` over the blocks of :func:`_on_blocks`,
    each point's block moments combined in block order: for each maturity in
    the order given, one per option in the order given, then its discount."""
    validate(params)
    for tau in maturities:
        MarketState(spot=spot, variance=v0, tau=tau)
    task = partial(_read_block, params, spot, v0, options, maturities, cfg)
    return [_combine(point) for point in zip(*_on_blocks(task, cfg.n_paths, 8))]


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
    every strike is read off the same paths there.  Returns maturities
    outer, strikes inner, in the order given.  At ``tau = 0`` the estimate
    is the intrinsic value with standard error 0.
    """
    estimates = _simulate(params, spot, v0, [OptionSpec(strike=strike) for strike in strikes], maturities, cfg)
    del estimates[len(strikes)::len(strikes) + 1]  # each maturity's discount
    return estimates


def simulate_price(
    params: ModelParams, state: MarketState, opt: OptionSpec, cfg: McConfig
) -> McEstimate:
    """Estimate of the European option price: the mean over QE variance paths
    of each path's conditional price, a put by parity on each path.  At
    ``tau = 0`` the estimate is the intrinsic value with standard error 0."""
    return _simulate(params, state.spot, state.variance, [opt], [state.tau], cfg)[0]


def simulate_bond(params: ModelParams, v0: float, tau: float, cfg: McConfig) -> McEstimate:
    """Estimate of E[exp(-Integral_0^tau (mu + beta*v_s) ds)], the closed-form
    bond's Monte Carlo counterpart: the mean of e^{-I_r} on the QE variance
    paths that :func:`simulate_price` reads at the same seed."""
    return _simulate(params, 1.0, v0, [], [tau], cfg)[0]  # the discount reads no spot

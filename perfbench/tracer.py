"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own code: each layer's public
function is replaced, at the module attribute its caller looks it up
through, by a wrapper that opens a span around the call and adds counts.
Nothing inside the program changes.  Spans stay in memory as
``(name, start, end, parent, pass_id)`` tuples and are written out once, at
the end of the run; self time is computed afterwards as a span's duration
minus the time its child spans cover.

``bond.g_of_tau`` runs ~10^5 times per handful of prices, so it is counted,
never timed: its time stays in the caller's (Riccati's) self time.  A target
that no longer exists is reported as absent and the run goes on, since
planned changes remove some of these functions from the hot path.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import math
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> layer that owns its self time.  "inversion.cf_eval" is the
# pricer's characteristic-function provider as the inversion calls it; its
# self time is the provider's glue code, the CF work itself being a child span.
LAYER_OF = {
    "cli.main": "cli",
    "cli.load_run_config": "cli",
    "pricer.price_sir": "pricer",
    "pricer.price_heston": "pricer",
    "inversion.cf_eval": "pricer",
    "bond.bond_price": "bond",
    "inversion.gil_pelaez": "inversion",
    "heston_cf.characteristic_fn": "heston_cf",
    "riccati.integrate_cd_batch": "riccati",
    "mc.simulate_price": "mc",
}
LAYERS = ("cli", "pricer", "bond", "heston_cf", "riccati", "inversion", "mc")
TAIL_PROBE_MIN_PHI = 1.0  # phi_max probes start at 32; the [0, PHI_MIN] sliver is far below


class Tracer:
    """In-memory spans and counters, grouped by pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[int, Counter] = {}
        self.pass_id = 0
        self._open: list[int] = []
        self.absent: list[str] = []

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts[pass_id] = Counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.pass_id][name] += n

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id)

    def summary(self) -> dict[int, dict[str, dict]]:
        """Pass id -> {"self_s": layer -> self seconds, "spans": name -> (count, seconds)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:  # type: ignore[misc]
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, dict]] = {
            p: {"self_s": dict.fromkeys(LAYERS, 0.0), "spans": {}} for p in self.counts
        }
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):  # type: ignore[misc]
            entry = out[pass_id]
            entry["self_s"][LAYER_OF[name]] += (end - start) - child_time[i]
            n, total = entry["spans"].get(name, (0, 0.0))
            entry["spans"][name] = (n + 1, total + end - start)
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrappers(tracer: Tracer) -> dict[tuple[str, str], object]:
    """(module, attribute) -> factory taking the original function."""

    def timed(name):
        def factory(fn):
            return lambda *a, **kw: tracer.call(name, fn, *a, **kw)
        return factory

    def counted(name):
        def factory(fn):
            def wrapper(*a, **kw):
                tracer.count(name)
                return fn(*a, **kw)
            return wrapper
        return factory

    def riccati(fn):
        def wrapper(params, tau, phis, *a, **kw):
            out = tracer.call("riccati.integrate_cd_batch", fn, params, tau, phis, *a, **kw)
            stats = out[-1]
            tracer.count("riccati.freqs", np.size(phis))
            tracer.count("riccati.steps", stats.steps_taken)
            tracer.count("riccati.rejected", stats.steps_rejected)
            return out
        return wrapper

    def heston_cf(fn):
        def wrapper(params, r0, x, v, tau, phi, *a, **kw):
            tracer.count("heston_cf.freqs", np.size(phi))
            return tracer.call("heston_cf.characteristic_fn", fn, params, r0, x, v, tau, phi, *a, **kw)
        return wrapper

    def gil_pelaez(fn):
        def wrapper(cf_provider, *a, **kw):
            inner = cf_provider.eval

            def cf_eval(j, phi):
                n = np.size(phi)
                tracer.count("inversion.cf_calls")
                tracer.count("inversion.cf_freqs", n)
                if n == 1 and float(np.ravel(phi)[0]) >= TAIL_PROBE_MIN_PHI:
                    tracer.count("inversion.tail_probes")
                return tracer.call("inversion.cf_eval", inner, j, phi)

            provider = dataclasses.replace(cf_provider, eval=cf_eval)
            return tracer.call("inversion.gil_pelaez", fn, provider, *a, **kw)
        return wrapper

    def mc(fn):
        def wrapper(params, state, opt, cfg):
            if state.tau > 0:
                steps = max(1, math.ceil(state.tau * cfg.n_steps_per_year))
                tracer.count("mc.path_steps", cfg.n_paths * steps)
            return tracer.call("mc.simulate_price", fn, params, state, opt, cfg)
        return wrapper

    return {
        ("svsir.cli", "load_run_config"): timed("cli.load_run_config"),
        ("svsir.cli", "price_sir"): timed("pricer.price_sir"),
        ("svsir.cli", "simulate_price"): mc,
        ("svsir.pricer", "price_heston"): timed("pricer.price_heston"),
        ("svsir.pricer", "gil_pelaez"): gil_pelaez,
        ("svsir.bond", "bond_price"): timed("bond.bond_price"),
        ("svsir.bond", "g_of_tau"): counted("bond.g_calls"),
        ("svsir.heston_cf", "characteristic_fn"): heston_cf,
        ("svsir.riccati", "integrate_cd_batch"): riccati,
    }


def install(tracer: Tracer):
    """Wrap every target that exists; return a function that restores them."""
    saved = []
    for (module_name, attr), factory in _wrappers(tracer).items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in tracer.absent:
                tracer.absent.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, factory(original))

    def restore() -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    return restore

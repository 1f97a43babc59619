"""svsir benchmark: drive the CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload sir_surface --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each pass runs every command of the workload through ``svsir.cli.main(argv)``
in this one process, with stdout captured.  At least two passes run, and
more while they fit in about ``--seconds``.  Every pass's output is checked
(see checks.py) and must be byte-identical to the first pass.

``--trace 0`` prints the end-to-end metrics: ``points_per_s`` (median over
passes of option rows written per second), ``setup_s`` (median time of fresh
interpreters that import ``svsir.cli`` and generate the workload's inputs)
and ``peak_rss_mb`` (``ru_maxrss`` of this process).  Times are scaled to a
nominal host speed (see speed.py); the wall-clock figures are in the details.
``--trace 1`` alternates plain and traced passes and prints the per-layer
metrics (see tracer.py), each the median over traced passes.
The last stdout line is the JSON result; the line before it holds the
details: pass samples, failing points and the machine record.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One process and one BLAS thread: set before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 7
# A median of at least two passes, and in a traced run a plain and a traced
# pass; more passes follow while they fit in --seconds.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
MAX_LISTED_FAILURES = 20

SETUP_CODE = (
    "import sys, pathlib; sys.path[:0] = [{src!r}, {bench!r}]; import svsir.cli, workloads; "
    "workloads.generate({workload!r}, {seed}, pathlib.Path({workdir!r}))"
)


def invoke(cli_main, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Run one CLI command; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the command's points; the run goes on
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def run_pass(cli_main, commands) -> tuple[float, float, list[tuple[int, str, str]]]:
    """Run every command once; return (wall s, nominal s, outputs)."""
    with speed.sampling() as sampler:
        start = perf_counter()
        outputs = [invoke(cli_main, cmd.argv) for cmd in commands]
        wall = perf_counter() - start
    return wall, sampler.nominal(wall), outputs


def score_pass(commands, outputs, first) -> tuple[int, int, list[str]]:
    """(points written, points failed, failure descriptions) of one pass.

    ``first`` is the first pass's outputs; a command whose stdout differs
    from it fails all its points.
    """
    bonds: dict[float, float] = {}
    for cmd, (code, out, _), (_, first_out, _) in zip(commands, outputs, first):
        # a bond table that changed between passes leaves the verify rows
        # without a lower bound, so they fail
        if cmd.kind == "bond" and code == 0 and out == first_out:
            bonds = checks.bond_table(out)
    written = failed = 0
    reasons: list[str] = []
    for cmd, (code, out, err), (_, first_out, _) in zip(commands, outputs, first):
        if cmd.kind == "bond":
            continue
        written += max(0, len(out.splitlines()) - 1)
        bad = checks.failed_points(cmd.kind, code, out, cmd.strikes, cmd.maturities, workloads.ABS_TOL, bonds)
        if out != first_out:
            bad = {(k, t): "stdout differs from the first pass" for k in cmd.strikes for t in cmd.maturities} | bad
        failed += len(bad)
        config = cmd.argv[cmd.argv.index("--config") + 1]
        note = f" ({err.strip().splitlines()[-1]})" if bad and err.strip() else ""
        reasons += [f"{Path(config).name} K={k:g} tau={t:g}: {why}{note}" for (k, t), why in sorted(bad.items())]
    return written, failed, reasons


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(wall s, nominal s) of fresh interpreters that import svsir.cli and build the inputs.

    The host speed is probed right before and after each child, not while
    it runs, so that no probe competes with it.
    """
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed,
                             workdir=str(WORK / f"{workload}-setup"))
    walls, nominal = [], []
    for _ in range(SETUP_REPEATS):
        with speed.sampling(periodic=False) as sampler:
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S)
            walls.append(perf_counter() - start)
        nominal.append(sampler.nominal(walls[-1]))
    return walls, nominal


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"p25": values[0], "median": values[0], "p75": values[0], "n": 1}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q[0], "median": q[1], "p75": q[2], "n": len(values)}


def layer_metrics(c, summary, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass from its counters and span summary,
    times multiplied by ``scale``: name -> (value, unit)."""
    own = {layer: t * scale for layer, t in summary["self_s"].items()}

    def spans(name):
        n, total = summary["spans"].get(name, (0, 0.0))
        return n, total * scale

    def ratio(num, den):
        return num / den if den else 0.0

    solves = spans("riccati.integrate_cd_batch")[0]
    steps, rejected = c["riccati.steps"], c["riccati.rejected"]
    inversions = spans("inversion.gil_pelaez")[0]
    return {
        "riccati.solves": (solves, "count"),
        "riccati.freqs": (c["riccati.freqs"], "count"),
        "riccati.steps": (steps, "count"),
        "riccati.rejected": (rejected, "count"),
        "riccati.accept_ratio": (ratio(steps, steps + rejected), "ratio"),
        "riccati.steps_per_solve": (ratio(steps, solves), "steps"),
        "riccati.self_s": (own["riccati"], "s"),
        "bond.price_calls": (spans("bond.bond_price")[0], "count"),
        "bond.g_calls": (c["bond.g_calls"], "count"),
        "bond.self_s": (own["bond"], "s"),
        "heston_cf.calls": (spans("heston_cf.characteristic_fn")[0], "count"),
        "heston_cf.freqs": (c["heston_cf.freqs"], "count"),
        "heston_cf.ns_per_freq": (ratio(own["heston_cf"] * 1e9, c["heston_cf.freqs"]), "ns"),
        "heston_cf.self_s": (own["heston_cf"], "s"),
        "inversion.calls": (inversions, "count"),
        "inversion.cf_calls": (c["inversion.cf_calls"], "count"),
        "inversion.cf_freqs": (c["inversion.cf_freqs"], "count"),
        "inversion.tail_probes": (c["inversion.tail_probes"], "count"),
        "inversion.freqs_per_price": (ratio(c["inversion.cf_freqs"], inversions), "count"),
        "inversion.cf_wait_s": (spans("inversion.cf_eval")[1], "s"),
        "inversion.self_s": (own["inversion"], "s"),
        "pricer.prices": (spans("pricer.price_sir")[0], "count"),
        "pricer.self_s": (own["pricer"], "s"),
        "cli.commands": (spans("cli.main")[0], "count"),
        "cli.parse_s": (spans("cli.load_run_config")[1], "s"),
        "cli.self_s": (own["cli"], "s"),
        "mc.calls": (spans("mc.simulate_price")[0], "count"),
        "mc.path_steps": (c["mc.path_steps"], "count"),
        "mc.ns_per_path_step": (ratio(own["mc"] * 1e9, c["mc.path_steps"]), "ns"),
        "mc.self_s": (own["mc"], "s"),
    }


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record() -> dict[str, object]:
    """CPU, caches and library versions of the machine the figures come from."""
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(str(index / "level")), _read(str(index / "type"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "caches_per_instance": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result, details)."""
    import svsir.cli

    import tracer as tracing

    commands = workloads.generate(workload, seed, WORK / workload)
    setup_walls, setup = ([], []) if trace else measure_setup(workload, seed)

    tracer = tracing.Tracer() if trace else None
    plain, traced_passes = [], []  # (wall s, nominal s) per pass
    attempted = failed = 0
    reasons: list[str] = []
    first = None
    started = perf_counter()
    pass_id = 0
    while True:
        traced = trace and pass_id % 2 == 1
        if traced:
            tracer.start_pass(pass_id)
            restore = tracing.install(tracer)
            try:
                wall, nominal, outputs = run_pass(lambda a: tracer.call("cli.main", svsir.cli.main, a), commands)
            finally:
                restore()
            traced_passes.append((wall, nominal))
        else:
            wall, nominal, outputs = run_pass(svsir.cli.main, commands)
            plain.append((wall, nominal))
        first = first or outputs
        written, bad, why = score_pass(commands, outputs, first)
        attempted += sum(cmd.points for cmd in commands)
        failed += bad
        reasons += [f"pass {pass_id}: {r}" for r in why]
        pass_id += 1
        elapsed = perf_counter() - started
        if pass_id >= MIN_PASSES and elapsed + 0.5 * elapsed / pass_id >= seconds:
            break

    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": pass_id,
        "fail_frac": failed / attempted,
        "failing_points": reasons[:MAX_LISTED_FAILURES],
        "machine": machine_record(),
        "plain_pass_wall_s": [w for w, _ in plain],
        "plain_pass_nominal_s": [n for _, n in plain],
    }
    if trace:
        # per-layer times are scaled to nominal host speed like the passes;
        # the ~1% of probing lands in whichever span it interrupts
        summary = tracer.summary()
        per_pass = [
            layer_metrics(tracer.counts[p], summary[p], nominal / wall)
            for p, (wall, nominal) in zip(sorted(tracer.counts), traced_passes)
        ]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
        overhead = statistics.median(n for _, n in traced_passes) / statistics.median(n for _, n in plain) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        spans_file = WORK / workload / "spans.jsonl"
        tracer.write(spans_file)
        details.update({
            "absent_targets": tracer.absent,
            "computed": ["mc.path_steps"],
            "spans_file": str(spans_file.relative_to(ROOT)),
            "traced_pass_wall_s": [w for w, _ in traced_passes],
            "traced_pass_nominal_s": [n for _, n in traced_passes],
        })
    else:
        rates = [written / n for _, n in plain]
        metrics = {
            "points_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
        details.update({
            "points_per_s": quartiles(rates),
            "points_per_wall_s": quartiles([written / w for w, _ in plain]),
            "setup_s": quartiles(setup),
            "setup_wall_s": quartiles(setup_walls),
        })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, with tracing off; print one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 10)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        details = json.loads(lines[-2])
        result["metrics"]["fail_frac"] = {"value": details["fail_frac"], "unit": "ratio"}
        results[workload] = result
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        for reason in details["failing_points"]:
            print(f"  FAIL {reason}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "svsir" / "cli.py").is_file():
        print(f"svsir sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""evidkit benchmark: one process, one workload (or all three), printed metrics.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; evidkit is imported from `src/` there.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The lines before it give the same
figures and each workload's own (fits_per_s, fit_p50_ms, ...) by name, with
their units, and the environment they were measured in.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread keeps runs on a shared 2-core box steady
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import MB, Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, fresh_import  # noqa: E402

SETUP_REPEATS = 30
SETUP_GROUPS = 5  # setup_s is the median of SETUP_GROUPS best-of-6 set-up times
MIN_PASSES = 3  # each operation's time is its best over at least this many passes

END_TO_END = [  # (name, unit); the same four on every workload
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_mem_mb", "MB"),
]


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} nproc={os.cpu_count()} "
            f"blas_threads={BLAS_THREADS}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, list]:
    """Set up, run an untimed reference pass (peak memory and oracle checks),
    then timed passes until `seconds` have gone.  With `trace`, untraced and
    traced passes alternate.  Between passes the workload is set up again on
    a spare instance, until there are SETUP_REPEATS set-up times, so that
    set-up is timed across the run and not in one spell of outside load."""
    wl = WORKLOADS[name]()
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    lines = []
    try:
        t_start = time.perf_counter()
        ek = timed_setup(wl, seed, workdir, setups := [])

        gc.collect()
        t_ref = time.perf_counter()
        tracemalloc.start()
        ref = wl.run_pass()
        peak_mb = tracemalloc.get_traced_memory()[1] / MB
        tracemalloc.stop()
        t_check = time.perf_counter()
        n_checks, check_failures = wl.check(ref)
        phases = {"setup": t_ref - t_start, "reference": t_check - t_ref,
                  "checks": time.perf_counter() - t_check}
        attempted = ref.attempted + n_checks
        failures = ref.failures + check_failures
        expected = dict(ref.outputs)  # every output, once seen, must repeat exactly

        passes, traced, tracers = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(passes) < MIN_PASSES or (trace and not traced):
            for tracer in ([None, Tracer()] if trace else [None]):
                gc.collect()
                if tracer is None:
                    p = wl.run_pass()
                    passes.append(p)
                else:
                    with tracer.installed(ek):
                        p = wl.run_pass(tracer)
                    traced.append(p)
                    tracers.append(tracer)
                attempted += p.attempted + 1
                failures += p.failures
                if not all(_same(out, expected.setdefault(op, out)) for op, out in p.outputs.items()):
                    failures.append("outputs differ from an earlier pass")
            # the later set-ups are spread evenly over the timed passes
            if len(setups) < SETUP_REPEATS * (1 - (deadline - time.perf_counter()) / seconds):
                timed_setup(WORKLOADS[name](), seed, workdir, setups)
        phases["timed"] = time.perf_counter() - deadline + seconds
        while len(setups) < SETUP_REPEATS:
            timed_setup(WORKLOADS[name](), seed, workdir, setups)
        quality = wl.quality(passes[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for t in tracers[1:]:
        attempted += 1
        if t.counts != tracers[0].counts:
            failures.append("per-layer counts differ between traced passes")

    op_s = best_times(passes)
    rates = wl.rates(op_s)
    figures = {
        "setup_s": statistics.median(min(setups[i::SETUP_GROUPS]) for i in range(SETUP_GROUPS)),
        "wall_s": sum(op_s.values()),
        "work_per_s": next(iter(rates.values())),
        "peak_mem_mb": peak_mb,
    }
    named = rates | quality | {"fail_frac": len(failures) / attempted}

    lines.append(f"env {environment()}")
    lines.append(f"workload {name} seed={seed} seconds={seconds:g} timed_passes={len(passes)} "
                 f"traced_passes={len(traced)} attempted={attempted} failed={len(failures)}")
    lines.append("phases " + " ".join(f"{k}={v:.2f}s" for k, v in phases.items()))
    lines.append("setups " + " ".join(f"{t:.4f}" for t in setups)
                 + f"; setup_s is the median of the best of each {SETUP_GROUPS}th")
    lines.append("passes wall_s " + " ".join(f"{sum(p.ops.values()):.4f}" for p in passes)
                 + f"; wall_s and rates take each of the {len(op_s)} operations at its best"
                 + f" over the {len(passes)} passes")
    for key, value in figures.items():
        lines.append(f"metric {key} {value:.6g} {dict(END_TO_END)[key]}")
    for key, value in named.items():
        unit = "ms" if key.endswith("_ms") else "1/s" if key.endswith("_per_s") else "ratio"
        lines.append(f"metric {key} {value:.6g} {unit}")
    lines += [f"failure {msg}" for msg in failures[:20]]
    lines += [f"known-defect {msg}" for msg in sorted(wl.defects)]

    if trace:
        layer = layer_metrics(ek, tracers, wl)
        layer["trace.overhead_frac"] = sum(best_times(traced).values()) / figures["wall_s"]
        metrics = {m: {"value": layer[m], "unit": unit} for m, unit in layer_metric_names(ek)}
    else:
        metrics = {m: {"value": figures[m], "unit": unit} for m, unit in END_TO_END}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, lines


def timed_setup(wl, seed: int, workdir: Path, setups: list):
    """Import evidkit afresh and build `wl`'s inputs; append the seconds taken
    to `setups` and return the new evidkit.  Modules imported earlier keep
    working for the workloads built on them, as evidkit binds its names at
    import time."""
    t0 = time.perf_counter()
    ek = fresh_import()
    wl.setup(ek, seed, workdir)
    setups.append(time.perf_counter() - t0)
    return ek


def best_times(passes: list) -> dict:
    """Each operation's best time over the passes that completed it.

    On a shared host the CPU switches between fast and slow spells tens of
    milliseconds long, and the share of slow time drifts from minute to
    minute.  The best of k of a short operation is far steadier from run to
    run than its median; README.md gives the figures.
    """
    labels = dict.fromkeys(label for p in passes for label in p.ops)
    return {label: min(p.ops[label] for p in passes if label in p.ops) for label in labels}


def _same(a, b) -> bool:
    """Two outputs of one operation are equal; arrays compare element by element."""
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def layer_metrics(ek, tracers: list, wl) -> dict:
    """Per-layer figures per traced pass: counts from the first pass (they must
    repeat exactly), times at their best over the traced passes."""
    times = [t.times() for t in tracers]
    out = {}
    for metric, _ in layer_metric_names(ek):
        if metric.endswith(("self_s", "wall_s")):
            out[metric] = min(t.get(metric, 0.0) for t in times)
        else:
            out[metric] = tracers[0].counts.get(metric, 0.0)
    out["check.far_rel_err"] = wl.far_rel_err
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "evidkit" / "__init__.py").is_file():
        print(f"bench: no evidkit sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    ek = fresh_import()
    if not Path(ek.__file__).resolve().is_relative_to(src):
        print(f"bench: evidkit was imported from {ek.__file__}, not from {src}", file=sys.stderr)
        return 2

    for name in (WORKLOADS if args.workload == "all" else [args.workload]):
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

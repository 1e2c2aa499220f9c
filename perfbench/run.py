#!/usr/bin/env python3
"""Benchmark of the ammivi library: fit-vi, predict, fit-mcmc and compare.

Run from the repository root:

    python3 perfbench/run.py --workload vi-predict-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30      # every workload, one process each

Each workload runs in its own process as a closed loop: one caller, one
operation at a time, on inputs simulated from --seed, after one untimed
warm-up operation on a tiny input. The library is
imported from ``src/`` next to this directory and receives only the input
CSV files; the simulated truth stays here for the accuracy checks. Every
output is checked, and an operation that raises or fails a check counts
as failed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced operations on the same input and prints the per-layer metrics, with
the tracing overhead as their difference. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import os

# Fixed before numpy loads: the dense least squares in fit_additive changes
# speed with the BLAS thread count. Must be <= the number of cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("vi-predict-large", "gibbs-large", "compare-small")
SETUP_PROBES = 4          # fresh-process set-ups timed in addition to the run's own
HARD_LIMIT_S = 120.0      # start no operation after this; each run must end within 180 s
CHILD_TIMEOUT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="workload to run (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def run_all(args) -> int:
    """Every workload in its own child process; worst exit code wins."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode)
    return worst


def probe_setups(args) -> list[float]:
    """Set-up seconds of fresh processes: import, simulate, write the CSVs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def blas_thread_count():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_record(args) -> dict:
    import numpy
    import scipy
    import ammivi
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads_set": BLAS_THREADS, "blas_threads": blas_thread_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "ammivi": getattr(ammivi, "__version__", "unknown"),
        "commit": git_commit(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(values):
    """(percentile, value) at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timing_note(values) -> str:
    t = tail(values)
    if t is None:
        return f"median of {len(values)}; tail n/a (needs >= 11 samples)"
    return f"median of {len(values)}; tail p{t[0]:.1f} = {t[1]:.6g}"


class Run:
    """One benchmark run of one workload in this process."""

    def __init__(self, args, workloads_mod, started: float):
        self.args = args
        self.wl = workloads_mod
        self.workload, self.op = workloads_mod.WORKLOADS[args.workload]
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.rmse: dict[str, dict[int, float]] = {"vi": {}, "mcmc": {}}
        self.defects: dict[str, list] = {}    # kind -> [count, first message]
        self.out = WORK / self.workload.name / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    def attempt(self, k: int, inp, tracer=None):
        """One operation and its checks; None when it raised or failed a check."""
        self.attempted += 1
        sweep_clock = [] if tracer is not None else None
        try:
            if tracer is None:
                times, outputs = self.op(self.workload, inp, self.out)
            else:
                with tracer, tracer.span("op." + self.workload.name):
                    times, outputs = self.op(self.workload, inp, self.out, sweep_clock)
            facts = self.wl.verify(self.workload, inp, outputs)
        except Exception as exc:  # counted, reported, and the loop goes on
            self.failed += 1
            print(f"operation {self.attempted} on input {k} FAILED: "
                  f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        for defect in facts.pop("defects", []):
            entry = self.defects.setdefault(defect.split(" (")[0], [0, defect])
            entry[0] += 1
        for fitter, value in facts.pop("rmse").items():
            self.rmse[fitter].setdefault(k, value)
        if sweep_clock is not None:
            facts["sweep_intervals"] = [b - a for a, b in zip(sweep_clock, sweep_clock[1:])]
        return times, facts

    def keep_going(self, done: int, minimum: int, deadline: float, last: float) -> bool:
        """Start another operation if it is due and would end near the deadline.

        An operation is started while at least half of its expected duration
        (that of the previous one) fits before the deadline, so runs end
        within half an operation of --seconds instead of overrunning by one.
        """
        now = time.perf_counter()
        if now - self.started > HARD_LIMIT_S:
            return False
        return done < minimum or now + 0.5 * last < deadline

    def pooled_rmse(self, fitter: str):
        values = list(self.rmse[fitter].values())
        if not values:
            return None
        return (sum(v * v for v in values) / len(values)) ** 0.5


def print_metric(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<40} {shown:>14} {unit:<9} {note}")


def end_to_end(run: Run, inputs, setup: list[float]) -> dict:
    results = []
    deadline = time.perf_counter() + run.args.seconds
    k, last = 0, 0.0
    while run.keep_going(k, len(inputs), deadline, last):
        t0 = time.perf_counter()
        result = run.attempt(k % len(inputs), inputs[k % len(inputs)])
        if result is not None:
            results.append(result[0])
        k, last = k + 1, time.perf_counter() - t0

    def col(key):
        return [r[key] for r in results if key in r]

    primary = run.workload.primary
    values = {
        "setup_s": median(setup), "fit_s": median(col("fit_s")),
        "op_s": median(col("op_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cell_rmse": run.pooled_rmse(primary) or 0.0,
    }
    notes = {"setup_s": f"median of {len(setup)} set-ups",
             "fit_s": timing_note(col("fit_s")), "op_s": timing_note(col("op_s")),
             "peak_rss_mb": "process high-water",
             "cell_rmse": f"{primary}, pooled over {len(run.rmse[primary])} inputs"}
    print(f"end-to-end metrics ({len(results)} measured operations, "
          f"{run.attempted} attempted, {run.failed} failed):")
    for name, unit, _, bound, _ in metrics.END_TO_END:
        print_metric(name, values[name], unit, f"{notes[name]}; bound {bound:.0%}")
    print("  op_s samples: " + " ".join(f"{v:.4g}" for v in col("op_s")))
    print("per-operation figures (no regression bound):")
    named = {
        "vi_fit_s": col("vi_fit_s"), "predict_s": col("predict_s"),
        "gibbs_scans_per_s": col("gibbs_scans_per_s"),
    }
    for name, unit, applies in metrics.PER_OPERATION:
        if run.workload.name not in applies:
            print_metric(name, None, unit, "not exercised by this workload")
        elif name in named:
            print_metric(name, median(named[name]), unit, timing_note(named[name]))
        elif name == "error_rate":
            print_metric(name, run.failed / run.attempted, unit,
                         f"{run.failed} of {run.attempted} operations")
        else:
            fitter = name.split("_")[0]
            print_metric(name, run.pooled_rmse(fitter), unit,
                         f"pooled over {len(run.rmse[fitter])} inputs")
    if run.workload.name == "compare-small":
        vi_t, gibbs_rate = median(col("vi_fit_s")), median(col("gibbs_scans_per_s"))
        scans = run.wl.N_CHAINS * run.workload.gibbs_iter
        if vi_t and gibbs_rate:
            print(f"  note: MCMC/VI time ratio {scans / gibbs_rate / vi_t:.3f} "
                  "(criterion 6; derived, not a regression metric)")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _, _ in metrics.END_TO_END}


def per_layer(run: Run, inputs) -> dict:
    from spans import Tracer, median_per_op

    tracer = Tracer(run.wl.MODULES)
    deadline = time.perf_counter() + run.args.seconds
    traced, untraced, overhead = [], [], []
    k, last = 0, 0.0
    while run.keep_going(k, 1, deadline, last):
        t0 = time.perf_counter()
        inp = inputs[k % len(inputs)]
        plain = run.attempt(k % len(inputs), inp)
        tracer.op_id = k
        result = run.attempt(k % len(inputs), inp, tracer)
        if plain is not None:
            untraced.append(plain[0]["op_s"])
        if result is not None:
            traced.append((k, result[1], result[0]))
            if plain is not None:
                overhead.append(result[0]["op_s"] - plain[0]["op_s"])
        k, last = k + 1, time.perf_counter() - t0

    per_op = tracer.per_op()
    ids = [op_id for op_id, _, _ in traced]

    def total(name):
        return median_per_op(per_op, ids, name, 1)

    def calls(name):
        return median_per_op(per_op, ids, name, 0)

    def fact(key, reduce=median):
        return float(reduce([f.get(key, 0) for _, f, _ in traced]) if traced else 0.0)

    intervals = [x for _, f, _ in traced for x in f.get("sweep_intervals", [])]
    scan_s = [per_op[op_id].get("gibbs.gibbs_fit", [0, 0.0, 0.0])[1] / f["gibbs.scans"]
              for op_id, f, _ in traced if f.get("gibbs.scans")]
    values = {
        "model.load_csv_s": total("model.load_csv"),
        "freqfit.fit_additive_s": total("freqfit.fit_additive"),
        "freqfit.fit_interaction_s": total("freqfit.fit_interaction"),
        "freqfit.design_bytes": fact("freqfit.design_bytes"),
        "vi.sweeps": fact("vi.sweeps"),
        "vi.converged": fact("vi.converged", statistics.fmean),
        "vi.sweep_s": median(intervals),
        "statsmath.trunc_normal_moments.calls": calls("statsmath.trunc_normal_moments"),
        "statsmath.sample_trunc_normal_s": total("statsmath.sample_trunc_normal"),
        "statsmath.sample_trunc_normal.calls": calls("statsmath.sample_trunc_normal"),
        "gibbs.scans": fact("gibbs.scans"),
        "gibbs.scan_s": median(scan_s),
        "gibbs.post_process_s": total("gibbs.post_process"),
        "gibbs.post_process.calls": calls("gibbs.post_process"),
        "gibbs.self_s": median_per_op(per_op, ids, "gibbs.gibbs_fit", 2),
        "gibbs.draw_bytes": fact("gibbs.draw_bytes"),
        "gibbs.rhat_table_s": total("gibbs.rhat_table"),
        "gibbs.summarize_s": total("gibbs.summarize"),
        "gibbs.rhat_max": fact("gibbs.rhat_max", max),
        "analysis.predict_s": total("analysis.predict"),
        "analysis.predict.cells": fact("analysis.predict.cells"),
        "analysis.predict.rss_mb": fact("analysis.predict.rss_mb", max),
        "analysis.export_heatmap_s": total("analysis.export_heatmap"),
        "analysis.compare_s": total("analysis.compare"),
        "trace.overhead_s": median(overhead),
    }
    for block in ("mu", "g", "e", "lambda", "gamma", "delta", "tau"):
        values[f"vi.update_{block}_s"] = total(f"vi.update_{block}")
    values["vi.elbo_s"] = total("vi.elbo")
    values["vi.post_process_s"] = total("vi.post_process")

    tracer.write(WORK / run.workload.name / "spans.csv")
    print(f"per-layer metrics ({len(traced)} traced operations, "
          f"{run.attempted} attempted incl. their untraced twins, "
          f"{run.failed} failed; per operation, median over traced operations):")
    for name, unit, _, moves in metrics.PER_LAYER:
        print_metric(name, values[name], unit, f"-> {moves}")
    if intervals:
        print(f"  vi.sweep_s: {timing_note(intervals)}")
    if overhead:
        print(f"  tracing overhead: {median(overhead):.4g} s per operation, "
              f"{median(overhead) / median(untraced):.1%} of the untraced op_s "
              f"({median(untraced):.4g} s)")
    print("spans (calls / total s / self s per operation, median over traced operations):")
    for name in sorted({n for ops in per_op.values() for n in ops}):
        print(f"  {name:<40} {calls(name):>10.6g} {total(name):>12.6g} "
              f"{median_per_op(per_op, ids, name, 2):>12.6g}")
    for name in sorted(tracer.absent):
        print(f"  {name:<40} absent (0 calls)")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in metrics.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ammivi" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'ammivi'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    work = WORK / args.workload
    if not args.setup_probe:
        shutil.rmtree(work, ignore_errors=True)

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads as workloads_mod
    import ammivi
    if SRC.resolve() not in Path(ammivi.__file__).resolve().parents:
        print(f"error: ammivi was imported from {ammivi.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload, _ = workloads_mod.WORKLOADS[args.workload]
    if args.setup_probe:
        workloads_mod.make_inputs(workload, args.seed, work / "probe")
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    inputs = workloads_mod.make_inputs(workload, args.seed, work / "inputs")
    setup = [time.perf_counter() - started] + probe_setups(args)

    print(f"workload {workload.name}: {workload.why}")
    print(f"closed loop, 1 caller; seed {args.seed}; {args.seconds:g} s; "
          f"{len(inputs)} inputs; trace {args.trace}")
    run = Run(args, workloads_mod, started)
    try:
        workloads_mod.warm_up(workload, run.op, work / "warmup")
    except Exception:  # the timed operations will report the failure
        print("warm-up FAILED (the timed operations follow):")
        traceback.print_exc(file=sys.stdout)
    if args.trace:
        values = per_layer(run, inputs)
    else:
        values = end_to_end(run, inputs, setup)
    for count, example in run.defects.values():
        print(f"known defect in {count} of {run.attempted} operations "
              f"(not counted in error_rate): {example}")
    print("record " + json.dumps(run_record(args), sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

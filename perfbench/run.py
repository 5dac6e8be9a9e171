"""Benchmark runner for the CDS reproduction.

One workload per process::

    python3 perfbench/run.py --workload fig11_n100 --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Run it from the root of
a source checkout: the program is imported from ``src/``.

Other modes::

    python3 perfbench/run.py --report [--repeats 10] [--workload W ...]
        run each workload ``repeats`` times, each in a fresh process with
        its own seed, and print median, quartiles, min and max per metric
    python3 perfbench/run.py --manifest
        rewrite BENCHMARK.json from perfbench/spec.py
    python3 perfbench/run.py --describe
        print workload parameters and the layer -> metric -> workload map
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads: the load comes from this one
# process, and the program runs on its main thread only
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: scratch space inside the checkout (temp checkpoints, journals, traces)
WORK_ROOT = ROOT / ".perfbench_work"
IMPORT_REPEATS = 5


def measure_import(modules: list[str]) -> list[float]:
    """Import the program's ``modules`` afresh several times.

    numpy is loaded beforehand: it is not the program's code, and loading
    it once only would make the first sample an outlier.
    """
    import numpy  # noqa: F401

    samples = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        for name in modules:
            importlib.import_module(name)
        samples.append(time.perf_counter() - t0)
    return samples


def percentile_ms(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q) * 1e3)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import workloads

    import_samples = measure_import(workloads.IMPORTS[name])
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        ctx = workloads.Ctx(seed=seed, seconds=seconds, trace=trace,
                            work_dir=work_dir)
        out = workloads.RUNNERS[name](ctx)
    finally:
        workloads.cleanup(work_dir)
    import_s = statistics.median(import_samples)
    checks_ok = out.checks - out.failed
    if trace:
        values = dict(out.per_layer)
        values["setup.import_s"] = import_s
        tracer = out.trace_doc.pop("tracer")
        tracer.write(
            WORK_ROOT / f"trace-{name}-seed{seed}.json",
            {**out.trace_doc, "per_layer": values},
        )
    else:
        values = {
            "setup_s": import_s + (
                statistics.median(out.setup_samples) if out.setup_samples
                else 0.0
            ),
            "updates_per_s": out.updates_per_s,
            "update_p50_ms": percentile_ms(out.update_samples_s, 50),
            "update_p75_ms": percentile_ms(out.update_samples_s, 75),
            "peak_rss_mb": out.peak_rss_mb,
            "ok_frac": checks_ok / out.checks,
        }
    table = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {row[0]: {"value": values[row[0]], "unit": row[1]} for row in table}
    for key, m in metrics.items():
        print(f"{name:15s} {key:36s} {m['value']:14.6g} {m['unit']}")
    print(
        f"{name:15s} samples: {len(out.update_samples_s)} update, "
        f"{len(out.setup_samples)} set-up, {IMPORT_REPEATS} import; "
        f"{out.checks} checks, {out.failed} failed"
        + (f"; {out.trace_doc['samples']}" if "samples" in out.trace_doc else "")
    )
    return {
        "correct": out.failed == 0 and out.checks > 0,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }


def report(names: list[str], repeats: int, seed0: int, seconds: float,
           trace: bool) -> None:
    """Repeat each workload in fresh processes; print the spread."""
    for name in names:
        runs = []
        for i in range(repeats):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed0 + i), "--seconds", str(seconds),
                 "--trace", str(int(trace))],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{name} seed {seed0 + i} failed")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"\n{name}: {repeats} runs, seeds {seed0}..{seed0 + repeats - 1}, "
              f"correct {sum(r['correct'] for r in runs)}/{repeats}")
        print(f"  {'metric':36s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'iqr/med':>8s} {'min':>11s} {'max':>11s}")
        for key in runs[0]["metrics"]:
            vals = [r["metrics"][key]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (
                vals[0], vals[0], vals[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {key:36s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:8.3f} {min(vals):11.5g} {max(vals):11.5g}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--manifest", action="store_true")
    ap.add_argument("--describe", action="store_true")
    args = ap.parse_args()

    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.manifest(), indent=2) + "\n"
        )
        return
    if args.describe:
        print(json.dumps({
            "workloads": spec.WORKLOADS,
            "end_to_end": [
                {"name": n, "unit": u, "definition": d}
                for n, u, _, _, d in spec.END_TO_END
            ],
            "layer_map": [
                {"metric": n, "measures": what, "moves": moves, "on": list(on)}
                for n, _, _, what, moves, on in spec.PER_LAYER
            ],
        }, indent=1))
        return
    names = args.workload or list(spec.WORKLOADS)
    if args.report:
        report(names, args.repeats, args.seed, args.seconds, bool(args.trace))
        return
    if len(names) != 1:
        ap.error("give exactly one --workload (or --report)")
    result = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

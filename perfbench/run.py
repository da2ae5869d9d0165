"""Benchmark of enspost: simulate -> fit -> predict -> verify, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rolling|pipeline \
        --seed 12 --seconds 60 --trace 0|1

``--trace 0`` makes the workload's passes through its four stages
(workloads.py says why ``rolling`` makes three and ``pipeline`` one) and
reports the sum of the four stage times, each unit of work counted at its
fastest pass; the validation CRPS as a ratio to the CRPS of the true
predictive distribution; the peak resident memory; and the set-up time: the
median over several fresh processes of the time from process start until
the first stage could begin (imports, temp dir, workload config).  The time
of each stage and of each pass is printed on standard error; the stages are
not metrics of their own because some take well under a second and the fit
stage's work depends on the seed, so their spread exceeds any useful bound.
``--seconds`` does not change the work done: a run takes about 35-75 s on a
2-core Xeon.

``--trace 1`` makes the untraced passes and then two traced passes with
wrappers around the program's public functions (tracing.py), on the smaller
workload ``Workload.traced_subset`` gives.  It reports the per-layer
metrics of the first traced pass, the tracing overhead (mean traced pass
total minus mean untraced pass total) and ``trace.count_mismatches``, the
number of deterministic counts that differ between the two traced passes.
The spans of the first traced pass go to
``.perfbench/trace-<workload>-seed<seed>.npz``.

The metric names and units are those of ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a readable copy and the machine context go to standard
error.  Temporary files live under ``.perfbench/`` in the repository root.
The exit code is 2, with no result, when the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("rolling", "pipeline"))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def setup(workload: str, seed: int):
    """Everything before the first stage: imports, temp dir, workload config."""
    sys.path.insert(0, str(SRC))
    import enspost
    import workloads

    if not Path(enspost.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported enspost from {enspost.__file__}, not from {SRC}")
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    w = workloads.WORKLOADS[workload]
    w.run_config(seed)
    return workloads, w, workdir


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process until it has set up, per probe."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def context(workload=None) -> dict:
    """Machine and library context that every ratio is based on."""
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "cache_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }
    if workload is not None:
        out["workload"] = workload.sizes()
    return out


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _no_span(name):
    return contextlib.nullcontext()


def run_untraced(workloads, w, workdir, args) -> tuple[dict, list]:
    it = workloads.run_iteration(w, args.seed, _no_span, workdir, w.passes)
    # after the pass, so that no stage starts right after an idle wait
    setup_samples = measure_setup(args)
    values = {"setup_s": statistics.median(setup_samples)}
    values["total_s"] = sum(it.stage_seconds.values())
    values["valid_crps_ratio"] = it.crps_ratio()
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"bench: set-up samples {[round(v, 4) for v in setup_samples]}; stage seconds "
          f"{ {s: round(v, 4) for s, v in it.stage_seconds.items()} }; pass totals "
          f"{[round(v, 3) for v in it.pass_seconds()]}", file=sys.stderr)
    return values, [it]


def run_traced(workloads, w, workdir, args, names) -> tuple[dict, list]:
    import tracing

    w = w.traced_subset()
    untraced = workloads.run_iteration(w, args.seed, _no_span, workdir, w.passes)
    tracers, traced = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(workloads.run_iteration(w, args.seed, tracer.span, workdir, 1))
        tracers.append(tracer)
    tracer = tracers[0]
    spans_path = SCRATCH / f"trace-{w.name}-seed{args.seed}.npz"
    tracer.save(spans_path)
    print(f"bench: wrote {len(tracer.span_label)} spans to {spans_path}", file=sys.stderr)

    differ = tracing.count_mismatches(tracers[0].exact_counts(), tracers[1].exact_counts())
    for name in differ:
        print(f"bench: count differs between the two traced passes: {name}", file=sys.stderr)

    values = {
        "models.warnings": tracer.warnings,
        "trace.spans": len(tracer.span_label),
        "trace.overhead_s": (statistics.mean(t.pass_seconds()[0] for t in traced)
                             - statistics.mean(untraced.pass_seconds())),
        "trace.count_mismatches": len(differ),
    }
    for name in names:
        if name in values:
            continue
        parts = name.split(".")
        if parts[0] == "models" and parts[-1] == "valid_crps":
            kind_crps = [v for k, v in traced[0].cell_crps.items() if k[0] == parts[1]]
            values[name] = statistics.mean(kind_crps) if kind_crps else 0.0
        else:
            values[name] = tracer.metric(name)
    return values, [untraced, *traced]


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "enspost" / "__init__.py").is_file():
        print(f"bench: no enspost source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, w, workdir = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        print(f"bench: set-up of this process took {time.perf_counter() - start:.3f} s",
              file=sys.stderr)
        print("context: " + json.dumps(context(w)), file=sys.stderr)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            values, iterations = run_traced(workloads, w, workdir, args,
                                            [m["name"] for m in wanted])
        else:
            values, iterations = run_untraced(workloads, w, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for it in iterations for p in it.problems]
    crps_per_pass = {tuple(sorted(it.cell_crps.items())) for it in iterations}
    if len(crps_per_pass) > 1:
        problems.append("validation CRPS differs between passes of one seed")
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / max(attempted, 1):.4f})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

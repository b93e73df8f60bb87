"""unionsub benchmark: seeded workloads, end-to-end metrics, traced per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-union --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run sets up its inputs several times (``setup_s`` is the median), then
repeats whole passes of the workload, one call after another, until
``--seconds`` have passed, and finally checks a seeded sample of the outputs
against independent oracles.  Untraced times are rescaled to reference
seconds by a speed kernel timed around and between the calls (speed.py), so
that the shared host's drift cancels out.  With ``--trace 1`` it sets up
once with every module boundary wrapped in spans, then runs untraced and
traced passes in turn, and reports per-layer metrics and the tracing
overhead instead.  The last line of standard output is one JSON object; the
lines before it give each metric with its sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("corpus-union", "corpus-rivals", "large-sparse", "train-cycle")
# set up at least this many times and for at least this long; report the median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
# kernel runs (speed.py) at either end of a timed pass or set-up
BOUNDARY_RUNS = 4
CHILD_TIMEOUT_S = 600
# one process, one BLAS thread: the matrices are tiny and the load is serial
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS reports, else the configured limit."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            sizes[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def one_pass(workload, inputs, ops):
    """Seconds, outputs and normalization fallbacks of one pass."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        outputs = workload.run_pass(inputs, ops)
        elapsed = time.perf_counter() - t0
    return elapsed, outputs, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def timed_phase(workload, inputs, seconds, ops, probe):
    """Whole passes until ``seconds`` have passed and enough tables were made.

    ``ops`` and ``probe`` run the speed kernel (``probe.clock``) in between
    the calls, and it runs ``BOUNDARY_RUNS`` times between passes.  Returns
    (raw start and end stamp of each pass, outputs of the first pass).
    """
    clock = ops.clock = probe.clock
    passes, first, done = [], None, len(probe.samples)
    start = time.perf_counter()
    while True:
        clock.force(BOUNDARY_RUNS)
        t0 = time.perf_counter()
        _, outputs, _ = one_pass(workload, inputs, ops)
        passes.append((t0, time.perf_counter()))
        if first is None:
            first = outputs
        if (time.perf_counter() - start >= seconds
                and len(probe.samples) - done >= workload.min_tables):
            clock.force(BOUNDARY_RUNS)
            ops.clock = None
            return passes, first


def traced_phase(workload, inputs, seconds, ops, tracer):
    """Untraced and traced passes in turn until ``seconds`` have passed.

    The order untraced, traced, traced, untraced, ... keeps the machine's
    drift and the first pass's warm-up out of the overhead.  Returns
    (untraced pass seconds, traced pass seconds, fallbacks per traced pass,
    outputs of the first pass).
    """
    plain, traced, fallbacks, first = [], [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if (len(plain) + len(traced)) % 4 in (1, 2):
            ops.tracer = tracer
            with tracer:
                elapsed, _, fallback = one_pass(workload, inputs, ops)
            ops.tracer = None
            traced.append(elapsed)
            fallbacks.append(fallback)
        else:
            elapsed, outputs, _ = one_pass(workload, inputs, ops)
            plain.append(elapsed)
            if first is None:
                first = outputs
    return plain, traced, fallbacks, first


def end_to_end_metrics(setup_times, passes, table_samples, rss_mb):
    """name -> (value, unit, sample count), from times in reference seconds
    and (seconds, edges) per table.
    """
    latencies = sorted(s for s, _ in table_samples)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(passes), "s", len(passes)),
        "edges_per_s": (sum(e for _, e in table_samples) / sum(passes), "1/s",
                        len(table_samples)),
        "table_ms_p50": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "table_ms_p90": (p90 * 1e3, "ms", len(latencies)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def measure_traced(workload, name, seed, seconds, ops):
    """Set up once and run traced and untraced passes.

    Returns (inputs, outputs of the first pass, metrics, sample counts).
    """
    from tracer import Tracer, per_layer_metrics

    work = OUT_DIR / f"{name}-seed{seed}"
    tracer = Tracer()
    try:
        with tracer:
            inputs = workload.setup(seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_end = len(tracer.spans)
    plain, traced, fallbacks, outputs = traced_phase(
        workload, inputs, seconds, ops, tracer)
    tracer.write_jsonl(OUT_DIR / f"trace-{name}-seed{seed}.jsonl")
    metrics = per_layer_metrics(tracer.spans, setup_end, traced,
                                statistics.median(plain), fallbacks)
    return inputs, outputs, metrics, {k: len(traced) for k in metrics}


def measure(workload, name, seed, seconds, ops):
    """Set up several times, then run timed passes; all times in reference
    seconds (speed.py).

    Returns (inputs, outputs of the first pass, metrics, sample counts).
    """
    from speed import ReferenceClock
    from tracer import TableProbe

    work = OUT_DIR / f"{name}-seed{seed}"
    setups = []
    with TableProbe(ReferenceClock()) as probe:
        try:
            while (len(setups) < SETUP_REPEATS
                   or sum(b - a for a, b in setups) < SETUP_MIN_S):
                probe.clock.force(BOUNDARY_RUNS)
                t0 = time.perf_counter()
                inputs = workload.setup(seed, work)
                setups.append((t0, time.perf_counter()))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        passes, outputs = timed_phase(workload, inputs, seconds, ops, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tables = [(a, b, e) for a, b, e in probe.samples if a >= passes[0][0]]
    if not tables:
        raise RuntimeError(f"no coefficient table completed: {ops.errors[:3]}")
    ref = probe.clock.mapper()

    def span(a, b):
        return ref(b) - ref(a)

    e2e = end_to_end_metrics([span(a, b) for a, b in setups],
                             [span(a, b) for a, b in passes],
                             [(span(a, b), e) for a, b, e in tables], rss_mb)
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    samples = {k: n for k, (_, _, n) in e2e.items()}
    kernel_s = probe.clock.kernel_seconds()
    samples["kernel_ms"] = (statistics.median(kernel_s) * 1e3, len(kernel_s))
    return inputs, outputs, metrics, samples


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS, Ops

    ops = Ops()
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        inputs, outputs, metrics, samples = (measure_traced if trace else measure)(
            WORKLOADS[name], name, seed, seconds, ops)
    except RuntimeError as exc:
        sys.stderr.write(f"{name}: {exc}\n")
        return 1
    # imported only now so that their memory stays out of peak_rss_mb
    import oracles

    oracles.CHECKS[name](inputs, outputs, random.Random(f"{name}:{seed}"), ops)

    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key in sorted(metrics) if trace else metrics:
        m = metrics[key]
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']:<6} n={samples[key]}")
    print(f"  {'failed_ops':<40} {ops.failed:>10}/{ops.attempted} ops "
          "(tables, refinements, cycle counts, trainings, oracle checks)")
    if not trace:
        kernel_ms, runs = samples.pop("kernel_ms")
        print(f"  {'speed kernel (ms, median; not a metric)':<40} {kernel_ms:>16.6g} "
              f"{'ms':<6} n={runs}")
    for message in ops.errors[:10]:
        print(f"  failure: {message}")
    if trace:
        layers = {k[6:-7]: m["value"] for k, m in metrics.items()
                  if k.startswith("layer.") and k.endswith(".self_s")}
        top = max(layers, key=layers.get)
        share = layers[top] / sum(layers.values())
        print(f"  dominant layer: {top} ({share:.0%} of traced pass self time)")
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "metrics": {k: {**m, "samples": samples[k]} for k, m in metrics.items()},
        "attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors[:100],
    }
    (OUT_DIR / f"report-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="ascii")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"{name} failed with exit code {proc.returncode}\n")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "unionsub" / "__init__.py").is_file():
        sys.stderr.write(f"no unionsub sources under {src}; run from a checkout\n")
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

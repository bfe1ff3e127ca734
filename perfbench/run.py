"""Serial benchmark of rcdlab: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload {golden,geodesic,random_ot_forms} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; rcdlab is imported from the checkout's
``src``. With ``--trace 0`` the run sets up the workload (timed), then repeats
its pass until ``--seconds`` have gone by (at least once) and reports the
end-to-end metrics. With ``--trace 1`` it sets up with the tracer installed,
repeats untraced passes for ``--seconds``, runs one traced pass and reports
the per-layer metrics. End-to-end times are rescaled to a reference machine
speed (see clock.py). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance and the raw and rescaled times.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# set-up is timed in this process and in SETUP_SAMPLES - 1 fresh interpreters;
# setup_s is the median
SETUP_SAMPLES = 3
# the keys of workloads.WORKLOADS, which cannot be imported before set-up is timed
WORKLOAD_NAMES = ("golden", "geodesic", "random_ot_forms")


def load_workloads():
    """Import rcdlab from this checkout's src, never from an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rcdlab

    found = os.path.dirname(os.path.dirname(os.path.abspath(rcdlab.__file__)))
    if found != SRC:
        raise RuntimeError(f"rcdlab imported from {found}, not from {SRC}")
    import workloads

    return workloads


def set_up(workload, seed, scratch, tracer=None):
    """Import the package, build the workload and run its warm operation.
    Returns (workloads module, pass operations, seconds taken)."""
    start = time.perf_counter()
    wl = load_workloads()
    if tracer is None:
        ops = wl.WORKLOADS[workload](seed, ROOT, scratch)
    else:
        tracer.install()
        with tracer.root("setup"):
            ops = wl.WORKLOADS[workload](seed, ROOT, scratch)
        tracer.uninstall()
    return wl, ops, time.perf_counter() - start


def setup_sample(workload, seed):
    """Set-up time measured in a fresh interpreter (cold imports, empty caches)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed ({proc.returncode}):\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_passes(wl, ops, tally, seconds, timer):
    """Repeat the pass until `seconds` have gone by (at least once); returns
    each pass's (start, end) in the clock's program time."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        begin = timer.now()
        wl.run_ops(ops, tally)
        passes.append((begin, timer.now()))
    return passes


def blas_info():
    """Loaded OpenBLAS builds with their configuration and current thread count."""
    out = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", "", "_64"):
            for prefix in ("scipy_openblas_", "openblas_"):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance():
    import numpy
    import scipy

    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RCDLAB_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "thread_env": {k: os.environ[k] for k in env if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, scratch):
    if args.setup_only:
        _, _, setup_s = set_up(args.workload, args.seed, scratch)
        import clock

        print(json.dumps({"setup_s": clock.rescale(setup_s, clock.calibrate()), "raw_setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    wl, ops, setup_s = set_up(args.workload, args.seed, scratch, tracer)
    import clock  # after set-up, so that set-up pays for importing numpy and scipy

    timer = clock.Clock()
    tally = wl.Tally()
    timer.start()
    try:
        passes = timed_passes(wl, ops, tally, args.seconds, timer)
    finally:
        timer.stop()
    wall = [timer.scaled(a, b) for a, b in passes]
    info = {"workload": args.workload, "seed": args.seed, "passes_s": wall,
            "passes_raw_s": [b - a for a, b in passes]}

    if tracer is None:
        setups = [clock.rescale(setup_s, timer.samples[0][1])]
        setups += [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "wall_s": metric(statistics.median(wall), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        info["setups_s"] = setups
        info["raw_setup_s"] = setup_s
    else:
        # the traced pass runs without the sampling handler, so that no span
        # contains kernel time; it is rescaled by the samples on either side
        tracer.install()
        begin, cpu0 = timer.now(), time.process_time()
        wl.run_ops(ops, tally, tracer)
        end, cpu_s = timer.now(), time.process_time() - cpu0
        tracer.uninstall()
        timer.sample()
        missing = [name for name in wl.PREDICTED[args.workload] if tracer.calls(name) == 0]
        if missing:
            raise RuntimeError(f"predicted spans recorded no calls on {args.workload}: {', '.join(missing)}")
        values = tracer.metrics()
        values["trace.overhead_s"] = timer.scaled(begin, end) - statistics.median(wall)
        values["process.cpu_s"] = cpu_s
        units = {"calls": "count", "s": "s", "self_s": "s", "retries": "count", "iterations": "count",
                 "sweeps": "count", "useful_ratio": "ratio", "overhead_s": "s", "cpu_s": "s"}
        metrics = {name: metric(v, units[name.rsplit(".", 1)[1]]) for name, v in values.items()}
        info["traced_pass_raw_s"] = end - begin
    info["calibrations_s"] = [cal for _, cal in timer.samples]
    info["provenance"] = provenance()
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({**info, "spans": tracer.spans}, fh)

    for err in tally.errors:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    scratch = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

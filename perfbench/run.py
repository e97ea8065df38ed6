"""nvbath benchmark: three in-process workloads, checked, end to end and
per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): lattice, register, decay. Each is a closed
loop with one client: the next iteration starts when the previous one has
returned, and every iteration draws fresh inputs from the seed, so no two
iterations of a run share inputs. Seed 20261017 is held out: use it only to
confirm a claim made on other seeds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s      median over fresh interpreters of the wall time from starting
               the interpreter through `import nvbath.cli` and the first
               iteration (on inputs the timed loop does not reuse);
  iter_p50_s   median wall time of an iteration;
  iter_tail_s  the highest percentile of iteration time with at least ten
               iterations above it (percentile and count are printed);
  cpu_p50_s    median process CPU time (all threads) of an iteration;
  peak_rss_mb  peak RSS of the process that runs only this workload.
--trace 1 prints the per-layer metrics from a separate traced run (spans
around nvbath's public functions, see tracing.py) and its fail_ratio.

Every output is checked against the benchmark's own references; a step that
raises, exits non-zero or fails its check counts in "failed". Child
processes use as many BLAS threads as CPUs. Records of each run (metrics,
host facts, spans) are left in .perfbench/ under the working directory.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 7            # fresh interpreters measured for setup_s
SETUP_STREAM = 2          # setup inputs come from (seed, 2, k)
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def host_facts():
    import numpy
    from nvbath import _kernels
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": nproc,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernels_backend": _kernels.BACKEND}


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, env):
    """Run worker.py; returns (monotonic start, its result)."""
    start = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """(value, percentile): the largest sample with at least TAIL_BEYOND
    samples above it; the maximum when the run is too short for that."""
    xs = sorted(values)
    i = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(work, args, base, env):
    import numpy as np
    dirs = []
    for k in range(SETUP_RUNS):
        d = os.path.join(base, f"setup-{k}")
        os.makedirs(d)
        inp = work.make(np.random.default_rng([args.seed, SETUP_STREAM, k]))
        inp.update(work.setup_pins)
        with open(os.path.join(d, "input.json"), "w") as fh:
            json.dump(inp, fh)
        work.prepare(inp, d)
        dirs.append(d)
    setups, results = [], []
    for d in dirs[1:]:
        start, res = spawn(["setup", work.name, d], env)
        setups.append(res["setup_done"] - start)
        results.append(res)
    start, timed = spawn(["timed", work.name, dirs[0], str(args.seed),
                          str(args.seconds)], env)
    setups.append(timed["setup_done"] - start)
    results.append(timed)
    tail_s, pct = tail(timed["iter_s"])
    metrics = {"setup_s": statistics.median(setups),
               "iter_p50_s": statistics.median(timed["iter_s"]),
               "iter_tail_s": tail_s,
               "cpu_p50_s": statistics.median(timed["cpu_s"]),
               "peak_rss_mb": timed["peak_rss_mb"]}
    extra = {"setup_samples_s": setups, "iterations": len(timed["iter_s"]),
             "iter_tail_percentile": pct, "iter_s": timed["iter_s"],
             "cpu_s": timed["cpu_s"]}
    return metrics, extra, results


def per_layer(work, args, base, env):
    spans = os.path.join(os.path.dirname(base),
                         f"spans-{work.name}-{args.seed}.jsonl")
    _, res = spawn(["traced", work.name, base, str(args.seed),
                    str(args.seconds), spans], env)
    metrics = res["metrics"]
    metrics["fail_ratio"] = res["failed"] / max(res["attempted"], 1)
    return metrics, {"spans": spans, "iterations": res["iterations"]}, [res]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nvbath", "cli.py")):
        print("error: src/nvbath not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                      MKL_NUM_THREADS=threads)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    sys.path[:0] = [src, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]

    records = os.path.join(root, ".perfbench")
    base = os.path.join(records, f"{work.name}-{args.seed}-{os.getpid()}")
    os.makedirs(base)
    try:
        if args.trace:
            metrics, extra, results = per_layer(work, args, base, env)
            wanted = spec["per_layer"]
        else:
            metrics, extra, results = end_to_end(work, args, base, env)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    messages = [m for r in results for m in r["messages"]]
    host = host_facts()
    record = {"workload": work.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "attempted": attempted, "failed": failed,
              "failures": messages[:10], "metrics": metrics, **extra}
    with open(os.path.join(records, f"run-{work.name}-{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("host: " + json.dumps(host))
    if not args.trace:
        print(f"iter_tail_s is p{extra['iter_tail_percentile']:.1f} of "
              f"{extra['iterations']} iterations; setup samples "
              + ", ".join(f"{s:.3f}" for s in extra["setup_samples_s"]))
    else:
        print(f"traced iter_p50_s {metrics['trace.iter_p50_s']:.4f} s over "
              f"{extra['iterations']} iterations; tracing overhead is this "
              "minus iter_p50_s of an untraced run with the same seed")
    for m in messages[:10]:
        print(f"check failed: {m}")
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                   "unit": m["unit"]} for m in wanted}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

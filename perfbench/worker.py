"""One benchmark process; run.py starts it and reads its last stdout line.

  worker.py setup  WORKLOAD DIR
      Run the first iteration on the inputs in DIR/input.json, then report
      the CLOCK_MONOTONIC time at which it returned (the parent took its
      own reading just before starting this interpreter).
  worker.py timed  WORKLOAD DIR SEED SECONDS
      As setup, then a closed loop of fresh seeded iterations for SECONDS
      of wall time: wall and CPU time per iteration, and peak RSS.
  worker.py traced WORKLOAD DIR SEED SECONDS SPANS
      The timed loop's iterations with spans around nvbath's public
      functions, then a separate allocation pass; per-layer metrics, and
      the spans written to SPANS.

Every iteration's outputs are checked after its timer stops.
"""

import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import tracing
import workloads

# counts (.calls, sizes, fit iterations) are averaged over this many
# traced iterations, so that they depend on the seed and not on speed
COUNTED_ITERS = 3
PEAK_ITERS = 2
TIMED_STREAM = 1


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Checked:
    """Step totals and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, verdict):
        for step, msg in verdict.items():
            self.attempted += 1
            if msg is not None:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{step}: {msg}")

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages}


def iterate(work, inp, d, checked):
    """Prepare, run, check; returns the run's wall and CPU seconds."""
    work.prepare(inp, d)
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    out = work.run(inp, d)
    wall = time.perf_counter() - start_wall
    cpu = time.process_time() - start_cpu
    checked.add(work.check(inp, d, out))
    return wall, cpu


def fresh_inputs(work, seed, base):
    """Inputs of timed iteration k come from the stream (seed, 1, k)."""
    k = 0
    while True:
        d = os.path.join(base, f"iter-{k}")
        os.makedirs(d)
        yield k, work.make(np.random.default_rng([seed, TIMED_STREAM, k])), d
        shutil.rmtree(d)
        k += 1


def first_iteration(work, d, checked):
    with open(os.path.join(d, "input.json")) as fh:
        inp = json.load(fh)
    out = work.run(inp, d)
    done = monotonic()
    checked.add(work.check(inp, d, out))
    return done


def timed(work, d, seed, seconds, checked):
    setup_done = first_iteration(work, d, checked)
    walls, cpus = [], []
    stop = time.perf_counter() + seconds
    for _, inp, it_dir in fresh_inputs(work, seed, d):
        wall, cpu = iterate(work, inp, it_dir, checked)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() >= stop:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_done": setup_done, "iter_s": walls, "cpu_s": cpus,
            "peak_rss_mb": rss}


def traced(work, d, seed, seconds, checked, spans_path):
    """The timed loop's input stream with every iteration traced, then
    PEAK_ITERS more iterations for allocation peaks."""
    tracer = tracing.Tracer()
    walls = []
    stop = time.perf_counter() + seconds
    inputs = fresh_inputs(work, seed, d)
    for k, inp, it_dir in inputs:
        work.prepare(inp, it_dir)
        tracer.begin(k)
        out = work.run(inp, it_dir)
        walls.append(tracer.end())
        checked.add(work.check(inp, it_dir, out))
        if time.perf_counter() >= stop and len(walls) >= COUNTED_ITERS:
            break
    peaks = tracing.PeakMemory()
    for n, (_, inp, it_dir) in enumerate(inputs):
        if n == PEAK_ITERS:
            break
        work.prepare(inp, it_dir)
        peaks.patches.install()
        out = work.run(inp, it_dir)
        peaks.patches.uninstall()
        checked.add(work.check(inp, it_dir, out))
    inputs.close()

    with open(spans_path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    metrics = {}
    for per in tracer.self_times().values():
        for name, s in per.items():
            key = name + ".self_s"
            metrics[key] = metrics.get(key, 0.0) + s / len(walls)
    counts = tracer.call_counts()
    for k in range(COUNTED_ITERS):
        for name, v in counts[k].items():
            metrics[name] = metrics.get(name, 0) + v / COUNTED_ITERS
    for name, mb in peaks.peaks.items():
        metrics[name + ".peak_alloc_mb"] = mb
    metrics["trace.iter_p50_s"] = float(np.median(walls))
    metrics["trace.iter_mean_s"] = float(np.mean(walls))
    return {"metrics": metrics, "iterations": len(walls)}


def main(argv):
    mode, name, d = argv[:3]
    work = workloads.WORKLOADS[name]
    checked = Checked()
    if mode == "setup":
        result = {"setup_done": first_iteration(work, d, checked)}
    elif mode == "timed":
        result = timed(work, d, int(argv[3]), float(argv[4]), checked)
    else:
        result = traced(work, d, int(argv[3]), float(argv[4]), checked,
                        argv[5])
    result.update(checked.as_dict())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Repeat run.py over seeds and summarize: median, quartiles and spread of
every metric per workload, host facts, traced stage tables and the tracing
overhead. Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --traced-seeds 1-3 \
        --out perfbench/BENCH_1.json

spread is (q3 - q1) / median with statistics.quantiles(values, n=4).
The tracing overhead of a workload is the median traced iter_p50_s minus
the median untraced iter_p50_s over the same seeds, so --traced-seeds must
be among --seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 + proc.stderr[-2000:])
    with open(os.path.join(".perfbench", f"run-{workload}-{seed}"
                                         f"-trace{trace}.json")) as fh:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--traced-seeds", type=seeds, default=[])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
           "traced_seeds": args.traced_seeds, "workloads": {}}
    for name in names:
        e2e, info, failed = {}, [], 0
        for seed in args.seeds:
            res, rec = run(name, seed, spec["run_seconds"], 0)
            out["host"] = rec["host"]
            failed += res["failed"]
            for m, v in res["metrics"].items():
                e2e.setdefault(m, []).append(v["value"])
            info.append({"seed": seed, "iterations": rec["iterations"],
                         "iter_tail_percentile": rec["iter_tail_percentile"],
                         "attempted": res["attempted"],
                         "failed": res["failed"]})
            print(name, seed, {m: round(v["value"], 4)
                               for m, v in res["metrics"].items()},
                  flush=True)
        table = {m: dict(summary(v), bound=bounds[m]) for m, v in e2e.items()}
        entry = {"end_to_end": table, "runs": info, "failed": failed}
        layers = {}
        for seed in args.traced_seeds:
            res, rec = run(name, seed, spec["run_seconds"], 1)
            for m, v in rec["metrics"].items():
                layers.setdefault(m, []).append(v)
        if layers:
            per = {m: statistics.median(v) for m, v in sorted(layers.items())}
            self_sum = sum(v for m, v in per.items() if m.endswith(".self_s"))
            entry["per_layer_median"] = per
            entry["self_time_sum_s"] = self_sum
            untraced = [v for s, v in zip(args.seeds, e2e["iter_p50_s"])
                        if s in args.traced_seeds]
            entry["tracing_overhead_s"] = (
                per["trace.iter_p50_s"] - statistics.median(untraced))
        out["workloads"][name] = entry
        for m, s in table.items():
            print(f"{name:9s} {m:12s} median {s['median']:.4f} spread "
                  f"{s['spread']:.3f} (bound {s['bound']})", flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

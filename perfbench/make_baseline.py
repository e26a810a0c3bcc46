"""Measure the baseline: ten seeds per workload, then one traced run each.

    python3 perfbench/make_baseline.py

Writes perfbench/baseline.json: per workload and end-to-end metric the
median, the quartiles and the spread (interquartile distance over the
median) of the seeds' values; the traced per-layer breakdown of the first
seed; the digests of every seed; and the host.  Runs are sequential, one
run.py process at a time.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEEDS = range(1, 11)
SECONDS = 20


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not line["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
    suffix = "_trace" if trace else ""
    with open(os.path.join(run.OUT, f"result_{workload}_seed{seed}{suffix}.json"),
              encoding="utf-8") as fh:
        return line, json.load(fh)


def main():
    seeds = list(SEEDS)
    out = {"seeds": seeds, "seconds": SECONDS, "workloads": {}, "digests": {}}
    for workload in run.WORKLOADS:
        values = {name: [] for name, _ in run.END_TO_END}
        extras = {}
        for seed in seeds:
            line, result = _run(workload, seed, SECONDS, 0)
            out["host"] = result["host"]
            out["digests"][f"{workload}:{seed}"] = result["digest"]
            for name, metric in line["metrics"].items():
                values[name].append(metric["value"])
            for name, (value, unit, _) in result["extras"].items():
                extras.setdefault(name, {"unit": unit, "values": []})["values"].append(value)
            print(workload, seed, {k: round(v["value"], 4) for k, v in line["metrics"].items()},
                  flush=True)
        summary = {}
        for (name, unit), vals in zip(run.END_TO_END, values.values()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"unit": unit, "median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(vals), "values": vals}
            print(f"  {workload} {name}: median {summary[name]['median']:.5g} "
                  f"spread {summary[name]['spread']:.3f}", flush=True)
        _, traced = _run(workload, seeds[0], SECONDS, 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "extras": {name: {"unit": e["unit"], "median": statistics.median(e["values"])}
                       for name, e in extras.items()},
            "traced_seed": seeds[0],
            "trace_overhead_s": traced["trace_overhead_s"],
            "layers": traced["layers"],
            "probes": [{k: p[k] for k in ("label", "failed", "message")}
                       for p in result["probes"]],
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

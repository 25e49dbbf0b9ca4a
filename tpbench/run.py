#!/usr/bin/env python3
"""torusplace end-to-end benchmark.

    python3 tpbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Builds the CLI and the benchmark
native tool into .bench_build, runs one workload (serve_hot, serve_cold,
cli_offline, or `all` for each in turn), checks every output, and prints the
run-environment record and then, as the last line, one JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Scratch files, spans and full records go to .bench_out.  See README.md.
"""

import argparse
import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


def run_one(root, exe, native, workload, args, spec):
    ctx = workloads.Ctx(root, exe, native, args.seed, args.seconds,
                        bool(args.trace))
    env = harness.env_record(root, exe, args.seed, workload, args.trace)
    env["probes"] = workloads.run_probes(ctx)
    cpu0 = os.times()
    ticks0 = harness.cpu_ticks()
    res = workloads.RUNNERS[workload](ctx)
    cpu1 = os.times()
    env["loadavg_1m_after"] = os.getloadavg()[0]
    env["cpu_steal_share"] = harness.steal_share(ticks0, harness.cpu_ticks())
    env["generator_cpu_s"] = {
        "harness": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "client": sum(rep["cpu_s"] for rep in res.record.get("client", [])
                      + [res.record[k] for k in ("client_untraced",
                                                 "client_traced")
                         if k in res.record]),
    }
    env["known_defect_responses"] = {
        "reference": len(res.record.get("known_defect_keys", [])),
        "ledger": res.record.get("ledger_known_defects", 0)}
    for key in ("passes_repeated", "windows_kept", "iterations_kept"):
        if key in res.record:
            env[key] = res.record[key]
    line = metrics.result_line(spec, args.trace, res.attempted, res.failed,
                               res.values)
    record = {"env": env, "result": line, "detail": res.record}
    if args.trace:
        for part in ("client", "ledger", "py"):
            path = ctx.path("spans-%s-%s.csv" % (workload, part))
            if os.path.exists(path):
                record.setdefault("self_time_ns", {})[part] = (
                    workloads.self_time_medians(path))
    with open(ctx.path("result-%s-trace%d.json" % (workload, args.trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    print("tpbench-env " + json.dumps(env, separators=(",", ":")), flush=True)
    return line


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.RUNNERS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # SIGTERM unwinds like an error, so every `finally` stops its server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        harness.log("no torusplace source tree in %s; run from the root of "
                    "a checkout" % root)
        return 2
    try:
        spec = metrics.load_spec()
        start = time.perf_counter()
        exe, native = harness.build(root)
        harness.log("build ok in %.1f s" % (time.perf_counter() - start))
        names = (list(workloads.RUNNERS) if args.workload == "all"
                 else [args.workload])
        lines = [run_one(root, exe, native, w, args, spec) for w in names]
    except (harness.BenchError, OSError, KeyError, ValueError) as e:
        harness.log("failed: %s" % e)
        return 1
    if len(names) == 1:
        print(json.dumps(lines[0]), flush=True)
        return 0
    # `all`: one line per workload, then a combined line whose metric names
    # carry the workload as a prefix.
    combined = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines), "metrics": {}}
    for w, line in zip(names, lines):
        print(w + " " + json.dumps(line), flush=True)
        for name, m in line["metrics"].items():
            combined["metrics"][w + "/" + name] = m
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

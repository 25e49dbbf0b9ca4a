"""The three workloads.  Each returns a Result: operations attempted and
failed (every failed check counts), metric values by name, and a detail
record for .bench_out."""

import json
import os
import time

import check
import gen
import harness
from harness import BenchError, log, median, run_child

# setup_s is the median of set-ups spread over the run: one after each CLI
# iteration, topped up to at least SETUPS, so a brief host disturbance at
# any one moment of the run cannot decide it.
SETUPS = 21
# Every workload must print every end-to-end metric of BENCHMARK.json, the
# CLI ones included, so a serve_* run spends this share of --seconds on the
# cli_offline commands.
CLI_SHARE = 0.25
# Client passes per run, each on fresh connections (so fresh server
# threads).  serve_hot is sensitive to where those threads land, so it takes
# the median over several passes; serve_cold is compute-bound and keeps one
# pass so its percentiles rest on every sample (>= 10 beyond p99).
PASSES = {"serve_hot": 8, "serve_cold": 1}
# A sample (a set-up, a throughput window of a client pass, a CLI
# iteration) taken while the hypervisor stole more than this share of all
# CPU time measures the host, not the program: on a shared 4-vCPU host,
# windows with 3% stolen already showed a p99 50% above clean ones.  Each
# metric is the median over the samples at or below it, or over the
# least-stolen half when fewer than half are; while fewer than half of
# PASSES passes' windows are, serve_hot runs another pass, up to
# PASSES // 2 extra.  /proc/stat counts 10-ms ticks, so in a serve_hot
# window (~0.3 s on 4 CPUs) the limit allows one stolen tick.
STEAL_LIMIT = 0.015
WARMUP_MS = 200          # client warm-up before each measured pass
PROBE_MS = 300           # single-connection warm-hit probe (traced runs)
TRACE_SHARE = 0.3        # share of --seconds for each traced/untraced pass


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.values = {}
        self.record = {}

    def count(self, ok, n=1):
        self.attempted += n
        if not ok:
            self.failed += n


class Ctx:
    def __init__(self, root, exe, native, seed, seconds, trace):
        self.exe = exe
        self.native = native
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = os.path.join(root, harness.OUT_DIR)
        os.makedirs(self.out, exist_ok=True)

    def path(self, name):
        return os.path.join(self.out, name)


# ------------------------------------------------------------------ spans

class PyTracer:
    """Spans recorded by the benchmark's Python half (one per child process
    and per iteration); kept in memory, written once at the end."""

    def __init__(self):
        self.spans = []

    def begin(self, name, parent=0, rid=0):
        self.spans.append([len(self.spans) + 1, parent, rid, name,
                           time.perf_counter_ns(), 0])
        return len(self.spans)

    def end(self, sid):
        self.spans[sid - 1][5] = time.perf_counter_ns()

    def write(self, path):
        with open(path, "w") as f:
            f.write("id,parent,rid,name,start_ns,end_ns\n")
            for s in self.spans:
                f.write("%d,%d,%d,%s,%d,%d\n" % tuple(s))


def self_time_medians(csv_path):
    """Per span name: median self time (duration minus the union of its
    children's intervals), in ns."""
    rows = {}
    children = {}
    with open(csv_path) as f:
        next(f)
        for line in f:
            sid, parent, _, name, start, end = line.rstrip("\n").split(",")
            rows[int(sid)] = (name, int(start), int(end))
            if int(parent):
                children.setdefault(int(parent), []).append(
                    (int(start), int(end)))
    by_name = {}
    for sid, (name, start, end) in rows.items():
        covered, cur_s, cur_e = 0, None, None
        for s, e in sorted(children.get(sid, [])):
            s, e = max(s, start), min(e, end)
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        by_name.setdefault(name, []).append(end - start - covered)
    return {name: median(v) for name, v in sorted(by_name.items())}


# ------------------------------------------------------------------ pieces

def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))
    return path


def reference(ctx, res, bodies, tag):
    """`torusplace batch` over the bodies (ids 1..n): the byte reference.
    Paper-invariant violations count as failed operations; keys with the
    known planner defect are listed in the record."""
    path = write_lines(ctx.path("ref-%s.jsonl" % tag),
                       ['{"id":%d,%s' % (i + 1, b[1:])
                        for i, b in enumerate(bodies)])
    child = run_child([ctx.exe, "batch", path, "--threads", "2"])
    if child.rc != 0:
        raise BenchError("reference batch exited %d: %s"
                         % (child.rc, child.stderr.strip()))
    tails, problems, defects = check.reference_tails(
        bodies, child.stdout.splitlines())
    for p in problems:
        log("paper check failed: " + p)
    res.record.setdefault("known_defect_keys", []).extend(defects)
    res.count(True, len(bodies) - len(problems))
    res.count(False, len(problems))
    return tails


def run_probes(ctx):
    """The known-defect probes: name, exit code and error line; for the
    planner probe also the response's prediction and measurement."""
    out = []
    for name, argv in gen.PROBES:
        child = run_child([ctx.exe] + argv)
        err = child.stderr.strip().splitlines()
        out.append({"name": name, "argv": " ".join(argv), "exit": child.rc,
                    "stderr": err[-1] if err else ""})
    name, line = gen.PLANNER_PROBE
    path = write_lines(ctx.path("probe-planner.jsonl"), [line])
    child = run_child([ctx.exe, "batch", path])
    probe = {"name": name, "request": line, "exit": child.rc}
    try:
        resp = json.loads(child.stdout.splitlines()[0])
        probe.update({k: resp.get(k) for k in (
            "prediction_exact", "predicted_emax", "measured_emax")})
        probe["known_defect"] = check.known_defect(resp)
    except (IndexError, ValueError):
        probe["stdout"] = child.stdout.strip()[-200:]
    out.append(probe)
    return out


def client(ctx, port, files, conns_streams, ms, spans=None, warmup_ms=None):
    """Runs the native closed-loop client; returns its JSON report."""
    argv = [ctx.native, "client", "--port", str(port),
            "--bodies", files["bodies"], "--expect", files["expect"],
            "--streams", conns_streams,
            "--warmup-ms", str(WARMUP_MS if warmup_ms is None else warmup_ms),
            "--ms", str(int(ms))]
    if spans:
        argv += ["--spans", spans]
    child = run_child(argv, timeout=ms / 1000.0 + 60)
    if child.rc != 0:
        raise BenchError("client exited %d: %s" % (child.rc, child.stderr))
    return json.loads(child.stdout.strip().splitlines()[-1])


def ledger(ctx, res, files, workload):
    argv = [ctx.native, "ledger", "--lines", files["replay"],
            "--bodies", files["bodies"], "--expect", files["expect"],
            "--cold-keys", files["cold_keys"], "--seed", str(ctx.seed),
            "--spans", ctx.path("spans-%s-ledger.csv" % workload)]
    if workload == "cli_offline":
        # The service counters of the engine `sweep` runs in-process.
        argv += ["--engine-keys", files["bodies"]]
    child = run_child(argv, timeout=170)
    if child.rc != 0:
        raise BenchError("ledger exited %d: %s" % (child.rc, child.stderr))
    out = json.loads(child.stdout.strip().splitlines()[-1])
    res.count(True, out["lines"] - out["mismatches"])
    res.count(False, out["mismatches"])
    res.count(True, out["paper_checked"] - out["paper_violations"])
    res.count(False, out["paper_violations"])
    res.record["ledger_known_defects"] = out["paper_known_defects"]
    return out


def write_inputs(ctx, inp, tails, workload):
    return {
        "bodies": write_lines(ctx.path("bodies-%s.txt" % workload),
                              inp.bodies),
        "expect": write_lines(ctx.path("expect-%s.txt" % workload), tails),
        "streams": write_lines(ctx.path("streams-%s.txt" % workload),
                               [" ".join(map(str, s)) for s in inp.streams]),
        "probe": write_lines(ctx.path("probe-%s.txt" % workload), ["0"]),
        "replay": write_lines(ctx.path("replay-%s.jsonl" % workload),
                              inp.replay),
        "cold_keys": write_lines(ctx.path("cold-keys.txt"),
                                 gen.cold_universe()),
    }


def warm(server, res, bodies, tails):
    """Sends every key once (ids 1..n), all at once so both workers compute,
    and checks each answer."""
    c = harness.LineClient(server.port)
    try:
        lines = c.call_all(['{"id":%d,%s' % (i + 1, b[1:])
                            for i, b in enumerate(bodies)])
    finally:
        c.close()
    for i, line in enumerate(lines):
        res.count(check.response_ok(line, i + 1, tails[i]))


def set_up_server(ctx, res, args, tag, warm_with=None):
    """Launches a server; returns it and the time from launch until it
    accepts (and, with warm_with, has answered every key)."""
    server = harness.Server(ctx.exe, ctx.out, args, tag)
    start = time.perf_counter()
    server.start()
    try:
        if warm_with:
            warm(server, res, *warm_with)
    except Exception:
        server.stop()
        raise
    return server, time.perf_counter() - start


class SetupSamples:
    """Set-up times of one run.  Calling the object takes one more sample
    with `launch`, which returns (seconds, ok)."""

    def __init__(self, res, launch):
        self.res = res
        self.launch = launch
        self.samples = []

    def __call__(self):
        ticks = harness.cpu_ticks()
        seconds, ok = self.launch()
        self.res.count(ok)
        self.samples.append({"s": seconds, "steal": harness.steal_share(
            ticks, harness.cpu_ticks())})

    def median(self):
        while len(self.samples) < SETUPS:
            self()
        return median([x["s"] for x in least_stolen(self.samples)])


def cli_iteration(ctx, res, cmds, ref, tracer=None, rid=0):
    """Runs one cli_offline iteration; returns (per-metric seconds, per-op
    latencies in us with failures as inf, max child RSS KiB)."""
    per_metric = {}
    lat = []
    rss = 0
    root = tracer.begin("iteration", 0, rid) if tracer else 0
    for metric, label, argv in cmds:
        sid = tracer.begin(label, root, rid) if tracer else 0
        child = run_child([ctx.exe] + argv)
        if tracer:
            tracer.end(sid)
        ok = child.rc == 0 and (ref is None or child.stdout == ref[label])
        if not ok:
            log("%s: exit %d or output differs from the reference"
                % (label, child.rc))
        res.count(ok)
        per_metric[metric] = per_metric.get(metric, 0.0) + child.wall_s
        lat.append(child.wall_s * 1e6 if ok else float("inf"))
        rss = max(rss, child.maxrss_kib)
    if tracer:
        tracer.end(root)
    return per_metric, lat, rss


def cli_reference(ctx, res, cmds):
    ref = {}
    for _, label, argv in cmds:
        child = run_child([ctx.exe] + argv)
        res.count(child.rc == 0)
        ref[label] = child.stdout
    return ref


def cli_metrics(iters):
    """Median per-iteration seconds of each CLI metric."""
    return {m: median([it["metrics"][m] for it in iters])
            for m in ("sweep_s", "optimize_s", "simulate_s")}


def latency_values(lat):
    lat = sorted(lat)
    return {"latency_p50_us": harness.percentile(lat, 0.5),
            "latency_p99_us": harness.percentile(lat, 0.99)}


# ------------------------------------------------------------------ serve_*

SERVE_ARGS = {
    "serve_hot": ["--threads", "2"],
    # 8 shards x 1 entry: far below the 52-key universe.
    "serve_cold": ["--threads", "2", "--cache", "8"],
}


def serve(ctx, workload):
    res = Result()
    hot = workload == "serve_hot"
    inp = gen.generate(workload, ctx.seed)
    tails = reference(ctx, res, inp.bodies, workload)
    files = write_inputs(ctx, inp, tails, workload)
    warm_with = (inp.bodies, tails) if hot else None
    server, _ = set_up_server(ctx, res, SERVE_ARGS[workload], workload,
                              warm_with)
    try:
        ms = ctx.seconds * 1000 * (1 if ctx.trace else 1 - CLI_SHARE)
        if not ctx.trace:
            # setup_s samples: further servers, launched and stopped while
            # the measured one idles.
            def launch():
                extra, seconds = set_up_server(
                    ctx, res, SERVE_ARGS[workload], workload + "-setup",
                    warm_with)
                return seconds, extra.stop() == 0
            setups = SetupSamples(res, launch)
            cmds = gen.cli_commands(ctx.seed)
            cli_ref = cli_reference(ctx, res, cmds)
            # Each pass opens fresh connections (fresh server threads), so
            # the medians over passes damp one unlucky thread placement.
            # After each pass, with the server idle, a slice of CLI
            # iterations; spreading the slices over the run averages host
            # drift.
            n = PASSES[workload]
            passes, iters = [], []
            while len(passes) < n or (len(passes) < n + n // 2
                                      and too_stolen(passes, n)):
                rep = client(ctx, server.port, files, files["streams"], ms / n)
                count_client(res, rep)
                passes.append(rep)
                iters += cli_loop(ctx, res, cmds, cli_ref,
                                  ctx.seconds * CLI_SHARE / n,
                                  between=setups)[0]
            res.values.update(cli_metrics(least_stolen(iters)))
            res.values["setup_s"] = setups.median()
            res.record["setup_s_samples"] = setups.samples
            res.record["client"] = passes
            res.record["passes_repeated"] = len(passes) - n
            # The client reports -1 when failures (+inf) reach a percentile;
            # the run is then incorrect and the percentile reads as the
            # whole pass.  serve_hot's percentiles are medians over windows,
            # like its throughput, so a burst of stolen CPU time moves only
            # the windows it falls in; serve_cold (one pass, a few thousand
            # requests) takes the pass's own percentiles.
            windows = least_stolen(
                [{"steal": steal, "qps": qps, "p50": p50, "p99": p99}
                 for rep in passes for steal, qps, p50, p99 in zip(
                     rep["window_steal"], rep["window_qps"],
                     rep["window_p50_us"], rep["window_p99_us"])])
            res.record["windows_kept"] = len(windows)
            res.values["throughput_qps"] = median([w["qps"] for w in windows])
            for q in ("p50", "p99"):
                values = ([w[q] for w in windows] if hot
                          else [rep[q + "_us"] for rep in passes])
                res.values["latency_%s_us" % q] = median(
                    [v if v >= 0 else ms / n * 1e3 for v in values])
        else:
            hit_rtt = traced_passes(ctx, res, server, files, workload, ms)
        status = server.admin("statusz")
        metrics = server.admin("metricsz")
        res.record["statusz"] = status
        res.record["metricsz"] = metrics
        res.values["peak_rss_mib"] = server.vm_hwm_kib() / 1024.0
        if ctx.trace and not hot:
            # A one-connection repeated-key probe: the warm-hit round trip
            # under the residual (taken after the admin snapshot so it does
            # not count in the hit ratio).
            hit_rtt = probe_hit_rtt(ctx, res, server, files)
    finally:
        res.count(server.stop() == 0)
    if ctx.trace:
        server_layers(res, status, metrics)
        ledger_layers(res, ledger(ctx, res, files, workload), hit_rtt)
    return res


def least_stolen(samples):
    """The samples (each with a "steal" share) taken with at most
    STEAL_LIMIT stolen, or the least-stolen half when fewer than half
    were."""
    keep = max(sum(x["steal"] <= STEAL_LIMIT for x in samples),
               (len(samples) + 1) // 2)
    return sorted(samples, key=lambda x: x["steal"])[:keep]


def too_stolen(passes, n):
    """True while fewer than half of n passes' windows stayed within
    STEAL_LIMIT."""
    clean = sum(s <= STEAL_LIMIT for rep in passes for s in rep["window_steal"])
    return clean < n * len(passes[0]["window_steal"]) / 2


def count_client(res, rep):
    res.count(True, rep["attempted"] - rep["failed"])
    res.count(False, rep["failed"])


def traced_passes(ctx, res, server, files, workload, ms):
    """An untraced and a traced client pass; returns the untraced p50."""
    share = ms * TRACE_SHARE
    plain = client(ctx, server.port, files, files["streams"], share)
    traced = client(ctx, server.port, files, files["streams"], share,
                    spans=ctx.path("spans-%s-client.csv" % workload))
    count_client(res, plain)
    count_client(res, traced)
    res.record["client_untraced"] = plain
    res.record["client_traced"] = traced
    res.values["obs.trace_overhead_frac"] = (
        (traced["p50_us"] - plain["p50_us"]) / plain["p50_us"])
    res.values["client.cpu_frac"] = plain["cpu_s"] / plain["wall_s"]
    return plain["p50_us"]


def probe_hit_rtt(ctx, res, server, files):
    probe = client(ctx, server.port, files, files["probe"], PROBE_MS,
                   warmup_ms=100)
    count_client(res, probe)
    return probe["p50_us"]


def server_layers(res, status, metrics):
    totals = status["totals"]
    res.values["service.requests"] = totals["requests"]
    res.values["service.hit_ratio"] = (totals["cache_hits"]
                                       / max(1, totals["requests"]))
    res.values["service.coalesced"] = totals["coalesced"]
    m = metrics["metrics"]
    hists = m.get("histograms", {})
    for name in ("service.queue_wait_us", "service.compute_us"):
        h = hists.get(name, {"count": 0})
        res.values[name + "_p50"] = harness.histogram_percentile(h, 0.50)
        res.values[name + "_p99"] = harness.histogram_percentile(h, 0.99)
    res.values["service.overloads"] = m.get("counters", {}).get(
        "net.overload_rejects", 0)


def ledger_layers(res, led, hit_rtt_us):
    med, sums = led["median"], led["sum"]
    for name in ("net.frame_ns", "service.parse_ns", "service.key_ns",
                 "service.cache_get_ns", "service.submit_hit_ns",
                 "service.render_ns", "service.cache_put_ns"):
        res.values[name] = med[name]
    res.values["net.loopback_rtt_us"] = med["net.loopback_rtt_us"]
    # The hit path a server walks per request: frame, parse (which builds
    # the key), submit->wait (which does the cache get), render.
    in_process_us = (med["net.frame_ns"] + med["service.parse_ns"]
                     + med["service.submit_hit_ns"]
                     + med["service.render_ns"]) / 1e3
    residual = hit_rtt_us - med["net.loopback_rtt_us"] - in_process_us
    res.values["net.residual_us"] = residual
    res.values["net.residual_frac"] = residual / hit_rtt_us
    res.record["hit_rtt_us"] = hit_rtt_us
    for name in ("core.plan_us", "load.odr_us", "load.udr_us",
                 "load.adaptive_us", "load.pairs", "bounds.all_us",
                 "bounds.slab_us", "core.anneal_us", "core.anneal_evaluated",
                 "simulate.run_us", "simulate.cycles",
                 "analysis.resilience_us"):
        res.values[name] = sums[name]
    res.record["ledger"] = led


# ------------------------------------------------------------------ cli_offline

def cli_offline(ctx):
    res = Result()
    cmds = gen.cli_commands(ctx.seed)
    ref = cli_reference(ctx, res, cmds)

    if not ctx.trace:
        def launch():
            child = run_child([ctx.exe, "version"])
            return child.wall_s, child.rc == 0
        setups = SetupSamples(res, launch)
        iters, rss = cli_loop(ctx, res, cmds, ref, ctx.seconds,
                              between=setups)
        kept = least_stolen(iters)
        lat = [x for it in kept for x in it["lat"]]
        # Every failed process counts as +inf, kept iteration or not.
        inf = float("inf")
        lat += [inf] * (sum(x == inf for it in iters for x in it["lat"])
                        - sum(x == inf for x in lat))
        res.values["setup_s"] = setups.median()
        res.record["setup_s_samples"] = setups.samples
        res.values["throughput_qps"] = sum(
            1 for x in lat if x != float("inf")) / sum(
                it["wall_s"] for it in kept)
        res.values.update(latency_values(lat))
        res.values["peak_rss_mib"] = rss / 1024.0
        res.values.update(cli_metrics(kept))
        res.record["iterations"] = len(iters)
        res.record["iterations_kept"] = len(kept)
        return res

    share = ctx.seconds * TRACE_SHARE
    cpu0 = time.process_time()
    plain, _ = cli_loop(ctx, res, cmds, ref, share)
    res.values["client.cpu_frac"] = (time.process_time() - cpu0) / sum(
        it["wall_s"] for it in plain)
    tracer = PyTracer()
    traced, _ = cli_loop(ctx, res, cmds, ref, share, tracer)
    tracer.write(ctx.path("spans-cli_offline-py.csv"))

    def iteration_s(iters):
        return median([sum(it["metrics"].values()) for it in iters])
    res.values["obs.trace_overhead_frac"] = (
        (iteration_s(traced) - iteration_s(plain)) / iteration_s(plain))

    inp = gen.generate("cli_offline", ctx.seed)
    tails = reference(ctx, res, inp.bodies, "cli_offline")
    files = write_inputs(ctx, inp, tails, "cli_offline")
    server = harness.Server(ctx.exe, ctx.out, ["--threads", "2"],
                            "cli_offline")
    server.start()
    try:
        hit_rtt = probe_hit_rtt(ctx, res, server, files)
    finally:
        res.count(server.stop() == 0)
    led = ledger(ctx, res, files, "cli_offline")
    ledger_layers(res, led, hit_rtt)
    eng = led["engine"]
    res.count(eng["failed"] == 0, eng["requests"])
    res.values["service.requests"] = eng["requests"]
    res.values["service.hit_ratio"] = eng["cache_hits"] / max(1, eng["requests"])
    res.values["service.coalesced"] = eng["coalesced"]
    for name in ("service.queue_wait_us", "service.compute_us"):
        res.values[name + "_p50"] = eng[name]["p50"]
        res.values[name + "_p99"] = eng[name]["p99"]
    res.values["service.overloads"] = 0  # in-process submit never rejects
    return res


def cli_loop(ctx, res, cmds, ref, seconds, tracer=None, between=None):
    """Iterations until `seconds` have passed (at least one).  Returns a
    record per iteration (per-metric seconds, per-op latencies, wall time,
    share of CPU time stolen during it) and the largest child RSS in KiB.
    `between`, if given, runs after each iteration, outside its record."""
    iters, rss = [], 0
    start = time.perf_counter()
    while not iters or time.perf_counter() - start < seconds:
        ticks, t = harness.cpu_ticks(), time.perf_counter()
        per_metric, lat, r = cli_iteration(ctx, res, cmds, ref, tracer,
                                           rid=len(iters) + 1)
        iters.append({"metrics": per_metric, "lat": lat,
                      "wall_s": time.perf_counter() - t,
                      "steal": harness.steal_share(ticks, harness.cpu_ticks())})
        rss = max(rss, r)
        if between:
            between()
    return iters, rss


RUNNERS = {
    "serve_hot": lambda ctx: serve(ctx, "serve_hot"),
    "serve_cold": lambda ctx: serve(ctx, "serve_cold"),
    "cli_offline": cli_offline,
}

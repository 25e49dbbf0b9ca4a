"""Seeded input generation for the three workloads.

Everything the program sees (request lines, CLI arguments) is made here from
the workload name and --seed.  The same seed gives the same bytes
(`inputs_bytes`), another seed gives different ones.
"""

import bisect
import json
import random

HOT_CONNS = 4
COLD_CONNS = 3
HOT_STREAM_LEN = 1 << 15  # per connection; the client cycles through it
COLD_ROUNDS = 40          # shuffled passes over the cold universe per conn
REPLAY_LINES = {"serve_hot": 20000, "serve_cold": 2000, "cli_offline": 2000}
ZIPF_S = 1.1


def body(query):
    """A request line without its id: compact JSON, fixed member order."""
    return json.dumps(query, separators=(",", ":"))


def hot_universe():
    """32 keys on d 2-3 tori: load/analyze x odr/udr on six tori plus plan
    x odr/udr on four.  Cheap to compute, so set-up warms all of them.
    Listed in zipf rank order (rank 0 is drawn most often); the stride-7
    walk spreads the ops and tori over the ranks."""
    keys = []
    for op in ("load", "analyze"):
        for router in ("odr", "udr"):
            for d, k in ((2, 4), (2, 6), (2, 8), (2, 10), (3, 4), (3, 6)):
                keys.append({"op": op, "d": d, "k": k, "router": router})
    for router in ("odr", "udr"):
        for d, k in ((2, 4), (2, 8), (3, 4), (3, 6)):
            keys.append({"op": "plan", "d": d, "k": k, "router": router})
    return [body(keys[(i * 7) % len(keys)]) for i in range(len(keys))]


def cold_universe():
    """52 keys that each compute: load/analyze x t in {1,2} on d=3 tori,
    odr/udr for k in {4..12}, adaptive for k in {4,6,8}."""
    keys = []
    for op in ("load", "analyze"):
        for t in (1, 2):
            for router in ("odr", "udr"):
                for k in (4, 6, 8, 10, 12):
                    keys.append({"op": op, "d": 3, "k": k, "t": t,
                                 "router": router})
            for k in (4, 6, 8):
                keys.append({"op": op, "d": 3, "k": k, "t": t,
                             "router": "adaptive"})
    return [body(q) for q in keys]


SWEEP_KS = (4, 6, 8, 10, 12)
SWEEPS = (("odr", 2), ("udr", 1))  # (router, t) of the two sweep calls


def sweep_cells():
    """The engine queries the two cli_offline sweeps make, as request lines."""
    return [body({"op": "load", "d": 3, "k": k, "t": t, "router": router})
            for router, t in SWEEPS for k in SWEEP_KS]


def cli_commands(seed):
    """One cli_offline iteration: (metric, label, argv after the binary)."""
    ks = ",".join(str(k) for k in SWEEP_KS)
    cmds = []
    for router, t in SWEEPS:
        cmds.append(("sweep_s", "sweep_" + router,
                     ["sweep", "--d", "3", "--ks", ks, "--t", str(t),
                      "--router", router, "--threads", "2"]))
    cmds.append(("optimize_s", "optimize",
                 ["optimize", "--d", "2", "--k", "12", "--router", "udr",
                  "--iters", "5000", "--seed", str(seed)]))
    cmds.append(("simulate_s", "simulate",
                 ["simulate", "--d", "3", "--k", "8", "--t", "2",
                  "--router", "odr", "--seed", str(seed)]))
    cmds.append(("simulate_s", "resilience",
                 ["resilience", "--d", "2", "--k", "8", "--t", "2",
                  "--seed", str(seed), "--threads", "2"]))
    return cmds


# Known defect: cmd_optimize picks exhaustive vs anneal search with
# binomial(num_nodes, size), which overflows i64 at these paper sizes
# (k^(d-1)) and exits 3.  Recorded on every invocation, never timed/counted.
PROBES = (
    ("optimize_binomial_overflow_d3_k6",
     ["optimize", "--d", "3", "--k", "6", "--router", "odr"]),
    ("optimize_binomial_overflow_d2_k16",
     ["optimize", "--d", "2", "--k", "16"]),
)
# ODR, t=1, d>=3: the planner marks the interior-link form exact, so the
# response has prediction_exact true and measured_emax != predicted_emax.
PLANNER_PROBE = ("odr_t1_prediction_exact_d3_k6",
                 body({"id": 1, "op": "load", "d": 3, "k": 6, "t": 1,
                       "router": "odr"}))


def _zipf_cdf(n, s):
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _zipf_draws(rng, cdf, count):
    return [bisect.bisect_left(cdf, rng.random()) for _ in range(count)]


class Inputs:
    """bodies: distinct request bodies (index = key id); streams: per
    connection, the key ids in send order; replay: request lines (with ids)
    for the in-process ledger."""

    def __init__(self, bodies, streams, replay):
        self.bodies = bodies
        self.streams = streams
        self.replay = replay


def _interleave(streams, bodies, count):
    lines = []
    i = 0
    while len(lines) < count:
        for s in streams:
            if len(lines) == count:
                break
            lines.append('{"id":%d,%s' % (len(lines) + 1,
                                          bodies[s[i % len(s)]][1:]))
        i += 1
    return lines


def generate(workload, seed):
    rng = random.Random("tpbench:%s:%d" % (workload, seed))
    if workload == "serve_hot":
        bodies = hot_universe()
        cdf = _zipf_cdf(len(bodies), ZIPF_S)
        streams = [_zipf_draws(rng, cdf, HOT_STREAM_LEN)
                   for _ in range(HOT_CONNS)]
        return Inputs(bodies, streams,
                      _interleave(streams, bodies, REPLAY_LINES[workload]))
    if workload == "serve_cold":
        bodies = cold_universe()
        streams = []
        for _ in range(COLD_CONNS):
            s = []
            for _ in range(COLD_ROUNDS):
                order = list(range(len(bodies)))
                rng.shuffle(order)
                s.extend(order)
            streams.append(s)
        return Inputs(bodies, streams,
                      _interleave(streams, bodies, REPLAY_LINES[workload]))
    if workload == "cli_offline":
        bodies = sweep_cells()
        order = list(range(len(bodies)))
        rng.shuffle(order)
        return Inputs(bodies, [order],
                      _interleave([order], bodies, REPLAY_LINES[workload]))
    raise ValueError("unknown workload " + workload)


def inputs_bytes(workload, seed):
    """Every generated byte the program can see, for determinism checks."""
    inp = generate(workload, seed)
    parts = list(inp.bodies)
    parts += [" ".join(map(str, s)) for s in inp.streams]
    parts += inp.replay
    if workload == "cli_offline":
        parts += [" ".join(argv) for _, _, argv in cli_commands(seed)]
    return ("\n".join(parts) + "\n").encode()

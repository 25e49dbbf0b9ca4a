"""The benchmark's own tests.

    python3 -m unittest discover -s tpbench/tests      (from the repo root)

The client tests need the native tool built by a benchmark run
(.bench_build/tpbench_native) and are skipped without it.  Set
TPBENCH_E2E=1 to also run every workload for one second in both modes and
check the printed metric names and units against BENCHMARK.json.
"""

import itertools
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("serve_hot", "serve_cold", "cli_offline")
NATIVE = os.path.join(ROOT, ".bench_build", "tpbench_native")

GOOD = ('{"id":1,"ok":true,"op":"load","key":"load d3 k4 t1 udr","d":3,'
        '"k":4,"t":1,"router":"udr","placement":"multiple_linear(t=1)",'
        '"processors":16,"predicted_emax":64,"prediction_exact":false,'
        '"lower_bound":2.5,"measured_emax":3.6666666666666674,'
        '"mean_load":2.0000000000000009,"loaded_links":384,"summary":"s"}')


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in WORKLOADS:
            self.assertEqual(gen.inputs_bytes(w, 7), gen.inputs_bytes(w, 7), w)

    def test_other_seed_other_bytes(self):
        for w in WORKLOADS:
            self.assertNotEqual(gen.inputs_bytes(w, 7),
                                gen.inputs_bytes(w, 8), w)

    def test_universe_sizes(self):
        self.assertEqual(len(set(gen.hot_universe())), 32)
        self.assertEqual(len(set(gen.cold_universe())), 52)

    def test_hot_draws_are_skewed(self):
        inp = gen.generate("serve_hot", 3)
        counts = [0] * len(inp.bodies)
        for s in inp.streams:
            for i in s:
                counts[i] += 1
        self.assertEqual(counts.index(max(counts)), 0)
        self.assertGreater(counts[0], 5 * counts[-1])

    def test_cold_rounds_cover_the_universe(self):
        inp = gen.generate("serve_cold", 3)
        n = len(inp.bodies)
        for s in inp.streams:
            self.assertEqual(sorted(s[:n]), list(range(n)))


class CheckerTest(unittest.TestCase):
    def test_reference_response_passes(self):
        tail = check.split_id(GOOD, 1)
        self.assertTrue(check.response_ok(GOOD, 1, tail))
        self.assertEqual(check.paper_problems(json.loads(GOOD)), [])

    def test_corrupted_response_is_flagged(self):
        tail = check.split_id(GOOD, 1)
        bad = GOOD.replace("384", "385")
        self.assertFalse(check.response_ok(bad, 1, tail))
        self.assertFalse(check.response_ok(GOOD[:-1], 1, tail))  # torn
        self.assertFalse(check.response_ok(GOOD, 2, tail))  # wrong id

    def test_missing_line_is_flagged(self):
        # A connection that closes before its reply gives no line.
        self.assertFalse(check.response_ok(None, 1, check.split_id(GOOD, 1)))

    def test_wrong_measured_emax_is_flagged(self):
        resp = json.loads(GOOD)
        resp["measured_emax"] = 2.0  # below lower_bound 2.5
        self.assertEqual(len(check.paper_problems(resp)), 1)
        resp = json.loads(GOOD)
        resp["prediction_exact"] = True  # 3.67 != 64
        self.assertEqual(len(check.paper_problems(resp)), 1)

    def test_known_planner_defect_is_recorded_not_failed(self):
        # load d3 k6 t1 odr: Sec. 6.1's interior form 6 marked exact, the
        # overall maximum floor(6/2) * 6 = 18 measured.
        resp = dict(json.loads(GOOD), key="load d3 k6 t1 odr", k=6,
                    router="odr", prediction_exact=True, predicted_emax=6,
                    lower_bound=5.8, measured_emax=18)
        self.assertTrue(check.known_defect(resp))
        self.assertEqual(check.paper_problems(resp), [])
        body = gen.body({"op": "load", "d": 3, "k": 6, "router": "odr"})
        _, problems, defects = check.reference_tails(
            [body], [json.dumps(resp, separators=(",", ":"))])
        self.assertEqual((problems, defects), ([], ["load d3 k6 t1 odr"]))
        # Any other value is a failure, not the defect.
        for change in ({"measured_emax": 17}, {"predicted_emax": 7},
                       {"t": 2}, {"router": "udr"}, {"d": 2}):
            bad = dict(resp, **change)
            self.assertFalse(check.known_defect(bad), change)
            self.assertEqual(len(check.paper_problems(bad)), 1, change)

    def test_reference_rejects_failed_or_misnumbered(self):
        body = gen.body({"op": "load", "d": 3, "k": 4, "router": "udr"})
        tails, problems, defects = check.reference_tails([body], [GOOD])
        self.assertEqual((tails, problems, defects),
                         ([check.split_id(GOOD, 1)], [], []))
        with self.assertRaises(check.CheckError):
            check.reference_tails([body], [GOOD.replace('"id":1', '"id":9')])
        with self.assertRaises(check.CheckError):
            check.reference_tails([body, body], [GOOD])


class FakeServer:
    """Serves one scripted connection per entry of `scripts`, in turn, then
    stops listening (so further connects are refused).  Script entry n is
    the reply to request n on that connection; None closes the connection
    instead of replying."""

    def __init__(self, scripts):
        self.scripts = scripts
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(len(scripts))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        for script in self.scripts:
            conn, _ = self.listener.accept()
            f = conn.makefile("r")
            for reply in script:
                line = f.readline()
                if not line or reply is None:
                    break
                rid = json.loads(line)["id"]
                conn.sendall((reply.replace('"id":1,', '"id":%d,' % rid)
                              + "\n").encode())
            f.close()
            conn.close()
        self.listener.close()


@unittest.skipUnless(os.access(NATIVE, os.X_OK), "native tool not built")
class ClientCheckerTest(unittest.TestCase):
    """The native client applies the same byte check to every response and
    counts every failed request as +inf in its percentiles."""

    def run_client(self, scripts, tmp):
        body = gen.body({"op": "load", "d": 3, "k": 4, "router": "udr"})
        paths = {}
        for name, text in (("bodies", body), ("expect", check.split_id(GOOD, 1)),
                           ("streams", "0")):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as f:
                f.write(text + "\n")
        server = FakeServer(scripts)
        out = subprocess.run(
            [NATIVE, "client", "--port", str(server.port),
             "--bodies", paths["bodies"], "--expect", paths["expect"],
             "--streams", paths["streams"], "--warmup-ms", "0", "--ms", "1500"],
            capture_output=True, text=True, timeout=60)
        server.thread.join(timeout=10)
        self.assertEqual(out.returncode, 0, out.stderr)
        rep = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(rep["failed"], rep["mismatch"] + rep["lost"])
        self.assertEqual(rep["attempted"], rep["ok"] + rep["failed"])
        self.assertEqual(rep["samples"], rep["attempted"])  # no warm-up
        return rep

    def test_corrupt_and_missing_responses_count_as_failed(self):
        corrupt = GOOD.replace("3.6666666666666674", "3.6666666666666675")
        with tempfile.TemporaryDirectory() as tmp:
            # A corrupt reply, then a connection that closes before its
            # reply, then a server that is gone for the rest of the pass.
            rep = self.run_client([[GOOD, corrupt], [GOOD, None]], tmp)
        self.assertEqual(rep["ok"], 2)
        self.assertEqual(rep["mismatch"], 1)
        self.assertGreater(rep["lost"], 10)  # every refused reconnect too
        self.assertEqual(rep["p50_us"], -1)  # failures sort as +inf
        self.assertEqual(rep["p99_us"], -1)
        self.assertEqual(rep["window_p99_us"][-1], -1)  # server gone

    def test_closed_connection_reconnects_and_counts_once(self):
        with tempfile.TemporaryDirectory() as tmp:
            # The server closes mid-pass; the client reconnects and goes on.
            rep = self.run_client([[GOOD, GOOD, None], itertools.repeat(GOOD)],
                                  tmp)
        self.assertEqual(rep["mismatch"], 0)
        self.assertEqual(rep["lost"], 1)
        self.assertGreater(rep["ok"], 100)
        self.assertGreater(rep["p99_us"], 0)  # one +inf among many samples
        for key in ("window_qps", "window_p50_us", "window_p99_us",
                    "window_steal"):
            self.assertEqual(len(rep[key]), 10, key)
        self.assertTrue(all(0 <= x <= 1 for x in rep["window_steal"]))
        self.assertTrue(all(x > 0 for x in rep["window_p50_us"]))


class StealSelectionTest(unittest.TestCase):
    def test_least_stolen(self):
        limit = workloads.STEAL_LIMIT

        def samples(*steals):
            return [{"steal": s, "i": i} for i, s in enumerate(steals)]
        # Every sample within the limit is kept, however many that is.
        kept = workloads.least_stolen(samples(0, limit, 2 * limit, 0))
        self.assertEqual(sorted(x["i"] for x in kept), [0, 1, 3])
        # Fewer than half within it: the least-stolen half.
        kept = workloads.least_stolen(samples(0.5, 0.2, 0.1, 0.3, 0))
        self.assertEqual(sorted(x["i"] for x in kept), [1, 2, 4])


class MetricNamesTest(unittest.TestCase):
    def test_result_line_has_every_metric_with_its_unit(self):
        spec = metrics.load_spec()
        for trace in (0, 1):
            table = metrics.metric_table(spec, trace)
            values = {name: 1.5 for name, _ in table}
            line = metrics.result_line(spec, trace, 3, 0, values)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            for name, unit in table:
                self.assertEqual(line["metrics"][name],
                                 {"value": 1.5, "unit": unit})

    def test_missing_metric_is_an_error(self):
        spec = metrics.load_spec()
        with self.assertRaises(KeyError):
            metrics.result_line(spec, 0, 1, 0, {})

    def test_spec_shape(self):
        spec = metrics.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))

    @unittest.skipUnless(os.environ.get("TPBENCH_E2E"), "set TPBENCH_E2E=1")
    def test_every_workload_prints_every_metric(self):
        spec = metrics.load_spec()
        for w in WORKLOADS:
            for trace in (0, 1):
                out = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"),
                     "--workload", w, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                self.assertEqual(out.returncode, 0, out.stderr)
                line = json.loads(out.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(got, dict(metrics.metric_table(spec, trace)),
                                 (w, trace))


if __name__ == "__main__":
    unittest.main()

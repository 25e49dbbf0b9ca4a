"""Process plumbing: build, child processes with their own rusage, the
`serve --tcp` lifecycle, the run-environment record and small statistics."""

import json
import os
import platform
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"


def log(msg):
    print("tpbench: " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build(root):
    """Configures and builds the CLI and the native tool from the checkout's
    sources; returns (torusplace, tpbench_native) paths."""
    bdir = os.path.join(root, BUILD_DIR)
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    logpath = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "tpbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "torusplace_cli",
                  "tpbench_native", "-j", jobs])
    with open(logpath, "a") as logf:
        for argv in steps:
            rc = subprocess.run(argv, cwd=root, stdout=logf,
                                stderr=subprocess.STDOUT).returncode
            if rc != 0:
                raise BenchError("build step failed (%s), see %s"
                                 % (" ".join(argv[:2]), logpath))
    exe = os.path.join(bdir, "torusplace", "tools", "torusplace")
    native = os.path.join(bdir, "tpbench_native")
    for path in (exe, native):
        if not os.access(path, os.X_OK):
            raise BenchError("build produced no " + path)
    return exe, native


# ------------------------------------------------------------------ children

class Child:
    """A finished child process: exit code, wall seconds, max RSS (KiB)."""

    def __init__(self, rc, wall_s, maxrss_kib, stdout, stderr):
        self.rc = rc
        self.wall_s = wall_s
        self.maxrss_kib = maxrss_kib
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv, timeout=120.0):
    """Runs argv to completion, reaping it with wait4 so the rusage is this
    child's own (RUSAGE_CHILDREN would include the compiler).  posix_spawn
    keeps the launch cost, which every CLI metric includes, small."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, out_w, 1),
               (os.POSIX_SPAWN_DUP2, err_w, 2)]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks = {out_r: [], err_r: []}
    open_fds = [out_r, err_r]
    deadline = start + timeout
    while open_fds:
        left = deadline - time.perf_counter()
        if left <= 0:
            os.kill(pid, signal.SIGKILL)
            break
        ready, _, _ = select.select(open_fds, [], [], left)
        for fd in ready:
            data = os.read(fd, 1 << 16)
            if data:
                chunks[fd].append(data)
            else:
                open_fds.remove(fd)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    for fd in (out_r, err_r):
        os.close(fd)
    return Child(os.waitstatus_to_exitcode(status), wall, ru.ru_maxrss,
                 b"".join(chunks[out_r]).decode(errors="replace"),
                 b"".join(chunks[err_r]).decode(errors="replace"))


# ------------------------------------------------------------------ server

class LineClient:
    """A blocking JSONL connection (warm-up, admin ops, small probes)."""

    def __init__(self, port, timeout=30.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def call(self, line):
        return self.call_all([line])[0]

    def call_all(self, lines):
        """Pipelines the lines; returns one reply per line (None if lost)."""
        self.sock.sendall("".join(line + "\n" for line in lines).encode())
        replies = []
        for _ in lines:
            got = self.rfile.readline()
            replies.append(got[:-1] if got.endswith("\n") else None)
        return replies

    def close(self):
        self.rfile.close()
        self.sock.close()


class Server:
    """`torusplace serve --tcp 127.0.0.1:0`, one per measurement."""

    def __init__(self, exe, outdir, extra_args, tag):
        self.exe = exe
        self.port_file = os.path.join(outdir, "port-%s.txt" % tag)
        self.err_path = os.path.join(outdir, "serve-%s.log" % tag)
        self.extra_args = extra_args
        self.proc = None
        self.port = 0

    def start(self, timeout=30.0):
        """Launches the server; returns once it accepts connections.

        The port file is a FIFO: the server writes its bound address there
        after it listens, and the read wakes on that write, so no polling
        interval adds to the measured start time."""
        if os.path.lexists(self.port_file):
            os.remove(self.port_file)
        os.mkfifo(self.port_file)
        # Non-blocking, so a server that dies before writing cannot hang us.
        fd = os.open(self.port_file, os.O_RDONLY | os.O_NONBLOCK)
        try:
            self.errf = open(self.err_path, "w")
            self.proc = subprocess.Popen(
                [self.exe, "serve", "--tcp", "127.0.0.1:0", "--port-file",
                 self.port_file] + self.extra_args,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=self.errf)
            text = self._read_address(fd, time.monotonic() + timeout)
        finally:
            os.close(fd)
            os.remove(self.port_file)
        self.port = int(text.strip().rsplit(":", 1)[1])

    def _read_address(self, fd, deadline):
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        text = b""
        while not text.endswith(b"\n"):
            if self.proc.poll() is not None:
                self.stop()
                raise BenchError("server exited at start, see " + self.err_path)
            left = deadline - time.monotonic()
            if left <= 0:
                self.stop()
                raise BenchError("server did not start")
            if not poller.poll(min(left, 0.1) * 1000):
                continue
            data = os.read(fd, 256)
            if not data:
                self.stop()
                raise BenchError("server closed its port file early")
            text += data
        return text.decode()

    def vm_hwm_kib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def admin(self, op):
        c = LineClient(self.port)
        try:
            line = c.call('{"id":"tpbench","op":"%s"}' % op)
        finally:
            c.close()
        if line is None:
            raise BenchError("no reply to " + op)
        return json.loads(line)

    def stop(self):
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.errf.close()
        rc = self.proc.returncode
        self.proc = None
        return rc


# ------------------------------------------------------------------ env

def git_sha(root):
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks():
    """The aggregate `cpu` line of /proc/stat: user .. steal ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before, after):
    """Share of all CPU ticks between two cpu_ticks() the hypervisor stole."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def env_record(root, exe, seed, workload, trace):
    version = run_child([exe, "version"]).stdout.splitlines()
    allowed = sorted(os.sched_getaffinity(0))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(root),
        "version": version[0] if version else "",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "affinity": "none set; process may run on cpus %s" % allowed,
        "loadavg_1m_before": os.getloadavg()[0],
    }


# ------------------------------------------------------------------ stats

def median(values):
    return statistics.median(values)


def histogram_percentile(h, q):
    """HistogramData::percentile on a metricsz histogram (bounds/counts)."""
    count = h.get("count", 0)
    if count == 0:
        return 0.0
    rank = max(1.0, q * count)
    cum = 0.0
    bounds, counts = h["bounds"], h["counts"]
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if cum + c >= rank:
            lo = 0.0 if i == 0 else float(bounds[i - 1])
            hi = float(bounds[i]) if i < len(bounds) else float(h["max"])
            est = lo + (hi - lo) * (rank - cum) / c
            return min(max(est, float(h["min"])), float(h["max"]))
        cum += c
    return float(h["max"])


def percentile(sorted_values, q):
    """Nearest-rank percentile; the native client uses the same rule."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]

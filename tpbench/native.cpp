// tpbench_native: the compiled half of the torusplace end-to-end benchmark
// (see README.md; run.py drives it).
//
//   tpbench_native client --port P --bodies F --expect F --streams F
//                         --warmup-ms W --ms M [--spans F]
//       Closed-loop TCP load against a running `torusplace serve --tcp`:
//       one connection per line of the streams file, one outstanding
//       request each, all driven by one thread.  Every response is compared
//       byte for byte with the reference (everything after the echoed id);
//       a failed request closes its connection, which reconnects.  Prints
//       one JSON line: counts, throughput in each of kWindows equal windows,
//       latency percentiles with failures counted as +inf (over the pass
//       and per window), the share of CPU time the hypervisor stole in each
//       window, and the client's own CPU seconds.
//
//   tpbench_native ledger --lines F --expect F --cold-keys F --seed S
//                         [--engine-keys F] [--spans F]
//       In-process per-layer ledger.  Replays request lines through
//       LineBuffer -> parse_request_line -> make_query_key -> Engine::submit
//       -> response_to_json, times PlanCache get/put directly, measures a
//       loopback echo floor over src/net sockets, and times the compute
//       layers (plan_placement, measure_loads, all_bounds, best_slab_bound)
//       over the cold key set and the offline search (anneal_placement,
//       NetworkSim::run, resilience_sweep).  Every call is one span; the
//       spans stay in memory and are written to --spans at the end.  Prints
//       one JSON line of per-layer medians and sums.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/resource.h>

#include "src/analysis/resilience.h"
#include "src/bounds/lower_bounds.h"
#include "src/bounds/slab_search.h"
#include "src/core/optimize.h"
#include "src/core/planner.h"
#include "src/net/line_buffer.h"
#include "src/net/socket.h"
#include "src/obs/json.h"
#include "src/placement/placement.h"
#include "src/service/engine.h"
#include "src/service/jsonl.h"
#include "src/service/plan_cache.h"
#include "src/service/query.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "src/torus/torus.h"

namespace {

using Clock = std::chrono::steady_clock;
using tp::i32;
using tp::i64;
using tp::u16;
using tp::u64;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// ---------------------------------------------------------------- spans

/// One timed call.  `rid` groups the spans of one request (0 = none);
/// `parent` is the id of the enclosing span (0 = root).
struct Span {
  i64 id = 0;
  i64 parent = 0;
  i64 rid = 0;
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
};

/// In-memory span log, written out once at the end.  Span ids are 1, 2, ...
/// in begin order.
class SpanLog {
 public:
  i64 begin(const char* name, i64 parent, i64 rid) {
    const auto id = static_cast<i64>(spans_.size()) + 1;
    spans_.push_back(Span{id, parent, rid, name, now_ns(), 0});
    return id;
  }
  /// Closes span `id`; returns its duration in ns.
  i64 end(i64 id) {
    Span& s = spans_[static_cast<std::size_t>(id - 1)];
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

void write_spans(const std::string& path, const SpanLog& log) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "id,parent,rid,name,start_ns,end_ns\n";
  for (const Span& s : log.spans())
    out << s.id << ',' << s.parent << ',' << s.rid << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
}

// ---------------------------------------------------------------- helpers

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// Command options.  get/num require the option; opt returns "" when the
/// option was not given.
struct Opts {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing option --" + k);
    return it->second;
  }
  std::string opt(const std::string& k) const {
    const auto it = kv.find(k);
    return it == kv.end() ? std::string() : it->second;
  }
  i64 num(const std::string& k) const { return std::stoll(get(k)); }
};

Opts parse_opts(int argc, char** argv) {
  Opts o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad option " + key);
    o.kv[key.substr(2)] = argv[i + 1];
  }
  return o;
}

/// Request line for body `body` (a JSON object without an id) under id `rid`.
std::string request_line(i64 rid, const std::string& body) {
  return "{\"id\":" + std::to_string(rid) + "," + body.substr(1);
}

double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size())));
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- client

struct ConnResult {
  i64 attempted = 0;
  i64 ok = 0;
  i64 mismatch = 0;  ///< wrong bytes, or a response nobody asked for
  i64 lost = 0;      ///< failed connect or write, timeout, closed connection
  std::vector<double> lat_us;    ///< measured-window latencies (+inf = fail)
  std::vector<i64> lat_start_ns; ///< send time of each lat_us sample
  std::vector<i64> done_ns;      ///< completion time of each ok response
};

constexpr double kInf = 1e300;
constexpr std::size_t kWindows = 10;          ///< throughput windows per pass

/// The aggregate `cpu` line of /proc/stat: {all ticks, stolen ticks} over
/// user .. steal, as harness.cpu_ticks reads it.
std::pair<i64, i64> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  i64 total = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) total += v;
  return {total, v};
}
constexpr i64 kTimeoutNs = 10'000'000'000;    ///< later responses are lost
constexpr i64 kReconnectGapNs = 1'000'000;    ///< pause after a failed connect

/// One thread drives every connection through poll(): each connection
/// keeps one request outstanding, and a connection's next request goes out
/// as soon as its response has been read and checked.  A request that
/// fails closes its connection; the connection reconnects and goes on
/// until t_end, so a failure costs one +inf sample per request it stops,
/// never the rest of the pass.  `marks` gets cpu_ticks() at each window
/// boundary, t_measure first and t_end last.
void run_multiplexed(u16 port, const std::vector<std::string>& bodies,
                     const std::vector<std::string>& expect,
                     const std::vector<std::vector<i32>>& streams,
                     i64 t_measure, i64 t_end, SpanLog* log,
                     std::vector<ConnResult>& results,
                     std::vector<std::pair<i64, i64>>& marks) {
  const std::size_t conns = streams.size();
  auto boundary = [&](std::size_t w) {
    return t_measure + (t_end - t_measure) * static_cast<i64>(w) /
                           static_cast<i64>(kWindows);
  };
  auto take_marks = [&](i64 now) {
    while (marks.size() <= kWindows && now >= boundary(marks.size()))
      marks.push_back(cpu_ticks());
  };
  struct Conn {
    tp::net::Socket sock;
    std::string buf;
    i64 seq = 0;
    i64 start = 0;
    i64 span = 0;
    i64 retry_at = 0;
    std::size_t key = 0;
    bool waiting = false;
  };
  std::vector<Conn> cs(conns);
  // Ends connection c's current request as failed and drops the connection.
  auto fail = [&](std::size_t c, bool mismatch) {
    Conn& k = cs[c];
    ConnResult& r = results[c];
    ++(mismatch ? r.mismatch : r.lost);
    if (k.start >= t_measure) {
      r.lat_us.push_back(kInf);
      r.lat_start_ns.push_back(k.start);
    }
    if (log && k.span) log->end(k.span);
    k.span = 0;
    k.waiting = false;
    k.buf.clear();
    k.sock.close();
    ++k.seq;
  };
  // Sends connection c's next request (reconnecting first if needed).
  auto send_next = [&](std::size_t c) {
    Conn& k = cs[c];
    k.start = now_ns();
    if (k.start >= t_end) return;
    const i64 rid = k.seq * static_cast<i64>(conns) + static_cast<i64>(c);
    if (!k.sock.valid()) {
      if (k.start < k.retry_at) return;
      try {
        k.sock = tp::net::connect_to("127.0.0.1", port);
      } catch (const std::exception&) {
        ++results[c].attempted;  // the request that could not be sent
        fail(c, false);
        k.retry_at = k.start + kReconnectGapNs;
        return;
      }
    }
    const std::vector<i32>& stream = streams[c];
    k.key = static_cast<std::size_t>(
        stream[static_cast<std::size_t>(k.seq) % stream.size()]);
    ++results[c].attempted;
    if (log) k.span = log->begin("rtt", 0, rid);
    k.waiting = true;
    if (!k.sock.write_all(request_line(rid, bodies[k.key]) + "\n"))
      fail(c, false);
  };
  for (std::size_t c = 0; c < conns; ++c) send_next(c);
  std::vector<char> chunk(1 << 16);
  std::vector<pollfd> fds;
  std::vector<std::size_t> owner;
  for (;;) {
    const i64 now = now_ns();
    take_marks(now);
    fds.clear();
    owner.clear();
    // earliest timeout, reconnect or window boundary
    i64 wake = now + kTimeoutNs;
    if (marks.size() <= kWindows) wake = std::min(wake, boundary(marks.size()));
    for (std::size_t c = 0; c < conns; ++c) {
      if (cs[c].waiting) {
        fds.push_back(pollfd{cs[c].sock.fd(), POLLIN, 0});
        owner.push_back(c);
        wake = std::min(wake, cs[c].start + kTimeoutNs);
      } else if (now < t_end) {
        wake = std::min(wake, std::max(now, cs[c].retry_at));
      }
    }
    if (fds.empty() && now >= t_end && marks.size() > kWindows) break;
    const i64 wait_ms = (std::max<i64>(0, wake - now) + 999999) / 1000000;
    if (::poll(fds.data(), fds.size(), static_cast<int>(wait_ms)) < 0)
      throw std::runtime_error("poll failed");
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::size_t c = owner[i];
      Conn& k = cs[c];
      ConnResult& r = results[c];
      if (fds[i].revents == 0) {
        if (now_ns() - k.start >= kTimeoutNs) fail(c, false);
        continue;
      }
      const i64 got = k.sock.read_some(chunk.data(), chunk.size());
      if (got <= 0) {
        fail(c, false);
        continue;
      }
      k.buf.append(chunk.data(), static_cast<std::size_t>(got));
      const std::size_t nl = k.buf.find('\n');
      if (nl == std::string::npos) continue;
      if (nl + 1 != k.buf.size()) {  // a response nobody asked for
        fail(c, true);
        continue;
      }
      const i64 done = now_ns();
      if (log) log->end(k.span);
      k.span = 0;
      const i64 rid = k.seq * static_cast<i64>(conns) + static_cast<i64>(c);
      const std::string want =
          "{\"id\":" + std::to_string(rid) + "," + expect[k.key];
      if (nl != want.size() || k.buf.compare(0, nl, want) != 0) {
        fail(c, true);
        continue;
      }
      k.buf.clear();
      k.waiting = false;
      ++r.ok;
      if (k.start >= t_measure) {
        r.lat_us.push_back(static_cast<double>(done - k.start) / 1e3);
        r.lat_start_ns.push_back(k.start);
        r.done_ns.push_back(done);
      }
      ++k.seq;
    }
    for (std::size_t c = 0; c < conns; ++c)
      if (!cs[c].waiting) send_next(c);
  }
}

int cmd_client(const Opts& o) {
  const auto port = static_cast<u16>(o.num("port"));
  const auto bodies = read_lines(o.get("bodies"));
  const auto expect = read_lines(o.get("expect"));
  if (bodies.size() != expect.size())
    throw std::runtime_error("bodies/expect size mismatch");
  std::vector<std::vector<i32>> streams;
  for (const std::string& line : read_lines(o.get("streams"))) {
    std::istringstream in(line);
    std::vector<i32> s;
    for (i32 v; in >> v;) {
      if (v < 0 || static_cast<std::size_t>(v) >= bodies.size())
        throw std::runtime_error("stream index out of range");
      s.push_back(v);
    }
    if (s.empty()) throw std::runtime_error("empty stream");
    streams.push_back(std::move(s));
  }
  const bool trace = !o.opt("spans").empty();
  const auto conns = static_cast<i64>(streams.size());

  const double cpu0 = cpu_seconds();
  const i64 t0 = now_ns();
  const i64 t_measure = t0 + o.num("warmup-ms") * 1000000;
  const i64 t_end = t_measure + o.num("ms") * 1000000;
  std::vector<ConnResult> results(static_cast<std::size_t>(conns));
  std::vector<std::pair<i64, i64>> marks;
  SpanLog spans;
  run_multiplexed(port, bodies, expect, streams, t_measure, t_end,
                  trace ? &spans : nullptr, results, marks);
  const i64 t_stop = now_ns();
  const double cpu = cpu_seconds() - cpu0;

  i64 attempted = 0, ok = 0, mismatch = 0, lost = 0;
  std::vector<double> lat;
  std::vector<i64> per_window(kWindows, 0);
  std::vector<std::vector<double>> window_lat(kWindows);
  const double window_ns =
      static_cast<double>(t_end - t_measure) / static_cast<double>(kWindows);
  auto window_of = [&](i64 t) {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(t - t_measure) / window_ns);
    return std::min(w, kWindows - 1);
  };
  i64 in_window = 0;
  for (const ConnResult& r : results) {
    attempted += r.attempted;
    ok += r.ok;
    mismatch += r.mismatch;
    lost += r.lost;
    lat.insert(lat.end(), r.lat_us.begin(), r.lat_us.end());
    for (std::size_t i = 0; i < r.lat_us.size(); ++i)
      window_lat[window_of(r.lat_start_ns[i])].push_back(r.lat_us[i]);
    for (const i64 done : r.done_ns) {
      if (done >= t_end) continue;
      ++in_window;
      ++per_window[window_of(done)];
    }
  }
  std::sort(lat.begin(), lat.end());
  for (std::vector<double>& w : window_lat) std::sort(w.begin(), w.end());
  const double measure_s = static_cast<double>(t_end - t_measure) / 1e9;

  write_spans(o.opt("spans"), spans);

  tp::obs::JsonValue out = tp::obs::JsonValue::object();
  out.set("attempted", tp::obs::JsonValue(attempted));
  out.set("ok", tp::obs::JsonValue(ok));
  out.set("failed", tp::obs::JsonValue(mismatch + lost));
  out.set("mismatch", tp::obs::JsonValue(mismatch));
  out.set("lost", tp::obs::JsonValue(lost));
  out.set("samples", tp::obs::JsonValue(static_cast<i64>(lat.size())));
  out.set("qps", tp::obs::JsonValue(static_cast<double>(in_window) / measure_s));
  tp::obs::JsonValue wq = tp::obs::JsonValue::array();
  for (const i64 n : per_window)
    wq.push_back(tp::obs::JsonValue(static_cast<double>(n) / (window_ns / 1e9)));
  out.set("window_qps", std::move(wq));
  tp::obs::JsonValue ws = tp::obs::JsonValue::array();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const i64 total = marks[w + 1].first - marks[w].first;
    const i64 steal = marks[w + 1].second - marks[w].second;
    ws.push_back(tp::obs::JsonValue(
        static_cast<double>(steal) / static_cast<double>(std::max<i64>(1, total))));
  }
  out.set("window_steal", std::move(ws));
  // Percentiles: a failed request sorts last as +inf; report it as -1 so
  // the caller can tell "infinite" from a time.
  // Each percentile also per throughput window (by send time), so a
  // caller can take the median over windows.
  for (const auto& [name, q] : {std::pair<const char*, double>{"p50_us", 0.5},
                                {"p99_us", 0.99}}) {
    auto finite = [](double v) { return v >= kInf ? -1.0 : v; };
    out.set(name, tp::obs::JsonValue(finite(quantile_sorted(lat, q))));
    tp::obs::JsonValue per = tp::obs::JsonValue::array();
    for (const std::vector<double>& w : window_lat)  // none sent: a stall
      per.push_back(tp::obs::JsonValue(
          w.empty() ? -1.0 : finite(quantile_sorted(w, q))));
    out.set(std::string("window_") + name, std::move(per));
  }
  out.set("wall_s",
          tp::obs::JsonValue(static_cast<double>(t_stop - t0) / 1e9));
  out.set("cpu_s", tp::obs::JsonValue(cpu));
  std::cout << out.dump() << "\n";
  return 0;
}

// ---------------------------------------------------------------- ledger

/// Per-name samples of span durations, in ns.
using Samples = std::map<std::string, std::vector<double>>;

struct Replay {
  Samples ns;
  i64 lines = 0;
  i64 mismatches = 0;
  double req_bytes = 0;   ///< mean request line size (with '\n')
  double resp_bytes = 0;  ///< mean response line size (with '\n')
};

/// Replays `lines` through the request path of a warm in-process engine.
/// `expect` holds, per distinct body, the reference response after the id.
Replay replay_lines(const std::vector<std::string>& lines,
                    const std::vector<std::string>& bodies,
                    const std::vector<std::string>& expect, SpanLog& log) {
  namespace svc = tp::service;
  Replay out;
  std::map<std::string, std::size_t> body_index;
  for (std::size_t i = 0; i < bodies.size(); ++i) body_index[bodies[i]] = i;

  // Warm engine and a hit-only cache holding every distinct result.
  svc::EngineConfig config;
  config.threads = 2;
  svc::Engine engine(config);
  svc::PlanCache hot_cache(1024);
  std::vector<std::pair<svc::QueryKey, std::shared_ptr<const svc::QueryResult>>>
      results;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const svc::BatchRequest br =
        svc::parse_request_line(bodies[i], static_cast<i64>(i + 1));
    const svc::Response resp = engine.submit(br.request).wait();
    if (!resp.ok) throw std::runtime_error("warm-up failed: " + resp.error);
    hot_cache.put(br.request.key, resp.result);
    results.emplace_back(br.request.key, resp.result);
  }

  // At-capacity cache for puts: one entry per shard, so every put of a
  // different key evicts.
  svc::PlanCache full_cache(8);
  for (std::size_t i = 0; i < results.size(); ++i)
    full_cache.put(results[i].first, results[i].second);

  tp::net::LineBuffer framer(1 << 20);
  std::size_t put_next = 0;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string wire = lines[n] + "\n";
    const auto rid = static_cast<i64>(n + 1);
    const i64 root = log.begin("request", 0, rid);

    i64 s = log.begin("net.frame", root, rid);
    framer.feed(wire);
    const auto framed = framer.next_line();
    out.ns["net.frame"].push_back(static_cast<double>(log.end(s)));
    if (!framed || framed->text != lines[n])
      throw std::runtime_error("LineBuffer lost a line");

    s = log.begin("service.parse", root, rid);
    const svc::BatchRequest br = svc::parse_request_line(framed->text, rid);
    out.ns["service.parse"].push_back(static_cast<double>(log.end(s)));

    const svc::QueryKey& k = br.request.key;
    s = log.begin("service.key", root, rid);
    const svc::QueryKey key = svc::make_query_key(k.radices, k.t, k.router,
                                                  k.op());
    volatile u64 h = key.hash();
    (void)h;
    out.ns["service.key"].push_back(static_cast<double>(log.end(s)));

    s = log.begin("service.cache_get", root, rid);
    const auto cached = hot_cache.get(key);
    out.ns["service.cache_get"].push_back(static_cast<double>(log.end(s)));
    if (!cached) throw std::runtime_error("hot cache missed " + key.str());

    s = log.begin("service.submit_hit", root, rid);
    const svc::Response resp = engine.submit(br.request).wait();
    out.ns["service.submit_hit"].push_back(static_cast<double>(log.end(s)));

    s = log.begin("service.render", root, rid);
    const std::string rendered = svc::response_to_json(br.id, resp).dump();
    out.ns["service.render"].push_back(static_cast<double>(log.end(s)));
    log.end(root);

    const auto& [put_key, put_result] = results[put_next];
    put_next = (put_next + 1) % results.size();
    s = log.begin("service.cache_put", 0, 0);
    full_cache.put(put_key, put_result);
    out.ns["service.cache_put"].push_back(static_cast<double>(log.end(s)));

    // Correctness: the rendered line must equal the reference.
    const std::size_t comma = lines[n].find(',');
    const std::string body = "{" + lines[n].substr(comma + 1);
    const auto it = body_index.find(body);
    const std::string want =
        it == body_index.end()
            ? std::string()
            : "{\"id\":" + std::to_string(rid) + "," + expect[it->second];
    if (rendered != want) ++out.mismatches;
    out.req_bytes += static_cast<double>(wire.size());
    out.resp_bytes += static_cast<double>(rendered.size() + 1);
    ++out.lines;
  }
  if (out.lines > 0) {
    out.req_bytes /= static_cast<double>(out.lines);
    out.resp_bytes /= static_cast<double>(out.lines);
  }
  return out;
}

constexpr i64 kEchoIters = 5000;  ///< loopback echo round trips

bool read_exact(tp::net::Socket& s, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const i64 r = s.read_some(buf + got, n - got);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// Round trip of `req` bytes out and `resp` bytes back over a src/net
/// socket pair on 127.0.0.1: the syscall floor under one request.
std::vector<double> loopback_rtt_us(std::size_t req, std::size_t resp,
                                    i64 iters, SpanLog& log) {
  tp::net::Listener listener("127.0.0.1", 0);
  std::thread echo([&listener, req, resp] {
    tp::net::Socket peer = listener.accept_connection();
    std::vector<char> in(req), out(resp, 'x');
    while (read_exact(peer, in.data(), req))
      if (!peer.write_all(out.data(), resp)) break;
  });
  tp::net::Socket sock = tp::net::connect_to("127.0.0.1", listener.port());
  std::vector<char> out(req, 'y'), in(resp);
  std::vector<double> rtt;
  for (i64 i = 0; i < iters; ++i) {
    const i64 s = log.begin("net.loopback", 0, 0);
    const bool ok = sock.write_all(out.data(), req) &&
                    read_exact(sock, in.data(), resp);
    const i64 ns = log.end(s);
    if (!ok) throw std::runtime_error("loopback echo failed");
    rtt.push_back(static_cast<double>(ns) / 1e3);
  }
  sock.close();
  echo.join();
  return rtt;
}

struct Compute {
  std::map<std::string, double> us;  ///< summed per layer
  i64 pairs = 0;
  i64 paper_checked = 0;  ///< measured keys (the paper check's base)
  i64 paper_violations = 0;
  i64 paper_known_defects = 0;  ///< see known_defect()
};

/// The planner's known defect and nothing else: for ODR, t=1, d>=3 it
/// reports the paper's Sec. 6.1 interior-link count as an exact prediction,
/// while the measured E_max is the overall maximum floor(k/2) k^(d-2)
/// (EXPERIMENTS.md, E7).  Both must match exactly.  Twin of check.py's.
bool known_defect(const tp::service::QueryKey& key,
                  const tp::PlacementPlan& plan, double emax) {
  const i64 d = static_cast<i64>(key.radices.size());
  if (key.router != tp::RouterKind::Odr || key.t != 1 || d < 3 ||
      !plan.prediction_exact)
    return false;
  const i64 k = key.radices[0];
  auto pow = [k](i64 e) {
    i64 r = 1;
    for (i64 i = 0; i < e; ++i) r *= k;
    return static_cast<double>(r);
  };
  const double interior = k % 2 == 0 ? pow(d - 1) / 8.0 + pow(d - 2) / 4.0
                                     : pow(d - 1) / 8.0 - pow(d - 3) / 8.0;
  return plan.predicted_emax == interior &&
         emax == static_cast<double>(k / 2) * pow(d - 2);
}

/// Times the compute layers per distinct key, as compute_query calls them.
Compute compute_layers(const std::vector<std::string>& keys, SpanLog& log) {
  namespace svc = tp::service;
  Compute out;
  for (const char* name :
       {"core.plan", "load.odr", "load.udr", "load.adaptive", "bounds.all",
        "bounds.slab"})
    out.us[name] = 0.0;
  i64 rid = 1000000;  // request ids apart from the replay's 1..n
  for (const std::string& body : keys) {
    const svc::BatchRequest br = svc::parse_request_line(body, 1);
    const svc::QueryKey& key = br.request.key;
    const tp::Torus torus(key.radices);
    ++rid;
    const i64 root = log.begin("query", 0, rid);
    i64 s = log.begin("core.plan", root, rid);
    const tp::PlacementPlan plan =
        tp::plan_placement(torus, key.t, key.router);
    out.us["core.plan"] += static_cast<double>(log.end(s)) / 1e3;
    if (key.measure) {
      const char* name = key.router == tp::RouterKind::Odr   ? "load.odr"
                         : key.router == tp::RouterKind::Udr ? "load.udr"
                                                             : "load.adaptive";
      s = log.begin(name, root, rid);
      const tp::LoadMap loads =
          tp::measure_loads(torus, plan.placement, key.router);
      out.us[name] += static_cast<double>(log.end(s)) / 1e3;
      out.pairs += plan.placement.size() * plan.placement.size();
      const double emax = loads.max_load();
      ++out.paper_checked;
      const bool defect = known_defect(key, plan, emax);
      if ((plan.prediction_exact && emax != plan.predicted_emax &&
           !defect) ||
          emax < plan.lower_bound)
        ++out.paper_violations;
      if (defect) ++out.paper_known_defects;
    }
    if (key.bounds) {
      s = log.begin("bounds.all", root, rid);
      (void)tp::all_bounds(torus, plan.placement);
      out.us["bounds.all"] += static_cast<double>(log.end(s)) / 1e3;
      if (plan.placement.size() >= 2) {
        s = log.begin("bounds.slab", root, rid);
        (void)tp::best_slab_bound(torus, plan.placement);
        out.us["bounds.slab"] += static_cast<double>(log.end(s)) / 1e3;
      }
    }
    log.end(root);
  }
  return out;
}

struct Offline {
  double anneal_us = 0;
  i64 anneal_evaluated = 0;
  double sim_us = 0;
  i64 sim_cycles = 0;
  double resilience_us = 0;
};

/// The in-process halves of the cli_offline commands, with the same
/// parameters: optimize --d 2 --k 12 --router udr --iters 5000 --seed S;
/// simulate --d 3 --k 8 --t 2 --router odr --seed S; resilience --d 2
/// --k 8 --t 2 --seed S (default rates, all three routers).
Offline offline_layers(u64 seed, SpanLog& log) {
  Offline out;
  {
    const tp::Torus torus(2, 12);
    const i64 s = log.begin("core.anneal", 0, 0);
    const tp::SearchResult r =
        tp::anneal_placement(torus, 12, tp::RouterKind::Udr, 5000, seed);
    out.anneal_us = static_cast<double>(log.end(s)) / 1e3;
    out.anneal_evaluated = r.evaluated;
  }
  {
    const tp::Torus torus(3, 8);
    const tp::Placement p = tp::multiple_linear_placement(torus, 2);
    const auto router = tp::make_router(tp::RouterKind::Odr);
    const auto traffic = tp::complete_exchange_traffic(torus, p, *router, seed);
    tp::NetworkSim sim(torus);
    const i64 s = log.begin("simulate.run", 0, 0);
    const tp::SimMetrics m = sim.run(traffic.messages);
    out.sim_us = static_cast<double>(log.end(s)) / 1e3;
    out.sim_cycles = m.cycles;
  }
  {
    const tp::Torus torus(2, 8);
    const tp::Placement p = tp::multiple_linear_placement(torus, 2);
    tp::ResilienceConfig config;
    config.traffic_seed = seed;
    config.schedule_seed = seed * 2 + 5;
    config.recovery_seed = seed * 3 + 7;
    const std::vector<double> rates = {0, 0.0002, 0.0005, 0.001, 0.002};
    const i64 s = log.begin("analysis.resilience", 0, 0);
    for (tp::RouterKind kind : {tp::RouterKind::Odr, tp::RouterKind::Udr,
                                tp::RouterKind::Adaptive}) {
      const auto router = tp::make_router(kind);
      (void)tp::resilience_sweep(torus, p, *router, rates, config);
    }
    out.resilience_us = static_cast<double>(log.end(s)) / 1e3;
  }
  return out;
}

/// Submits every key at once to a fresh two-worker engine (as `sweep` does)
/// and reads the engine's own counters and per-request spans.
tp::obs::JsonValue engine_stats(const std::vector<std::string>& keys) {
  namespace svc = tp::service;
  svc::EngineConfig config;
  config.threads = 2;
  config.slow_log_capacity = keys.size();  // keep every request's span
  svc::Engine engine(config);
  std::vector<svc::Engine::Ticket> tickets;
  for (std::size_t i = 0; i < keys.size(); ++i)
    tickets.push_back(engine.submit(
        svc::parse_request_line(keys[i], static_cast<i64>(i + 1)).request));
  i64 failed = 0;
  for (svc::Engine::Ticket& t : tickets)
    if (!t.wait().ok) ++failed;
  const svc::EngineStats st = engine.stats();
  std::vector<double> queue_us, compute_us;
  for (const svc::RequestSpan& span : engine.slowest_requests()) {
    queue_us.push_back(static_cast<double>(span.queue_us));
    compute_us.push_back(static_cast<double>(span.compute_us));
  }
  tp::obs::JsonValue out = tp::obs::JsonValue::object();
  out.set("requests", tp::obs::JsonValue(st.requests));
  out.set("cache_hits", tp::obs::JsonValue(st.cache_hits));
  out.set("coalesced", tp::obs::JsonValue(st.coalesced));
  out.set("failed", tp::obs::JsonValue(failed));
  for (auto& [name, v] : {std::pair{"service.queue_wait_us", &queue_us},
                          std::pair{"service.compute_us", &compute_us}}) {
    std::sort(v->begin(), v->end());
    tp::obs::JsonValue hj = tp::obs::JsonValue::object();
    hj.set("p50", tp::obs::JsonValue(quantile_sorted(*v, 0.5)));
    hj.set("p99", tp::obs::JsonValue(quantile_sorted(*v, 0.99)));
    out.set(name, std::move(hj));
  }
  return out;
}

int cmd_ledger(const Opts& o) {
  const auto lines = read_lines(o.get("lines"));
  const auto bodies = read_lines(o.get("bodies"));
  const auto expect = read_lines(o.get("expect"));
  const auto cold_keys = read_lines(o.get("cold-keys"));
  const auto seed = static_cast<u64>(o.num("seed"));

  SpanLog log;
  const Replay replay = replay_lines(lines, bodies, expect, log);
  const std::vector<double> rtt =
      loopback_rtt_us(static_cast<std::size_t>(replay.req_bytes + 0.5),
                      static_cast<std::size_t>(replay.resp_bytes + 0.5),
                      kEchoIters, log);
  const Compute compute = compute_layers(cold_keys, log);
  const Offline offline = offline_layers(seed, log);

  tp::obs::JsonValue out = tp::obs::JsonValue::object();
  tp::obs::JsonValue med = tp::obs::JsonValue::object();
  for (const auto& [name, v] : replay.ns)
    med.set(name + "_ns", tp::obs::JsonValue(median(v)));
  med.set("net.loopback_rtt_us", tp::obs::JsonValue(median(rtt)));
  out.set("median", std::move(med));
  tp::obs::JsonValue sums = tp::obs::JsonValue::object();
  for (const auto& [name, us] : compute.us)
    sums.set(name + "_us", tp::obs::JsonValue(us));
  sums.set("load.pairs", tp::obs::JsonValue(compute.pairs));
  sums.set("core.anneal_us", tp::obs::JsonValue(offline.anneal_us));
  sums.set("core.anneal_evaluated",
           tp::obs::JsonValue(offline.anneal_evaluated));
  sums.set("simulate.run_us", tp::obs::JsonValue(offline.sim_us));
  sums.set("simulate.cycles", tp::obs::JsonValue(offline.sim_cycles));
  sums.set("analysis.resilience_us",
           tp::obs::JsonValue(offline.resilience_us));
  out.set("sum", std::move(sums));
  out.set("lines", tp::obs::JsonValue(replay.lines));
  out.set("mismatches", tp::obs::JsonValue(replay.mismatches));
  out.set("paper_checked", tp::obs::JsonValue(compute.paper_checked));
  out.set("paper_violations", tp::obs::JsonValue(compute.paper_violations));
  out.set("paper_known_defects",
          tp::obs::JsonValue(compute.paper_known_defects));
  out.set("req_bytes", tp::obs::JsonValue(replay.req_bytes));
  out.set("resp_bytes", tp::obs::JsonValue(replay.resp_bytes));
  const std::string engine_keys = o.opt("engine-keys");
  if (!engine_keys.empty())
    out.set("engine", engine_stats(read_lines(engine_keys)));
  write_spans(o.opt("spans"), log);
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const Opts o = parse_opts(argc, argv);
    if (cmd == "client") return cmd_client(o);
    if (cmd == "ledger") return cmd_ledger(o);
    std::cerr << "usage: tpbench_native client|ledger --opt value ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "tpbench_native: " << e.what() << "\n";
    return 1;
  }
}

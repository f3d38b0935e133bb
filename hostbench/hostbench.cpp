// hostbench: host-side throughput of the emusim library on three named
// workloads, measured from outside through the library's public entry
// points (see README.md beside this file for the metric definitions).
//
//   hostbench --workload emu_chase_1024|xeon_chase|irregular_rw
//             --seed N --seconds S --trace 0|1 [--size full|tiny]
//             [--trace-file PATH]
//   hostbench --selftest
//
// A run repeats *passes* -- one pass is the workload's full set of calls --
// until S seconds have gone by (at least kMinPasses after a warm-up pass),
// and reports medians over the passes after the warm-up.  Every call's own `verified` flag feeds the failure tally,
// and every pass must reproduce the first pass's model digest exactly.
//
// Every timing here is host time (steady_clock), host CPU (getrusage) or
// host memory; simulated results appear only as exact counts and in the
// model digest.  With --trace 1, spans around each public call are kept in
// memory and written to --trace-file when the run ends; traced and untraced
// passes alternate so the tracing overhead is measured within one run.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "emu/config.hpp"
#include "emu/machine.hpp"
#include "graph/stream_graph.hpp"
#include "kernels/chase_common.hpp"
#include "kernels/chase_scale.hpp"
#include "kernels/chase_xeon.hpp"
#include "mem/dram.hpp"
#include "serve/request_gen.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "xeon/cache.hpp"
#include "xeon/config.hpp"

namespace {

using namespace emusim;
using Clock = std::chrono::steady_clock;

/// Engine worker threads for the Emu calls of irregular_rw: the host has 4
/// cores, and the 2-node serve call must keep running threaded so its known
/// slowdown at 4 threads stays visible.
constexpr int kEngineThreads = 4;
/// Engine worker threads for emu_chase_1024.  Its windows wait for the
/// slowest worker, so on a shared host whose vCPUs are preempted at random
/// its wall time at 4 threads swings by up to 2.8x between runs; 2 threads
/// still run the parallel engine and leave the host slack.
constexpr int kChaseEngineThreads = 2;
constexpr int kMinPasses = 3;

const Clock::time_point kStart = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

/// CPU seconds of the calling thread alone.
double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// Peak resident set of this process image in MB.  VmHWM, unlike
/// ru_maxrss, does not carry over the peak of the launcher that exec'd us.
double peak_rss_mb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

template <class T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// --- metrics -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with tracing off; BENCHMARK.json lists the same names and units.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s"},
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Printed with tracing on.  Host times are per pass (the workload's full
/// set of calls); counts are exact per pass.  A layer a workload bypasses
/// reads 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.windows", "count"},
    {"sim.events_per_window", "count"},
    {"emu.setup_ms", "ms"},
    {"emu.run_ms", "ms"},
    {"emu.teardown_ms", "ms"},
    {"emu.migrations", "count"},
    {"emu.remote_spawns", "count"},
    {"mem.channel_bytes", "B"},
    {"emu.peak_host_bytes", "B"},
    {"kernels.build_list_ms", "ms"},
    {"xeon.call_ms", "ms"},
    {"xeon.llc_hit_rate", "ratio"},
    {"xeon.row_hit_rate", "ratio"},
    {"serve.gen_ms", "ms"},
    {"graph.gen_ms", "ms"},
    {"serve.emu_ms", "ms"},
    {"serve.emu2_ms", "ms"},
    {"serve.xeon_ms", "ms"},
    {"graph.emu_ms", "ms"},
    {"graph.xeon_ms", "ms"},
    {"serve.sim_p99_us", "us"},
    {"graph.new_edges", "count"},
    {"sim.fifo_post_ns", "ns"},
    {"mem.dram_access_ns", "ns"},
    {"xeon.llc_lookup_ns", "ns"},
    {"sim.coroutine_hop_ns", "ns"},
    {"bench.self_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

// --- failure accounting ------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool verified) {
    ++attempted;
    if (!verified) ++failed;
  }
  double failed_share() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

// --- model digest ------------------------------------------------------------

/// FNV-1a over the exact simulated counts of one pass.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;  ///< seconds since process start
  double end = 0;
  int parent = -1;  ///< index into the span log, -1 for a root
  int call = -1;    ///< per-call id shared by a call and its machine span
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

class SpanLog {
 public:
  bool on = false;

  int add(std::string name, double start, double end, int parent, int call) {
    if (!on) return -1;
    spans_.push_back(Span{std::move(name), start, end, parent, call});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, double end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// --- machine lifetime probe --------------------------------------------------

/// Everything read at Machine boundaries during one call.
struct MachineSample {
  int machines = 0;
  double created = 0;   ///< first machine_created
  double finished = 0;  ///< last machine_finished
  std::uint64_t windows = 0;
  std::uint64_t migrations = 0;
  std::uint64_t remote_spawns = 0;
  std::uint64_t channel_bytes = 0;
};

class Probe final : public emu::MachineObserver {
 public:
  void machine_created(emu::Machine&) override {
    if (s_.machines++ == 0) s_.created = now_s();
  }
  void machine_finished(emu::Machine& m, Time) override {
    s_.finished = now_s();
    s_.windows += m.engines().outer_windows();
    s_.migrations += m.stats.migrations;
    s_.remote_spawns += m.stats.remote_spawns;
    for (int i = 0; i < m.num_nodelets(); ++i) {
      const auto& st = m.nodelet(i).stats;
      s_.channel_bytes += st.read_bytes + st.write_bytes;
    }
  }
  MachineSample take() { return std::exchange(s_, MachineSample{}); }

 private:
  MachineSample s_;
};

// --- host-speed reference ----------------------------------------------------

/// The host is a shared VM whose per-core speed drifts by 20-40% over
/// minutes, and every end-to-end time drifts with it.  A reference run is a
/// fixed piece of host work that uses no emusim code: copy 2^16 pseudo-random
/// words and std::sort them, three times.  One runs before every measured
/// call and one at the end of every pass, outside the timed intervals, and
/// its cost is the CPU time of its own thread, so neither other threads'
/// CPU nor time spent descheduled counts.  A pass's end-to-end times are
/// scaled by kReferenceS / (the median reference cost of that pass); they
/// then read as host time at the per-core speed where the reference costs
/// exactly kReferenceS, about what it costs on the 4-vCPU 2.1 GHz Xeon VM
/// the benchmark was defined on.
constexpr double kReferenceS = 0.0125;

class Reference {
 public:
  Reference() : src_(kWords), dst_(kWords) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto& w : src_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
  }
  void run() {
    for (int rep = 0; rep < 3; ++rep) {
      std::copy(src_.begin(), src_.end(), dst_.begin());
      std::sort(dst_.begin(), dst_.end());
      keep(dst_[static_cast<std::size_t>(rep)]);
    }
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 16;
  std::vector<std::uint64_t> src_;
  std::vector<std::uint64_t> dst_;
};

// --- one pass's measurements -------------------------------------------------

struct Pass {
  bool traced = false;
  bool warmup = false;  ///< checked like every pass, left out of the medians
  double call_s = 0;  ///< host seconds inside measured calls
  double cpu_s = 0;   ///< process CPU seconds inside measured calls
  double setup_s = 0;
  std::uint64_t ops = 0;
  std::vector<double> ref_s;  ///< reference runs' thread CPU seconds
  /// Per-layer values of this pass, keyed by kPerLayer name, plus the
  /// sums the derived rates are computed from.
  std::map<std::string, double> layer;
  Digest digest;
  bool checks_ok = true;  ///< cross-call agreement checks
  int span = -1;

  void check(bool ok, const char* what) {
    if (!ok) std::printf("check failed: %s\n", what);
    checks_ok = checks_ok && ok;
  }
  double value(const std::string& key) const {
    const auto it = layer.find(key);
    return it == layer.end() ? 0.0 : it->second;
  }
  /// The factor that scales this pass's times to the reference speed (see
  /// Reference).
  double scale() const { return kReferenceS / median(ref_s); }
  /// End-to-end values at the reference speed; raw_ops_per_s is unscaled.
  double raw_ops_per_s() const {
    return call_s > 0 ? static_cast<double>(ops) / call_s : 0.0;
  }
  double ops_per_s() const { return raw_ops_per_s() / scale(); }
  double cpu_us_per_op() const {
    return ops ? 1e6 * cpu_s * scale() / static_cast<double>(ops) : 0.0;
  }
  double scaled_setup_s() const { return setup_s * scale(); }
  /// Rates derived from this pass's sums, filled in when the pass ends.
  void derive() {
    const double run_s = value("sim.run_s");
    const double windows = value("sim.windows");
    layer["sim.events_per_s"] = run_s > 0 ? value("sim.events") / run_s : 0.0;
    layer["sim.events_per_window"] =
        windows > 0 ? value("sim.windowed_events") / windows : 0.0;
  }
};

class Runner {
 public:
  Runner(SpanLog& log, Tally& tally) : log_(log), tally_(tally) {
    prev_ = emu::set_machine_observer(&probe_);
  }
  ~Runner() { emu::set_machine_observer(prev_); }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  Pass& begin_pass(const std::string& workload, bool traced) {
    passes_.emplace_back();
    Pass& p = passes_.back();
    p.traced = traced;
    log_.on = traced;
    const double t = now_s();
    p.span = log_.add(workload, t, t, -1, -1);
    return p;
  }
  void end_pass() {
    Pass& p = passes_.back();
    reference();
    p.derive();
    log_.close(p.span, now_s());
    log_.on = false;
  }
  Pass& pass() { return passes_.back(); }
  const std::vector<Pass>& passes() const { return passes_; }

  /// Time a public input generator: set-up work outside the measured phase.
  /// `metric` receives the generator's host ms.
  template <class F>
  auto generate(const char* name, const char* metric, F&& f) {
    const double t0 = now_s();
    auto out = f();
    const double t1 = now_s();
    Pass& p = pass();
    p.setup_s += t1 - t0;
    p.layer[metric] += 1e3 * (t1 - t0);
    log_.add(name, t0, t1, p.span, next_call_++);
    return out;
  }

  /// Run one measured public call.  `ops` counts toward throughput only if
  /// the result is verified.  `metric` (optional) receives the call's host
  /// ms.  Emu calls are split at the machine boundaries into set-up, run
  /// and teardown.
  template <class F>
  auto call(const char* name, std::uint64_t ops, const char* metric, F&& f) {
    reference();
    emu::take_run_telemetry();
    const int id = next_call_++;
    const double c0 = cpu_s();
    const double t0 = now_s();
    auto r = f();
    const double t1 = now_s();
    const double c1 = cpu_s();
    const MachineSample ms = probe_.take();
    const emu::RunTelemetry tel = emu::take_run_telemetry();

    Pass& p = pass();
    tally_.record(r.verified);
    p.call_s += t1 - t0;
    p.cpu_s += c1 - c0;
    if (r.verified) p.ops += ops;
    if (metric != nullptr) p.layer[metric] += 1e3 * (t1 - t0);
    const int span = log_.add(name, t0, t1, p.span, id);

    p.digest.add(static_cast<std::uint64_t>(r.verified));
    p.digest.add(tel.engine_events);
    p.layer["sim.events"] += static_cast<double>(tel.engine_events);
    p.layer["emu.peak_host_bytes"] =
        std::max(p.layer["emu.peak_host_bytes"],
                 static_cast<double>(tel.peak_host_bytes));
    if (ms.machines > 0) {
      log_.add("emu.machine", ms.created, ms.finished, span, id);
      p.setup_s += ms.created - t0;
      p.layer["emu.setup_ms"] += 1e3 * (ms.created - t0);
      p.layer["emu.run_ms"] += 1e3 * (ms.finished - ms.created);
      p.layer["emu.teardown_ms"] += 1e3 * (t1 - ms.finished);
      p.layer["sim.run_s"] += ms.finished - ms.created;
      p.layer["sim.windows"] += static_cast<double>(ms.windows);
      if (ms.windows > 0) {
        p.layer["sim.windowed_events"] +=
            static_cast<double>(tel.engine_events);
      }
      p.layer["emu.migrations"] += static_cast<double>(ms.migrations);
      p.layer["emu.remote_spawns"] += static_cast<double>(ms.remote_spawns);
      p.layer["mem.channel_bytes"] += static_cast<double>(ms.channel_bytes);
      p.digest.add(ms.migrations);
      p.digest.add(ms.remote_spawns);
      p.digest.add(ms.channel_bytes);
    }
    return r;
  }

 private:
  /// One untimed reference run, recorded in the current pass.
  void reference() {
    const double t0 = now_s();
    const double c0 = thread_cpu_s();
    ref_.run();
    const double c1 = thread_cpu_s();
    const double t1 = now_s();
    Pass& p = pass();
    p.ref_s.push_back(c1 - c0);
    log_.add("bench.reference", t0, t1, p.span, -1);
  }

  SpanLog& log_;
  Tally& tally_;
  Probe probe_;
  Reference ref_;
  emu::MachineObserver* prev_ = nullptr;
  std::vector<Pass> passes_;
  int next_call_ = 0;
};

// --- workloads ---------------------------------------------------------------

struct Sizes {
  int chase_nodelets;
  std::size_t chase_n;
  std::uint64_t chase_elems_per_thread;
  std::size_t xeon_n;
  std::vector<std::size_t> xeon_blocks;
  std::vector<int> xeon_threads;
  std::size_t serve_requests;
  std::size_t graph_vertices;
  std::size_t graph_inserts;
};

const Sizes kFull{1024,
                  std::size_t{1} << 24,
                  4096,
                  std::size_t{1} << 21,
                  {1, 64, 1024, 16384},
                  {4, 32},
                  std::size_t{1} << 16,
                  4096,
                  std::size_t{1} << 15};

/// Smoke size: the same calls on inputs small enough to finish in seconds.
const Sizes kTiny{64,
                  std::size_t{1} << 16,
                  256,
                  std::size_t{1} << 14,
                  {1, 64},
                  {4, 32},
                  std::size_t{1} << 10,
                  256,
                  std::size_t{1} << 10};

void pass_emu_chase(Runner& run, const Sizes& z, std::uint64_t seed) {
  const auto cfg = emu::SystemConfig::chick_fullspeed_nx(z.chase_nodelets);
  for (const bool shuffled : {false, true}) {
    kernels::ChaseScaleParams p;
    p.n = z.chase_n;
    p.block = 64;
    p.threads = 4 * z.chase_nodelets;
    p.elems_per_thread = z.chase_elems_per_thread;
    p.shuffled = shuffled;
    p.seed = seed;
    const auto ops = static_cast<std::uint64_t>(p.threads) * p.elems_per_thread;
    const auto r = run.call(
        shuffled ? "kernels.run_chase_scale.shuf"
                 : "kernels.run_chase_scale.seq",
        ops, nullptr, [&] { return kernels::run_chase_scale(cfg, p); });
    Pass& ps = run.pass();
    ps.digest.add(static_cast<std::uint64_t>(r.elapsed));
    ps.digest.add(r.migrations);
  }
}

void pass_xeon_chase(Runner& run, const Sizes& z, std::uint64_t seed) {
  const auto cfg = xeon::SystemConfig::sandy_bridge();
  double llc_sum = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  int calls = 0;
  for (const std::size_t block : z.xeon_blocks) {
    for (const int threads : z.xeon_threads) {
      kernels::ChaseXeonParams p;
      p.n = z.xeon_n;
      p.block = block;
      p.threads = threads;
      p.mode = kernels::ShuffleMode::full_block_shuffle;
      p.seed = seed;
      const double t0 = now_s();
      const auto list = run.generate(
          "kernels.build_chase_list", "kernels.build_list_ms", [&] {
            return kernels::build_chase_list(p.n, p.block, p.threads, p.mode,
                                              p.seed);
          });
      const double build_s = now_s() - t0;
      const auto r = run.call("kernels.run_chase_xeon", p.n, "xeon.call_ms",
                              [&] { return kernels::run_chase_xeon(cfg, p); });
      Pass& ps = run.pass();
      ps.check(list.next.size() == p.n, "build_chase_list built n elements");
      ps.layer["xeon.call_ms"] -= 1e3 * build_s;
      ps.digest.add(static_cast<std::uint64_t>(r.elapsed));
      ps.digest.add(r.llc_hit_rate);
      ps.digest.add(r.row_hits);
      ps.digest.add(r.row_misses);
      llc_sum += r.llc_hit_rate;
      row_hits += r.row_hits;
      row_misses += r.row_misses;
      ++calls;
    }
  }
  Pass& ps = run.pass();
  ps.layer["xeon.llc_hit_rate"] = llc_sum / calls;
  ps.layer["xeon.row_hit_rate"] =
      row_hits + row_misses
          ? static_cast<double>(row_hits) /
                static_cast<double>(row_hits + row_misses)
          : 0.0;
}

void pass_irregular(Runner& run, const Sizes& z, std::uint64_t seed) {
  serve::ServeParams sp;
  sp.stream.process = serve::Arrival::zipf;
  sp.stream.zipf_theta = 0.99;
  sp.stream.requests = z.serve_requests;
  sp.stream.seed = seed;
  const auto stream =
      run.generate("serve.generate_stream", "serve.gen_ms",
                   [&] { return serve::generate_stream(sp.stream); });

  graph::StreamParams gp;
  gp.num_vertices = z.graph_vertices;
  gp.inserts = z.graph_inserts;
  gp.epochs = 4;
  gp.dist = graph::EdgeDist::rmat;
  gp.seed = seed;
  const auto work =
      run.generate("graph.make_stream_workload", "graph.gen_ms",
                   [&] { return graph::make_stream_workload(gp); });
  std::uint64_t graph_ops = work.inserts.size();
  for (std::size_t e = 0; e < work.epochs; ++e) {
    graph_ops += work.degree_queries[e].size() + work.bfs_sources[e].size();
  }

  Pass& ps = run.pass();
  const std::uint64_t serve_ops = stream.size();
  const auto emu_cfg = emu::SystemConfig::chick_hw();
  const auto emu2_cfg = emu::SystemConfig::fullspeed_multinode(2);
  const auto xeon_cfg = xeon::SystemConfig::sandy_bridge();

  auto serve_one = [&](const char* name, const char* metric, auto&& f) {
    const serve::ServeResult r = run.call(name, serve_ops, metric, f);
    ps.check(r.ops == serve_ops, "a serve call served every request");
    ps.digest.add(static_cast<std::uint64_t>(r.elapsed));
    ps.digest.add(r.ops);
    ps.digest.add(r.hits);
    ps.digest.add(r.added);
    ps.digest.add(r.scanned);
    ps.digest.add(static_cast<std::uint64_t>(r.lat.overall().p99()));
    return r;
  };
  const auto s1 = serve_one("serve.serve_emu", "serve.emu_ms",
                            [&] { return serve::serve_emu(emu_cfg, sp); });
  const auto s2 = serve_one("serve.serve_emu.2node", "serve.emu2_ms",
                            [&] { return serve::serve_emu(emu2_cfg, sp); });
  const auto s3 = serve_one("serve.serve_xeon", "serve.xeon_ms",
                            [&] { return serve::serve_xeon(xeon_cfg, sp); });
  // One stream, three backends: the same lookups hit and the same inserts
  // add keys.  (Scan lengths depend on how inserts interleave, so they may
  // differ.)
  for (const auto* r : {&s2, &s3}) {
    ps.check(r->hits == s1.hits, "serve backends agree on lookup hits");
    ps.check(r->added == s1.added, "serve backends agree on added keys");
  }
  ps.layer["serve.sim_p99_us"] =
      static_cast<double>(s1.lat.overall().p99()) / kMicrosecond;

  auto graph_one = [&](const char* name, const char* metric, auto&& f) {
    const graph::StreamResult r = run.call(name, graph_ops, metric, f);
    ps.check(r.inserts + r.degree_queries + r.bfs_queries == graph_ops,
             "a graph call ran every op of the generated workload");
    ps.digest.add(static_cast<std::uint64_t>(r.elapsed));
    ps.digest.add(r.new_edges);
    ps.digest.add(r.migrations);
    return r;
  };
  const auto g1 = graph_one("graph.stream_emu", "graph.emu_ms",
                            [&] { return graph::stream_emu(emu_cfg, gp); });
  const auto g2 = graph_one("graph.stream_xeon", "graph.xeon_ms",
                            [&] { return graph::stream_xeon(xeon_cfg, gp); });
  ps.check(g1.new_edges == g2.new_edges, "graph backends agree on new edges");
  ps.layer["graph.new_edges"] = static_cast<double>(g1.new_edges);
}

struct Workload {
  const char* name;
  void (*pass)(Runner&, const Sizes&, std::uint64_t);
  int engine_threads;  ///< xeon_chase makes no Emu calls
};

constexpr Workload kWorkloads[] = {
    {"emu_chase_1024", pass_emu_chase, kChaseEngineThreads},
    {"xeon_chase", pass_xeon_chase, kEngineThreads},
    {"irregular_rw", pass_irregular, kEngineThreads},
};

// --- unit costs from direct calls on synthetic inputs ------------------------

sim::Task hop_task(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(ns(1));
}

/// Median over repetitions of host ns per operation of `body(n)`.
template <class F>
double unit_ns(int n, F&& body) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    body(n);
    reps.push_back(1e9 * (now_s() - t0) / n);
  }
  return median(reps);
}

void unit_costs(std::map<std::string, double>& out) {
  constexpr int kN = 1 << 20;
  out["sim.fifo_post_ns"] = unit_ns(kN, [](int n) {
    sim::Engine eng;
    sim::FifoServer srv(eng);
    for (int i = 0; i < n; ++i) keep(srv.post(ns(5)));
  });
  out["mem.dram_access_ns"] = unit_ns(kN, [](int n) {
    sim::Engine eng;
    mem::DramChannel ch(eng, mem::DramTiming::ddr3_1600());
    std::uint64_t addr = 0;
    for (int i = 0; i < n; ++i) {
      keep(ch.access(addr, 64, (i & 3) == 0));
      addr += 7919 * 64;
    }
  });
  xeon::SetAssocCache cache(1 << 20, 16, 64);
  for (std::uint64_t a = 0; a < (1 << 19); a += 64) cache.insert(a, 0, false);
  out["xeon.llc_lookup_ns"] = unit_ns(kN, [&cache](int n) {
    std::uint64_t addr = 0;
    for (int i = 0; i < n; ++i) {
      keep(cache.lookup(addr));
      addr = (addr + 4096 + 64) & ((1 << 19) - 1);
    }
  });
  out["sim.coroutine_hop_ns"] = unit_ns(kN, [](int n) {
    sim::Engine eng;
    auto t = hop_task(eng, n);
    t.start();
    keep(eng.run());
  });
}

// --- run stamp ---------------------------------------------------------------

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

// --- output ------------------------------------------------------------------

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(bool correct, const Tally& tally,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

void print_metric(const MetricDef& m, double v) {
  std::printf("metric %-24s %.17g %s\n", m.name, v, m.unit);
}

bool write_trace(const std::string& path, const char* workload,
                 std::uint64_t seed, const std::vector<Span>& spans,
                 const std::vector<double>& self) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload, static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"self_us\": %.3f, \"parent\": %d, "
                 "\"call\": %d}",
                 i ? "," : "", i, s.name.c_str(), 1e6 * s.start, 1e6 * s.end,
                 1e6 * self[i], s.parent, s.call);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- self-test ---------------------------------------------------------------

int selftest() {
  int bad = 0;
  auto expect = [&bad](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };

  // failed_share: an unverified result fed through the same call wrapper
  // the workloads use.
  {
    SpanLog log;
    Tally tally;
    Runner run(log, tally);
    run.begin_pass("selftest", false);
    run.call("ok", 5, nullptr, [] {
      kernels::ChaseXeonResult r;
      r.verified = true;
      return r;
    });
    run.call("unverified", 5, nullptr,
             [] { return kernels::ChaseXeonResult{}; });
    run.end_pass();
    expect(tally.attempted == 2 && tally.failed == 1,
           "an unverified call counts as failed");
    expect(tally.failed_share() == 0.5, "failed_share = failed / attempted");
    expect(run.passes().back().ops == 5, "only verified calls count as ops");
  }

  // Scaling to the reference speed: a pass whose reference runs cost twice
  // kReferenceS reads half its raw times and twice its raw rate.
  {
    Pass p;
    p.call_s = 4.0;
    p.cpu_s = 6.0;
    p.setup_s = 0.5;
    p.ops = 1000000;
    p.ref_s = {3 * kReferenceS, 2 * kReferenceS, 1 * kReferenceS};
    expect(p.ops_per_s() == 2 * p.raw_ops_per_s() &&
               p.cpu_us_per_op() == 3.0 && p.scaled_setup_s() == 0.25,
           "times scale by kReferenceS / median reference cost");
  }

  // Self time: children overlapping each other, and a child running past
  // its parent, never push self time above the span's duration.
  {
    std::vector<Span> s = {
        {"root", 0.0, 10.0, -1, -1}, {"a", 1.0, 4.0, 0, 0},
        {"b", 3.0, 6.0, 0, 1},       {"c", 8.0, 12.0, 0, 2},
        {"leaf", 2.0, 3.0, 1, 0},
    };
    const auto self = self_times(s);
    bool within = true;
    for (std::size_t i = 0; i < s.size(); ++i) {
      within = within && self[i] >= 0 && self[i] <= s[i].end - s[i].start;
    }
    expect(within, "span self time never exceeds its duration");
    expect(std::fabs(self[0] - 3.0) < 1e-12, "self time subtracts the union");
    expect(std::fabs(self[1] - 2.0) < 1e-12, "self time of a nested span");
  }

  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--trace-file PATH]\n"
               "       hostbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_file;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool tiny = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || v.empty()) seconds = -1;
    } else if (a == "--trace") {
      trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") return usage();
      tiny = v == "tiny";
    } else if (a == "--trace-file") {
      trace_file = v;
    } else {
      return usage();
    }
  }
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) wl = &w;
  }
  if (wl == nullptr || !have_seed || seconds < 0 || trace < 0) return usage();

#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its default.  Left dynamic, it moves with
  // the order in which engine worker threads free large blocks, and peak RSS
  // of the same run then lands in one of two modes ~8 MB apart.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  emu::set_engine_threads(wl->engine_threads);
  std::printf("stamp workload=%s seed=%llu trace=%d size=%s nproc=%d "
              "compiler=\"%s\" build_type=%s optimized=%d engine_threads=%d\n",
              wl->name, static_cast<unsigned long long>(seed), trace,
              tiny ? "tiny" : "full", nproc(), compiler().c_str(),
              HOSTBENCH_BUILD_TYPE, kOptimized ? 1 : 0, emu::engine_threads());
  if (!kOptimized) std::printf("warning: UNOPTIMIZED BUILD\n");

  const Sizes& sizes = tiny ? kTiny : kFull;
  SpanLog log;
  Tally tally;
  Runner run(log, tally);
  const double t_begin = now_s();
  for (int i = 0; i <= kMinPasses || now_s() - t_begin < seconds; ++i) {
    // Pass 0 warms the caches, the allocator and the engine's worker pool;
    // its set-up time reads up to twice that of later passes.  After
    // it, traced runs alternate traced and untraced passes (traced first),
    // so the tracing overhead is measured under the same conditions.
    run.begin_pass(wl->name, trace == 1 && i % 2 == 1).warmup = i == 0;
    wl->pass(run, sizes, seed);
    run.end_pass();
  }

  const auto& passes = run.passes();
  bool correct = tally.failed == 0;
  for (const Pass& p : passes) {
    correct = correct && p.checks_ok &&
              p.digest.value() == passes.front().digest.value();
  }

  // Medians of f over the measured passes `use` selects.
  auto over = [&](auto&& f, auto&& use) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      if (!p.warmup && use(p)) v.push_back(f(p));
    }
    return median(v);
  };
  const auto all = [](const Pass&) { return true; };
  const auto traced = [](const Pass& p) { return p.traced; };
  const auto untraced = [](const Pass& p) { return !p.traced; };
  const auto rate = [](const Pass& p) { return p.ops_per_s(); };

  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    std::printf("pass %zu warmup=%d traced=%d ops_per_s %.6g cpu_us_per_op %.6g "
                "setup_s %.6f reference_ms %.4f raw_ops_per_s %.6g "
                "raw_cpu_s %.4f raw_setup_s %.6f digest %016llx\n",
                i, p.warmup ? 1 : 0, p.traced ? 1 : 0, p.ops_per_s(), p.cpu_us_per_op(),
                p.scaled_setup_s(), 1e3 * median(p.ref_s),
                p.raw_ops_per_s(), p.cpu_s, p.setup_s,
                static_cast<unsigned long long>(p.digest.value()));
  }
  std::printf("raw ops_per_s %.17g cpu_us_per_op %.17g setup_s %.17g "
              "reference_ms %.17g\n",
              over([](const Pass& p) { return p.raw_ops_per_s(); }, all),
              over([](const Pass& p) {
                     return p.ops ? 1e6 * p.cpu_s / static_cast<double>(p.ops)
                                  : 0.0;
                   }, all),
              over([](const Pass& p) { return p.setup_s; }, all),
              over([](const Pass& p) { return 1e3 * median(p.ref_s); },
                   all));
  std::printf("passes %zu calls %llu model_digest %016llx\n", passes.size(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(passes.front().digest.value()));
  print_metric({"failed_share", "ratio"}, tally.failed_share());

  std::vector<std::pair<MetricDef, double>> out;
  if (trace == 0) {
    const double values[] = {
        over(rate, all),
        over([](const Pass& p) { return p.cpu_us_per_op(); }, all),
        over([](const Pass& p) { return p.scaled_setup_s(); }, all),
        peak_rss_mb(),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    std::map<std::string, double> layer;
    for (const auto& m : kPerLayer) {
      layer[m.name] =
          over([&](const Pass& p) { return p.value(m.name); }, traced);
    }
    // Self time per span name, and bench.self_ms: the pass span's self time,
    // i.e. host time between the public calls.
    const auto self = self_times(log.spans());
    std::vector<double> bench_self;
    std::map<std::string, std::pair<double, int>> self_by_name;
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      if (s.parent < 0) bench_self.push_back(1e3 * self[i]);
      auto& acc = self_by_name[s.name];
      acc.first += 1e3 * self[i];
      acc.second += 1;
    }
    layer["bench.self_ms"] = median(bench_self);
    // Tracing overhead: the traced passes' ops_per_s against the untraced
    // passes' of the same run.
    const double traced_rate = over(rate, traced);
    const double untraced_rate = over(rate, untraced);
    layer["trace.overhead_pct"] =
        untraced_rate > 0
            ? 100.0 * (untraced_rate - traced_rate) / untraced_rate
            : 0.0;
    unit_costs(layer);

    for (const auto& [name, acc] : self_by_name) {
      std::printf("self_ms_per_pass %-32s %.6f (spans %d)\n", name.c_str(),
                  acc.first / static_cast<double>(bench_self.size()),
                  acc.second);
    }
    std::printf("tracing ops_per_s traced %.17g untraced %.17g\n", traced_rate,
                untraced_rate);
    for (const auto& m : kPerLayer) out.emplace_back(m, layer[m.name]);
    if (!trace_file.empty() &&
        !write_trace(trace_file, wl->name, seed, log.spans(), self)) {
      std::fprintf(stderr, "hostbench: cannot write %s\n", trace_file.c_str());
      return 1;
    }
  }
  for (const auto& [m, v] : out) print_metric(m, v);
  std::fflush(stdout);
  print_result(correct, tally, out);
  return 0;
}

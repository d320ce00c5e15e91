// Shared pieces of the perfbench driver: run configuration, the metric
// report, the in-memory span tracer, and the round loop every workload
// runs in.
//
// A run repeats one deterministic "round" of its workload (set-up, a
// closed-loop request stream, harvest, answer checks, teardown) until
// --seconds have passed. Every round replays the same seeded inputs, so
// the work per round (the Figure 2 message count) is identical and the
// per-request ratios are exact. With --trace 1 the rounds alternate
// untraced / traced: per-layer metrics come from the traced rounds only,
// and the wall-time ratio of the two kinds is the tracing overhead.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "sim/trace.h"
#include "workload/generators.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
// Operations per second; 0 when nothing was timed.
inline double Rate(double operations, double seconds) {
  return seconds > 0 ? operations / seconds : 0;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON path (traced runs only)
  // Self-test hook: "harvest" makes the net workloads fail where
  // NetDriver::Harvest would run, after the request loop. Empty in a
  // normal run.
  std::string fault;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
};

// What one run reports: the result line plus every mismatch found.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit,
           std::size_t samples);
  // Records a wrong answer; the run exits non-zero.
  void Mismatch(const std::string& what);
};

// Nearest-rank quantile of `v` (sorted in place); 0 for an empty vector.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// One traced interval. `parent` indexes the enclosing span (-1 for a
// round), `req` is the request the span belongs to (-1 for none), and
// `tid` is 0 for the driving thread, 1 for a concurrent reader.
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;
  std::int64_t req;
  int tid;
};

// Spans kept in memory and written out once at exit. Disabled tracers
// record nothing, so untraced rounds pay only the branch.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  // Records a finished span; returns its index (-1 when disabled).
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, std::int64_t req = -1, int tid = 0);
  // Opens a span whose end is set by Close (used for enclosing spans).
  int Open(const char* name, int parent);
  void Close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Appends `other`'s spans (a reader thread's private tracer).
  void Merge(const Tracer& other);

  // Share of the rounds' wall time on thread 0 that no direct child span
  // of a round covers.
  double ResidualShare() const;
  // Writes the spans (at most `cap`) in the obs::TraceEventSink format.
  bool WriteChromeTrace(const std::string& path, const std::string& workload,
                        std::size_t cap) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// Times one call into a layer: a span under `parent` when the tracer is on.
template <typename F>
auto Timed(Tracer& tracer, const char* name, int parent, F&& f,
           double* seconds = nullptr) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    const Clock::time_point t1 = Clock::now();
    tracer.Add(name, t0, t1, parent);
    if (seconds) *seconds = Seconds(t0, t1);
  } else {
    auto result = f();
    const Clock::time_point t1 = Clock::now();
    tracer.Add(name, t0, t1, parent);
    if (seconds) *seconds = Seconds(t0, t1);
    return result;
  }
}

// Runs `round(traced, round_span)` until cfg.seconds have passed (at least
// once; with tracing at least one untraced and one traced round).
// `round` returns false to end the run after a failed request or a wrong
// answer. Returns the wall time of every round, split by whether it was
// traced.
//
// With `cpus_per_round` > 0, round i runs pinned to that many of the
// allowed CPUs, starting at the i-th (mod their count), and the threads the
// round starts inherit the pinning. The host's vCPUs slow down by up to
// ~1.5x, each on its own schedule, while other tenants load them; rotating
// lets the best-of-rounds timings of a single-threaded workload see every
// vCPU. 0 leaves placement to the scheduler (the net workloads, whose
// daemon threads must not share the driver's CPU; see NetShape).
struct RoundWalls {
  std::vector<double> untraced;
  std::vector<double> traced;
  // Peak resident memory after the first round: one round's footprint in
  // a fresh process, before later rounds' heap reuse can add to it.
  double first_round_rss_mb = 0;
};
RoundWalls RunRounds(const RunConfig& cfg, Tracer& tracer,
                     int cpus_per_round,
                     const std::function<bool(bool traced, int span)>& round);

// The CPUs the calling thread may run on, and a way to change them (threads
// it starts later inherit the set).
std::vector<int> AllowedCpus();
void PinThread(const std::vector<int>& cpus);

// traced median wall / untraced median wall - 1.
double TraceOverhead(const RoundWalls& walls);

// The workload generator's sequence with every write argument rounded down
// to a whole number: every aggregate is then an exact sum whatever the
// order of addition, so answers are compared exactly.
treeagg::RequestSequence MakeRequests(const std::string& workload,
                                      const treeagg::Tree& tree,
                                      std::size_t length, std::uint64_t seed);

// Sums over the rounds whose metrics a run reports (untraced rounds for
// the end-to-end metrics, traced rounds for the per-layer ones).
struct LayerStats {
  std::size_t rounds = 0;
  std::size_t requests = 0;
  double loop_s = 0;  // wall time of the request loops
  treeagg::MessageCounts counts;
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_revokes = 0;
  double queue_hwm = 0;

  double MsgsPerReq() const;
};

// Best-of-rounds time of each operation index. Every round replays the
// same operations from the same initial state, so an operation's fastest
// repetition is its cost without interference from other work on the
// host; the spread between rounds is that interference.
class BestOfRounds {
 public:
  void Observe(std::size_t i, double us);
  // The best time of every operation observed at least once, or of the
  // first `n` operations only.
  std::vector<double> Values(
      std::size_t n = std::numeric_limits<std::size_t>::max()) const;
  double TotalSeconds() const;

 private:
  std::vector<double> best_us_;
};

// req_per_s, latency_p50_us, latency_p99_us, msgs_per_req, setup_s, rss_mb.
// `samples` is the number of timed operations behind the first three.
void AddEndToEnd(Report& report, double req_per_s, double p50_us,
                 double p99_us, std::size_t samples, const LayerStats& stats,
                 const std::vector<double>& setup_s, const RoundWalls& walls);
// core.*_per_req: Figure 2 message kinds and lease grants/revokes.
void AddCoreLayer(Report& report, const LayerStats& stats);
// residual_share and trace_overhead; writes the Chrome trace.
void AddTraceSummary(Report& report, const RunConfig& cfg,
                     const Tracer& tracer, const RoundWalls& walls);
// Largest value of the named gauge across its label sets (0 if absent).
double GaugeValue(const treeagg::obs::MetricsRegistry& registry,
                  const std::string& name);

// Workload entry points; each fills `report` with every metric of its
// trace mode (end-to-end untraced, per-layer traced).
void RunSimBig(const RunConfig& cfg, Report& report);
void RunVerify(const RunConfig& cfg, Report& report);
void RunNetSeq(const RunConfig& cfg, Report& report);
void RunNetRead(const RunConfig& cfg, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

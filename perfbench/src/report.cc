#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/trace_event.h"

namespace perfbench {
namespace {

// Peak resident set of this process, in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

void Report::Add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  if (!std::isfinite(value)) {
    Mismatch("metric " + name + " is not finite");
    value = 0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  problems.push_back(what);
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

int Tracer::Add(const char* name, Clock::time_point start,
                Clock::time_point end, int parent, std::int64_t req, int tid) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, end, parent, req, tid});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Open(const char* name, int parent) {
  const Clock::time_point now = Clock::now();
  return Add(name, now, now, parent);
}

void Tracer::Close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

void Tracer::Merge(const Tracer& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

double Tracer::ResidualShare() const {
  double window = 0;
  double covered = 0;
  for (const Span& s : spans_) {
    if (s.tid != 0) continue;
    const double dur = Seconds(s.start, s.end);
    if (s.parent < 0) {
      window += dur;
    } else if (spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
      covered += dur;
    }
  }
  return window > 0 ? std::max(0.0, 1.0 - covered / window) : 0;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& workload,
                              std::size_t cap) const {
  if (spans_.empty()) return true;
  treeagg::obs::TraceEventSink sink;
  sink.NameProcess(0, "perfbench " + workload);
  const Clock::time_point origin = spans_.front().start;
  const std::size_t n = std::min(cap, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string category = name.substr(0, name.find('.'));
    sink.CompleteEvent(name, category, 0, s.tid, Micros(origin, s.start),
                       Micros(s.start, s.end),
                       {{"span", static_cast<double>(i)},
                        {"parent", static_cast<double>(s.parent)},
                        {"req", static_cast<double>(s.req)}});
  }
  return sink.WriteFile(path);
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  return cpus;
}

void PinThread(const std::vector<int>& cpus) {
  cpu_set_t some;
  CPU_ZERO(&some);
  for (const int c : cpus) CPU_SET(c, &some);
  sched_setaffinity(0, sizeof some, &some);
}

RoundWalls RunRounds(const RunConfig& cfg, Tracer& tracer,
                     int cpus_per_round,
                     const std::function<bool(bool, int)>& round) {
  const std::vector<int> allowed = AllowedCpus();
  const std::size_t per_round = static_cast<std::size_t>(cpus_per_round);
  const bool pin = per_round > 0 && per_round < allowed.size();
  RoundWalls walls;
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    if (pin) {
      std::vector<int> some;
      for (std::size_t k = 0; k < per_round; ++k) {
        some.push_back(
            allowed[(static_cast<std::size_t>(i) + k) % allowed.size()]);
      }
      PinThread(some);
    }
    // Traced runs alternate untraced / traced rounds and end on a traced
    // one, so both kinds are measured under the same conditions.
    const bool traced = cfg.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    const int span = tracer.Open("round", -1);
    const Clock::time_point t0 = Clock::now();
    const bool ok = round(traced, span);
    const double wall = Seconds(t0, Clock::now());
    tracer.Close(span);
    tracer.set_enabled(false);
    (traced ? walls.traced : walls.untraced).push_back(wall);
    if (i == 0) walls.first_round_rss_mb = PeakRssMb();
    std::cerr << "perfbench: " << cfg.workload << " round " << i
              << (traced ? " (traced)" : "") << " " << wall << " s\n";
    if (!ok) break;
    if (Seconds(start, Clock::now()) >= cfg.seconds &&
        (!cfg.trace || traced)) {
      break;
    }
  }
  if (pin) PinThread(allowed);
  return walls;
}

double TraceOverhead(const RoundWalls& walls) {
  const double base = Median(walls.untraced);
  return base > 0 ? Median(walls.traced) / base - 1 : 0;
}

treeagg::RequestSequence MakeRequests(const std::string& workload,
                                      const treeagg::Tree& tree,
                                      std::size_t length, std::uint64_t seed) {
  treeagg::RequestSequence sigma =
      treeagg::MakeWorkload(workload, tree, length, seed);
  for (treeagg::Request& r : sigma) r.arg = std::floor(r.arg);
  return sigma;
}


double LayerStats::MsgsPerReq() const {
  return requests > 0 ? static_cast<double>(counts.total()) /
                            static_cast<double>(requests)
                      : 0;
}

void BestOfRounds::Observe(std::size_t i, double us) {
  if (i >= best_us_.size()) {
    best_us_.resize(i + 1, std::numeric_limits<double>::infinity());
  }
  best_us_[i] = std::min(best_us_[i], us);
}

std::vector<double> BestOfRounds::Values(std::size_t n) const {
  std::vector<double> out;
  const std::size_t end = std::min(n, best_us_.size());
  out.reserve(end);
  for (std::size_t i = 0; i < end; ++i) {
    if (std::isfinite(best_us_[i])) out.push_back(best_us_[i]);
  }
  return out;
}

double BestOfRounds::TotalSeconds() const {
  double total = 0;
  for (const double us : Values()) total += us;
  return total * 1e-6;
}

void AddEndToEnd(Report& report, double req_per_s, double p50_us,
                 double p99_us, std::size_t samples, const LayerStats& stats,
                 const std::vector<double>& setup_s, const RoundWalls& walls) {
  report.Add("req_per_s", req_per_s, "1/s", samples);
  report.Add("latency_p50_us", p50_us, "us", samples);
  report.Add("latency_p99_us", p99_us, "us", samples);
  report.Add("msgs_per_req", stats.MsgsPerReq(), "msg/req", stats.requests);
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("rss_mb", walls.first_round_rss_mb, "MB", 1);
}

void AddCoreLayer(Report& report, const LayerStats& stats) {
  const double n =
      static_cast<double>(std::max<std::size_t>(1, stats.requests));
  const auto per_req = [&](const char* name, auto count) {
    report.Add(name, static_cast<double>(count) / n, "msg/req",
               stats.requests);
  };
  per_req("core.probes_per_req", stats.counts.probes);
  per_req("core.responses_per_req", stats.counts.responses);
  per_req("core.updates_per_req", stats.counts.updates);
  per_req("core.releases_per_req", stats.counts.releases);
  per_req("core.lease_grants_per_req", stats.lease_grants);
  per_req("core.lease_revokes_per_req", stats.lease_revokes);
}

void AddTraceSummary(Report& report, const RunConfig& cfg,
                     const Tracer& tracer, const RoundWalls& walls) {
  report.Add("residual_share", tracer.ResidualShare(), "fraction",
             walls.traced.size());
  report.Add("trace_overhead", TraceOverhead(walls), "fraction",
             walls.traced.size() + walls.untraced.size());
  // Enough spans to open comfortably in a trace viewer; the metrics above
  // use all of them.
  constexpr std::size_t kTraceCap = 200000;
  if (!cfg.trace_out.empty() &&
      !tracer.WriteChromeTrace(cfg.trace_out, cfg.workload, kTraceCap)) {
    std::cerr << "perfbench: cannot write trace " << cfg.trace_out << "\n";
  }
}

double GaugeValue(const treeagg::obs::MetricsRegistry& registry,
                  const std::string& name) {
  std::istringstream text(registry.RenderPrometheus());
  double best = 0;
  for (std::string line; std::getline(text, line);) {
    if (line.compare(0, name.size(), name) != 0 || line.size() <= name.size() ||
        (line[name.size()] != '{' && line[name.size()] != ' ')) {
      continue;
    }
    best = std::max(best, std::stod(line.substr(line.rfind(' ') + 1)));
  }
  return best;
}

}  // namespace perfbench

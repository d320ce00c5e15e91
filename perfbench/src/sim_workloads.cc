// In-process workloads: sim-big (the sequential driver on a 100k-node
// tree) and verify (the discrete-event simulator plus the causal checker).
#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "consistency/causal_checker.h"
#include "core/aggregate_op.h"
#include "core/policies.h"
#include "obs/metrics.h"
#include "sim/concurrent.h"
#include "sim/system.h"
#include "tree/generators.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using treeagg::AggregationSystem;
using treeagg::ConcurrentSimulator;
using treeagg::MessageCounts;
using treeagg::NodeId;
using treeagg::Real;
using treeagg::ReqType;
using treeagg::RequestSequence;
using treeagg::Tree;

// sim-big: 100k-node 8-ary tree, RWW, mixed50, one request at a time.
constexpr NodeId kBigNodes = 100000;
constexpr NodeId kBigArity = 8;
constexpr std::size_t kBigRequests = 200000;

// verify: 1023-node 4-ary tree, RWW, mixed50 with overlapping arrivals.
constexpr NodeId kVerifyNodes = 1023;
constexpr NodeId kVerifyArity = 4;
constexpr std::size_t kVerifyHistories = 3;
constexpr std::size_t kVerifyRequests = 600;  // per history
constexpr std::int64_t kVerifyMaxGap = 3;
constexpr std::int64_t kVerifyMaxDelay = 10;

// The answer every combine of a sequential execution must return: the sum
// of the latest write at every node, tracked here independently of the
// protocol. Writes are whole numbers, so the sums are exact.
std::vector<Real> ExpectedCombines(const RequestSequence& sigma, NodeId n) {
  std::vector<Real> last(static_cast<std::size_t>(n), 0);
  Real total = 0;
  std::vector<Real> answers;
  for (const treeagg::Request& r : sigma) {
    if (r.op == ReqType::kWrite) {
      Real& slot = last[static_cast<std::size_t>(r.node)];
      total += r.arg - slot;
      slot = r.arg;
    } else {
      answers.push_back(total);
    }
  }
  // The closing root combine: recomputed from scratch, not from the
  // running total.
  Real final_sum = 0;
  for (const Real v : last) final_sum += v;
  answers.push_back(final_sum);
  return answers;
}

// Per-round message totals must not change: every round replays the same
// inputs from the same initial state.
void CheckSameWork(Report& report, const char* workload,
                   const MessageCounts& first, const MessageCounts& now) {
  if (!(first == now)) {
    report.Mismatch(std::string(workload) +
                    ": message counts differ between rounds of one seed");
  }
}

}  // namespace

void RunSimBig(const RunConfig& cfg, Report& report) {
  const Tree input_tree = treeagg::MakeKary(kBigNodes, kBigArity);
  const RequestSequence sigma =
      MakeRequests("mixed50", input_tree, kBigRequests, cfg.seed);
  const std::vector<Real> expected = ExpectedCombines(sigma, kBigNodes);

  Tracer tracer;
  LayerStats stats;
  BestOfRounds request_us;
  std::vector<double> tree_s, construct_s;
  MessageCounts first_counts;
  bool have_counts = false;

  const auto round = [&](bool traced, int rs) {
    const bool keep = traced == cfg.trace;
    double build = 0, construct = 0;
    const Tree tree = Timed(
        tracer, "tree.build", rs,
        [&] { return treeagg::MakeKary(kBigNodes, kBigArity); }, &build);
    treeagg::obs::MetricsRegistry registry;
    AggregationSystem::Options options;
    options.edge_accounting = false;  // the benchmark reads totals only
    options.metrics = traced ? &registry : nullptr;
    auto sys = Timed(
        tracer, "sim.construct", rs,
        [&] {
          return std::make_unique<AggregationSystem>(
              tree, treeagg::RwwFactory(), options);
        },
        &construct);

    std::vector<Real> answers;
    answers.reserve(expected.size());
    std::size_t i = 0;
    try {
      for (; i < sigma.size(); ++i) {
        const treeagg::Request& r = sigma[i];
        const Clock::time_point t0 = Clock::now();
        if (r.op == ReqType::kWrite) {
          sys->Write(r.node, r.arg);
        } else {
          answers.push_back(sys->Combine(r.node));
        }
        const Clock::time_point t1 = Clock::now();
        tracer.Add(r.op == ReqType::kWrite ? "sim.write" : "sim.combine", t0,
                   t1, rs, static_cast<std::int64_t>(i));
        if (keep) request_us.Observe(i, Micros(t0, t1));
      }
    } catch (const std::exception& e) {
      report.attempted += static_cast<std::int64_t>(sigma.size());
      report.failed += static_cast<std::int64_t>(sigma.size() - i);
      report.problems.push_back("sim-big seed " + std::to_string(cfg.seed) +
                                " request " + std::to_string(i) + ": " +
                                e.what());
      return false;
    }
    report.attempted += static_cast<std::int64_t>(sigma.size());
    const MessageCounts counts = sys->trace().totals();

    Timed(tracer, "bench.check", rs, [&] {
      answers.push_back(sys->Combine(0));
      for (std::size_t k = 0; k < answers.size(); ++k) {
        if (answers[k] != expected[k]) {
          report.Mismatch("sim-big seed " + std::to_string(cfg.seed) +
                          ": combine " + std::to_string(k) + " returned " +
                          std::to_string(answers[k]) + ", expected " +
                          std::to_string(expected[k]));
          break;
        }
      }
      if (have_counts) CheckSameWork(report, "sim-big", first_counts, counts);
      first_counts = counts;
      have_counts = true;
    });
    if (keep) {
      ++stats.rounds;
      stats.requests += sigma.size();
      stats.counts += counts;
      tree_s.push_back(build);
      construct_s.push_back(construct);
      if (traced) {
        stats.lease_grants +=
            registry.SumCounters("treeagg_node_lease_grants_total");
        stats.lease_revokes +=
            registry.SumCounters("treeagg_node_lease_revokes_total");
        stats.queue_hwm = std::max(
            stats.queue_hwm,
            GaugeValue(registry, "treeagg_driver_queue_depth_hwm"));
      }
    }
    Timed(tracer, "sim.destroy", rs, [&] { sys.reset(); });
    return report.correct;
  };
  const RoundWalls walls =
      RunRounds(cfg, tracer, /*cpus_per_round=*/1, round);

  std::vector<double> setup_s(tree_s.size());
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    setup_s[k] = tree_s[k] + construct_s[k];
  }
  if (!cfg.trace) {
    std::vector<double> best = request_us.Values();
    const double rate =
        Rate(static_cast<double>(best.size()), request_us.TotalSeconds());
    AddEndToEnd(report, rate, Quantile(best, 0.5), Quantile(best, 0.99),
                stats.requests, stats, setup_s, walls);
    return;
  }
  report.Add("tree.build_s", Median(tree_s), "s", tree_s.size());
  report.Add("sim.construct_s", Median(construct_s), "s", construct_s.size());
  AddCoreLayer(report, stats);
  report.Add("sim.queue_hwm", stats.queue_hwm, "count", stats.rounds);
  AddTraceSummary(report, cfg, tracer, walls);
}

void RunVerify(const RunConfig& cfg, Report& report) {
  // Each round verifies the same kVerifyHistories histories, each with its
  // own sequence, arrival gaps and message delays derived from the seed.
  const Tree input_tree = treeagg::MakeKary(kVerifyNodes, kVerifyArity);
  std::vector<std::vector<treeagg::ScheduledRequest>> schedules;
  for (std::size_t h = 0; h < kVerifyHistories; ++h) {
    const std::uint64_t seed = cfg.seed * kVerifyHistories + h;
    const RequestSequence sigma =
        MakeRequests("mixed50", input_tree, kVerifyRequests, seed);
    treeagg::Rng gaps(seed);
    schedules.push_back(treeagg::ScheduleWithGaps(sigma, kVerifyMaxGap, gaps));
  }

  Tracer tracer;
  LayerStats stats;
  BestOfRounds verify_us;
  std::vector<double> tree_s, construct_s, des_s, ghost_s, check_s;
  std::vector<MessageCounts> first_counts;
  std::size_t gathers = 0, ghost_entries = 0;

  // One history: DES run, ghost-state harvest, causal check.
  const auto verify = [&](std::size_t h, bool traced, bool keep, int rs) {
    const std::uint64_t seed = cfg.seed * kVerifyHistories + h;
    const std::string where = "verify seed " + std::to_string(cfg.seed) +
                              " history " + std::to_string(h);
    const std::size_t n = schedules[h].size();
    double build = 0, construct = 0, des = 0, ghost = 0, check = 0;
    const Tree tree = Timed(
        tracer, "tree.build", rs,
        [&] { return treeagg::MakeKary(kVerifyNodes, kVerifyArity); },
        &build);
    treeagg::obs::MetricsRegistry registry;
    ConcurrentSimulator::Options options;
    options.ghost_logging = true;
    options.min_delay = 1;
    options.max_delay = kVerifyMaxDelay;
    options.seed = seed;
    options.metrics = traced ? &registry : nullptr;
    auto sim = Timed(
        tracer, "sim.construct", rs,
        [&] {
          return std::make_unique<ConcurrentSimulator>(
              tree, treeagg::RwwFactory(), options);
        },
        &construct);

    std::vector<treeagg::NodeGhostState> ghosts;
    treeagg::CheckResult verdict;
    report.attempted += static_cast<std::int64_t>(n);
    try {
      Timed(tracer, "sim.des_run", rs, [&] { sim->Run(schedules[h]); }, &des);
      ghosts = Timed(
          tracer, "sim.ghost_states", rs, [&] { return sim->GhostStates(); },
          &ghost);
      verdict = Timed(
          tracer, "consistency.check", rs,
          [&] {
            return treeagg::CheckCausalConsistency(
                sim->history(), ghosts, treeagg::SumOp(), tree.size());
          },
          &check);
    } catch (const std::exception& e) {
      report.failed += static_cast<std::int64_t>(n);
      report.problems.push_back(where + " (DES run): " + e.what());
      return false;
    }
    const MessageCounts counts = sim->trace().totals();

    Timed(tracer, "bench.check", rs, [&] {
      if (!verdict.ok) {
        report.Mismatch(where + ": causal checker: " + verdict.message);
      }
      std::size_t done = 0;
      for (const treeagg::RequestRecord& rec : sim->history().records()) {
        done += rec.completed() ? 1 : 0;
        if (traced && rec.op == ReqType::kCombine) ++gathers;
      }
      if (done != n) {
        report.Mismatch(where + ": " + std::to_string(n - done) +
                        " requests never completed");
      }
      if (traced) {
        for (const treeagg::NodeGhostState& g : ghosts) {
          ghost_entries += g.write_log.size();
        }
      }
      if (first_counts.size() == h) first_counts.push_back(counts);
      CheckSameWork(report, "verify", first_counts[h], counts);
    });
    if (keep) {
      stats.requests += n;
      stats.loop_s += des + ghost + check;
      stats.counts += counts;
      verify_us.Observe(h, (des + ghost + check) * 1e6);
      tree_s.push_back(build);
      construct_s.push_back(construct);
      des_s.push_back(des);
      ghost_s.push_back(ghost);
      check_s.push_back(check);
      if (traced) {
        stats.lease_grants +=
            registry.SumCounters("treeagg_node_lease_grants_total");
        stats.lease_revokes +=
            registry.SumCounters("treeagg_node_lease_revokes_total");
        stats.queue_hwm =
            std::max(stats.queue_hwm,
                     GaugeValue(registry, "treeagg_sim_event_queue_hwm"));
      }
    }
    Timed(tracer, "sim.destroy", rs, [&] {
      ghosts.clear();
      sim.reset();
    });
    return true;
  };

  const auto round = [&](bool traced, int rs) {
    const bool keep = traced == cfg.trace;
    if (keep) ++stats.rounds;
    for (std::size_t h = 0; h < kVerifyHistories; ++h) {
      if (!verify(h, traced, keep, rs)) return false;
    }
    return report.correct;
  };
  const RoundWalls walls =
      RunRounds(cfg, tracer, /*cpus_per_round=*/1, round);

  std::vector<double> setup_s(tree_s.size());
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    setup_s[k] = tree_s[k] + construct_s[k];
  }
  if (!cfg.trace) {
    // One verification (DES start to causal verdict) is the timed
    // operation: p50 and p99 are over the best times of the
    // kVerifyHistories histories, so p99 is the slowest history's.
    const double rate = Rate(
        static_cast<double>(kVerifyHistories * kVerifyRequests),
        verify_us.TotalSeconds());
    std::vector<double> best = verify_us.Values();
    AddEndToEnd(report, rate, Quantile(best, 0.5), Quantile(best, 0.99),
                best.size(), stats, setup_s, walls);
    return;
  }
  const double rounds =
      static_cast<double>(std::max<std::size_t>(1, stats.rounds));
  report.Add("tree.build_s", Median(tree_s), "s", tree_s.size());
  report.Add("sim.construct_s", Median(construct_s), "s", construct_s.size());
  AddCoreLayer(report, stats);
  report.Add("sim.queue_hwm", stats.queue_hwm, "count", stats.rounds);
  report.Add("sim.des_run_s", Median(des_s), "s", des_s.size());
  report.Add("sim.ghost_states_s", Median(ghost_s), "s", ghost_s.size());
  report.Add("consistency.check_s", Median(check_s), "s", check_s.size());
  report.Add("consistency.gathers", static_cast<double>(gathers) / rounds,
             "count", stats.rounds);
  report.Add("consistency.ghost_entries",
             static_cast<double>(ghost_entries) / rounds, "count",
             stats.rounds);
  AddTraceSummary(report, cfg, tracer, walls);
}

}  // namespace perfbench

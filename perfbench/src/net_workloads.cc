// Networked workloads over loopback TCP (LocalCluster): net-seq, a closed
// request loop that waits for completion and quiescence after every
// request, and net-read, the same loop under a writeheavy stream with a
// QueryClient reading snapshots beside it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/aggregate_op.h"
#include "core/policies.h"
#include "net/local_cluster.h"
#include "net/query_client.h"
#include "net/transport.h"
#include "query/validate.h"
#include "sim/system.h"
#include "tree/generators.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using treeagg::LocalCluster;
using treeagg::MessageCounts;
using treeagg::NodeId;
using treeagg::Real;
using treeagg::ReqType;
using treeagg::RequestSequence;
using treeagg::Tree;

// Both workloads run on a 255-node binary tree, RWW, one reactor per
// daemon, round-robin placement, ghost logging off (as deployed).
constexpr NodeId kNetNodes = 255;
constexpr std::int64_t kTimeoutMs = 10000;

struct NetShape {
  const char* name;
  const char* workload;  // request generator
  int daemons;
  std::size_t requests;  // per round
  bool reader;           // a QueryClient thread reads beside the stream
  // Round i runs the driver thread alone on the i-th allowed CPU (mod
  // their count) and starts the daemons on the others: every request
  // crosses cores as in a deployment, the scheduler cannot stack a daemon
  // on the driver's CPU, and best-of-rounds sees every vCPU. Off, the
  // scheduler places every thread.
  bool pin_driver;
};
constexpr NetShape kNetSeq{"net-seq", "mixed50", 3, 3000, false, true};
constexpr NetShape kNetRead{"net-read", "writeheavy", 2, 12000, true, false};

std::vector<NodeId> ParentVector(const Tree& tree) {
  std::vector<NodeId> parent(static_cast<std::size_t>(tree.size()));
  for (NodeId u = 1; u < tree.size(); ++u) {
    parent[static_cast<std::size_t>(u)] = tree.RootedParent(u);
  }
  return parent;
}

// What the sequential simulator answers and sends for the same sequence;
// a sequential networked run must match it exactly.
struct Reference {
  std::vector<Real> combines;
  MessageCounts counts;
};

Reference Simulate(const Tree& tree, const RequestSequence& sigma) {
  treeagg::AggregationSystem::Options options;
  options.edge_accounting = false;
  treeagg::AggregationSystem sys(tree, treeagg::RwwFactory(), options);
  Reference ref;
  for (const treeagg::Request& r : sigma) {
    if (r.op == ReqType::kWrite) {
      sys.Write(r.node, r.arg);
    } else {
      ref.combines.push_back(sys.Combine(r.node));
    }
  }
  ref.counts = sys.trace().totals();
  return ref;
}

// GET /metrics from a daemon's metrics endpoint on loopback.
std::string ScrapeMetrics(std::uint16_t port) {
  treeagg::ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) throw std::runtime_error("scrape: socket() failed");
  timeval timeout{5, 0};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    throw std::runtime_error("scrape: cannot connect to metrics port " +
                             std::to_string(port));
  }
  const std::string request =
      "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd.get(), request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("scrape: send failed");
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n < 0) throw std::runtime_error("scrape: recv failed");
    if (n == 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.", 0) != 0 || body == std::string::npos ||
      response.find(" 200 ") > body) {
    throw std::runtime_error("scrape: bad response from metrics port");
  }
  return response.substr(body + 4);
}

// Adds the cumulative treeagg_daemon_frame_handle_ms buckets of one
// scrape into `cumulative` (upper bound -> count, +Inf as infinity).
void AddFrameHandleBuckets(const std::string& text,
                           std::map<double, std::uint64_t>& cumulative) {
  static const std::string kBucket = "treeagg_daemon_frame_handle_ms_bucket{";
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(kBucket, 0) != 0) continue;
    const std::size_t le = line.find("le=\"");
    const std::size_t end = line.find('"', le + 4);
    if (le == std::string::npos || end == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, end - le - 4);
    const double upper = bound == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::stod(bound);
    cumulative[upper] += static_cast<std::uint64_t>(
        std::stod(line.substr(line.rfind(' ') + 1)));
  }
}

double BucketQuantile(const std::map<double, std::uint64_t>& cumulative,
                      double q) {
  treeagg::obs::HistogramSnapshot snap;
  std::uint64_t below = 0;
  for (const auto& [upper, count] : cumulative) {
    if (upper != std::numeric_limits<double>::infinity()) {
      snap.bounds.push_back(upper);
    }
    snap.counts.push_back(count - below);
    below = count;
  }
  snap.count = below;
  return snap.counts.size() == snap.bounds.size() + 1 ? snap.Quantile(q) : 0;
}

// Reads node snapshots round-robin on a dedicated QueryClient connection
// until stopped. Owns its thread; the destructor stops and joins it.
class Reader {
 public:
  Reader(const treeagg::ClusterConfig& config,
         const treeagg::TransportOptions& transport, NodeId nodes,
         bool traced, int round_span)
      : round_span_(round_span) {
    tracer_.set_enabled(traced);
    thread_ = std::thread([this, config, transport, nodes] {
      Loop(config, transport, nodes);
    });
  }
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  std::vector<treeagg::query::ServedQuery> served;
  std::vector<double> latency_us;
  std::string error;
  Tracer& tracer() { return tracer_; }

 private:
  void Loop(const treeagg::ClusterConfig& config,
            const treeagg::TransportOptions& transport, NodeId nodes) {
    try {
      treeagg::QueryClient client(config, transport);
      for (std::int64_t k = 0; !stop_.load(std::memory_order_relaxed); ++k) {
        const NodeId node = static_cast<NodeId>(k % nodes);
        const Clock::time_point t0 = Clock::now();
        const treeagg::query::QueryAnswer answer = client.Query(node);
        const Clock::time_point t1 = Clock::now();
        tracer_.Add("query.read", t0, t1, round_span_, k, 1);
        served.push_back(treeagg::query::ServedQuery{node, answer, k});
        latency_us.push_back(Micros(t0, t1));
      }
    } catch (const std::exception& e) {
      error = "read " + std::to_string(served.size()) + ": " + e.what();
    }
  }

  int round_span_;
  Tracer tracer_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it uses
};

// Per-layer sums over the traced rounds.
struct NetLayers {
  std::vector<double> inject_us, complete_us, quiesce_us;
  double quiesce_s = 0;
  std::uint64_t send_syscalls = 0, recv_syscalls = 0, frames_sent = 0;
  std::uint64_t bytes_sent = 0, messages_sent = 0;
  std::uint64_t backpressure_stalls = 0, reconnects = 0;
  std::uint64_t reads_served = 0, read_retries = 0;
  std::map<double, std::uint64_t> frame_handle_ms;
};

void RunNet(const NetShape& shape, const RunConfig& cfg, Report& report) {
  const Tree input_tree = treeagg::MakeKary(kNetNodes, 2);
  const RequestSequence sigma = MakeRequests(
      shape.workload, input_tree, shape.requests, cfg.seed);
  const Reference ref = Simulate(input_tree, sigma);
  const std::string where =
      std::string(shape.name) + " seed " + std::to_string(cfg.seed);

  Tracer tracer;
  LayerStats stats;
  NetLayers layers;
  // net-seq: best-of-rounds times per request (inject to completion, and
  // inject to quiescence); each request repeats the same isolated work.
  BestOfRounds latency_us, cycle_us;
  // net-read: per-round figures. Writes and reads collide at a different
  // moment in every round, so a per-index best would keep only the
  // collisions that happened to be cheap. A round's write rate and read
  // quantiles include all of its collisions. The run reports the best
  // round's figures: host noise comes in bursts of seconds that slow whole
  // rounds, often half of a run's.
  std::vector<double> write_rate, read_p50_us, read_p99_us;
  std::vector<double> tree_s, start_s;
  std::size_t reads = 0;
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = shape.pin_driver && cpus.size() > 1;
  std::size_t round_no = 0;

  const auto round = [&](bool traced, int rs) {
    const bool keep = traced == cfg.trace;
    double build = 0, start = 0;
    const std::vector<NodeId> parent = Timed(
        tracer, "tree.build", rs,
        [&] { return ParentVector(treeagg::MakeKary(kNetNodes, 2)); },
        &build);
    LocalCluster::Options options;
    options.daemons = shape.daemons;
    options.placement = "rr";
    options.reactors = 1;
    options.ghost_logging = false;
    options.transport.io_timeout_ms = kTimeoutMs;
    options.transport.connect_timeout_ms = kTimeoutMs;
    options.quiescence_deadline_ms = kTimeoutMs;
    options.metrics = traced;
    options.metrics_port = traced ? 0 : -1;
    const int driver_cpu = pin ? cpus[round_no++ % cpus.size()] : -1;
    if (pin) {
      std::vector<int> others;
      for (const int c : cpus) {
        if (c != driver_cpu) others.push_back(c);
      }
      PinThread(others);  // the daemon threads inherit this set
    }
    std::unique_ptr<LocalCluster> cluster = Timed(
        tracer, "net.cluster_start", rs,
        [&] { return std::make_unique<LocalCluster>(parent, options); },
        &start);
    if (pin) PinThread({driver_cpu});
    treeagg::NetDriver& driver = cluster->driver();

    std::unique_ptr<Reader> reader;
    if (shape.reader) {
      reader = std::make_unique<Reader>(cluster->config(), options.transport,
                                        kNetNodes, traced, rs);
    }
    std::size_t i = 0;
    double loop = 0;
    treeagg::NetDriver::HarvestResult harvest;
    try {
      for (; i < sigma.size(); ++i) {
        const treeagg::Request& r = sigma[i];
        const Clock::time_point t0 = Clock::now();
        const treeagg::ReqId id = r.op == ReqType::kWrite
                                      ? driver.InjectWrite(r.node, r.arg)
                                      : driver.InjectCombine(r.node);
        const Clock::time_point t1 = Clock::now();
        driver.WaitCompleted(id);
        const Clock::time_point t2 = Clock::now();
        driver.WaitQuiescent();
        const Clock::time_point t3 = Clock::now();
        loop += Seconds(t0, t3);
        if (keep && !shape.reader) {
          latency_us.Observe(i, Micros(t0, t2));
          cycle_us.Observe(i, Micros(t0, t3));
        }
        if (traced) {
          const auto req = static_cast<std::int64_t>(i);
          const int span = tracer.Add("net.request", t0, t3, rs, req);
          tracer.Add("net.inject", t0, t1, span, req);
          tracer.Add("net.complete", t1, t2, span, req);
          tracer.Add("net.quiesce", t2, t3, span, req);
          layers.inject_us.push_back(Micros(t0, t1));
          layers.complete_us.push_back(Micros(t1, t2));
          layers.quiesce_us.push_back(Micros(t2, t3));
          layers.quiesce_s += Seconds(t2, t3);
        }
      }
      if (reader) {
        Timed(tracer, "query.stop", rs, [&] { reader->Stop(); });
        tracer.Merge(reader->tracer());
      }
      if (cfg.fault == "harvest") {
        throw std::runtime_error("injected fault in place of NetDriver::Harvest");
      }
      harvest = Timed(tracer, "net.harvest", rs,
                      [&] { return driver.Harvest(); });
      if (traced) {
        Timed(tracer, "daemon.scrape", rs, [&] {
          for (int d = 0; d < shape.daemons; ++d) {
            AddFrameHandleBuckets(ScrapeMetrics(cluster->DaemonMetricsPort(d)),
                                  layers.frame_handle_ms);
          }
        });
      }
    } catch (const std::exception& e) {
      // The unfinished requests fail; after the loop (harvest, scrape) the
      // round's results are lost, which counts as one failure.
      report.attempted += static_cast<std::int64_t>(sigma.size());
      report.failed += std::max<std::int64_t>(
          1, static_cast<std::int64_t>(sigma.size() - i));
      report.problems.push_back(
          where +
          (i < sigma.size() ? " request " + std::to_string(i)
                            : " after the last request (" +
                                  std::to_string(i) + " completed)") +
          ": " + e.what());
      return false;
    }
    report.attempted += static_cast<std::int64_t>(sigma.size());
    const std::uint64_t total_messages = driver.TotalMessages();
    Timed(tracer, "net.stop", rs, [&] {
      driver.Shutdown();
      cluster->Stop();
    });

    Timed(tracer, "bench.check", rs, [&] {
      if (!cluster->DaemonError().empty()) {
        report.Mismatch(where + ": daemon error: " + cluster->DaemonError());
      }
      const auto& records = driver.history().records();
      std::size_t combines = 0;
      for (std::size_t k = 0; k < records.size() && k < sigma.size(); ++k) {
        if (records[k].op != sigma[k].op || records[k].node != sigma[k].node ||
            !records[k].completed()) {
          report.Mismatch(where + ": request " + std::to_string(k) +
                          " missing from the driver history");
          return;
        }
        if (records[k].op != ReqType::kCombine) continue;
        const Real want = ref.combines[combines++];
        if (records[k].retval != want) {
          report.Mismatch(where + ": combine at request " + std::to_string(k) +
                          " returned " + std::to_string(records[k].retval) +
                          ", the sequential simulator " +
                          std::to_string(want));
          return;
        }
      }
      if (records.size() != sigma.size()) {
        report.Mismatch(where + ": history holds " +
                        std::to_string(records.size()) + " requests, not " +
                        std::to_string(sigma.size()));
      }
      if (!(harvest.counts == ref.counts) ||
          total_messages != static_cast<std::uint64_t>(ref.counts.total())) {
        report.Mismatch(where + ": " + std::to_string(total_messages) +
                        " messages, the sequential simulator sent " +
                        std::to_string(ref.counts.total()) +
                        " (or the per-kind counts differ)");
      }
      if (reader) {
        const treeagg::CheckResult check = treeagg::query::ValidateQueryAnswers(
            driver.history(), harvest.ghosts, reader->served,
            treeagg::SumOp());
        if (!check.ok) {
          report.Mismatch(where + ": snapshot answers: " + check.message);
        }
      }
    });

    bool ok = true;
    if (reader) {
      report.attempted += static_cast<std::int64_t>(reader->served.size());
      if (!reader->error.empty()) {
        report.attempted += 1;
        report.failed += 1;
        report.problems.push_back(where + " " + reader->error);
        ok = false;
      }
    }
    if (keep) {
      ++stats.rounds;
      stats.requests += sigma.size();
      stats.loop_s += loop;
      stats.counts += harvest.counts;
      tree_s.push_back(build);
      start_s.push_back(start);
      if (reader) {
        write_rate.push_back(Rate(static_cast<double>(sigma.size()), loop));
        read_p50_us.push_back(Quantile(reader->latency_us, 0.5));
        read_p99_us.push_back(Quantile(reader->latency_us, 0.99));
        reads += reader->latency_us.size();
      }
    }
    if (traced) {
      const auto sum = [&](const char* name) {
        return cluster->SumDaemonCounters(name);
      };
      stats.lease_grants += sum("treeagg_node_lease_grants_total");
      stats.lease_revokes += sum("treeagg_node_lease_revokes_total");
      layers.send_syscalls += sum("treeagg_transport_send_syscalls_total");
      layers.recv_syscalls += sum("treeagg_transport_recv_syscalls_total");
      layers.frames_sent += sum("treeagg_transport_frames_sent_total");
      layers.bytes_sent += sum("treeagg_transport_bytes_sent_total");
      layers.messages_sent += sum("treeagg_transport_messages_sent_total");
      layers.backpressure_stalls +=
          sum("treeagg_transport_backpressure_stalls_total");
      layers.reconnects += sum("treeagg_transport_reconnects_total");
      layers.reads_served += sum("treeagg_query_served_total");
      layers.read_retries += sum("treeagg_query_read_retries_total");
    }
    Timed(tracer, "net.destroy", rs, [&] {
      reader.reset();
      cluster.reset();
    });
    return ok && report.correct;
  };
  const RoundWalls walls = RunRounds(cfg, tracer, /*cpus_per_round=*/0, round);
  if (pin) PinThread(cpus);

  std::vector<double> setup_s(tree_s.size());
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    setup_s[k] = tree_s[k] + start_s[k];
  }
  if (!cfg.trace) {
    // net-seq times its requests; net-read its reads, while the write
    // stream's rate shows what the reads cost it. Quantile 1 is the
    // highest round's rate, quantile 0 the lowest round's latency.
    if (shape.reader) {
      AddEndToEnd(report, Quantile(write_rate, 1), Quantile(read_p50_us, 0),
                  Quantile(read_p99_us, 0), reads, stats, setup_s, walls);
    } else {
      std::vector<double> best = latency_us.Values();
      AddEndToEnd(report,
                  Rate(static_cast<double>(sigma.size()),
                       cycle_us.TotalSeconds()),
                  Quantile(best, 0.5), Quantile(best, 0.99), stats.requests,
                  stats, setup_s, walls);
    }
    return;
  }
  const std::size_t rounds = std::max<std::size_t>(1, stats.rounds);
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const auto per_round = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(rounds);
  };
  report.Add("tree.build_s", Median(tree_s), "s", tree_s.size());
  report.Add("net.cluster_start_s", Median(start_s), "s", start_s.size());
  AddCoreLayer(report, stats);
  report.Add("net.inject_p50_us", Quantile(layers.inject_us, 0.5), "us",
             layers.inject_us.size());
  report.Add("net.inject_p99_us", Quantile(layers.inject_us, 0.99), "us",
             layers.inject_us.size());
  report.Add("net.complete_p50_us", Quantile(layers.complete_us, 0.5), "us",
             layers.complete_us.size());
  report.Add("net.complete_p99_us", Quantile(layers.complete_us, 0.99), "us",
             layers.complete_us.size());
  report.Add("net.quiesce_p50_us", Quantile(layers.quiesce_us, 0.5), "us",
             layers.quiesce_us.size());
  report.Add("net.quiesce_p99_us", Quantile(layers.quiesce_us, 0.99), "us",
             layers.quiesce_us.size());
  report.Add("net.quiesce_share",
             stats.loop_s > 0 ? layers.quiesce_s / stats.loop_s : 0,
             "fraction", stats.requests);
  report.Add("transport.send_syscalls_per_req",
             ratio(layers.send_syscalls, stats.requests), "1/req",
             stats.requests);
  report.Add("transport.recv_syscalls_per_req",
             ratio(layers.recv_syscalls, stats.requests), "1/req",
             stats.requests);
  report.Add("transport.frames_per_syscall",
             ratio(layers.frames_sent, layers.send_syscalls), "ratio",
             layers.send_syscalls);
  report.Add("transport.bytes_per_msg",
             ratio(layers.bytes_sent, layers.messages_sent), "B/msg",
             layers.messages_sent);
  report.Add("transport.backpressure_stalls",
             per_round(layers.backpressure_stalls), "count", rounds);
  report.Add("transport.reconnects", per_round(layers.reconnects), "count",
             rounds);
  std::uint64_t frames = 0;
  for (const auto& [upper, count] : layers.frame_handle_ms) {
    frames = std::max(frames, count);
  }
  report.Add("daemon.frame_handle_p50_ms",
             BucketQuantile(layers.frame_handle_ms, 0.5), "ms", frames);
  report.Add("daemon.frame_handle_p99_ms",
             BucketQuantile(layers.frame_handle_ms, 0.99), "ms", frames);
  report.Add("query.read_retries_per_read",
             ratio(layers.read_retries, layers.reads_served), "1/read",
             layers.reads_served);
  AddTraceSummary(report, cfg, tracer, walls);
}

}  // namespace

void RunNetSeq(const RunConfig& cfg, Report& report) {
  RunNet(kNetSeq, cfg, report);
}

void RunNetRead(const RunConfig& cfg, Report& report) {
  RunNet(kNetRead, cfg, report);
}

}  // namespace perfbench

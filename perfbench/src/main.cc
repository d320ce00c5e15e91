// perfbench: the treeagg benchmark driver.
//
//   perfbench --workload sim-big|net-seq|net-read|verify --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--commit ID]
//             [--fault harvest]
//
// Prints an info line (host, build, provenance, sample counts) and, as the
// last line of stdout, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 1 when an answer was wrong or a request failed,
// 2 on a usage error. --fault is the self-test's failure injection (see
// RunConfig::fault); run.py never passes it.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/trace_event.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric a run prints, in output order. BENCHMARK.json lists the
// same names.
constexpr MetricSpec kEndToEnd[] = {
    {"req_per_s", "1/s"},     {"latency_p50_us", "us"},
    {"latency_p99_us", "us"}, {"msgs_per_req", "msg/req"},
    {"setup_s", "s"},         {"rss_mb", "MB"},
};

// A workload that bypasses a layer reports 0 for that layer's metrics.
constexpr MetricSpec kPerLayer[] = {
    {"tree.build_s", "s"},
    {"sim.construct_s", "s"},
    {"net.cluster_start_s", "s"},
    {"core.probes_per_req", "msg/req"},
    {"core.responses_per_req", "msg/req"},
    {"core.updates_per_req", "msg/req"},
    {"core.releases_per_req", "msg/req"},
    {"core.lease_grants_per_req", "msg/req"},
    {"core.lease_revokes_per_req", "msg/req"},
    {"sim.queue_hwm", "count"},
    {"net.inject_p50_us", "us"},
    {"net.inject_p99_us", "us"},
    {"net.complete_p50_us", "us"},
    {"net.complete_p99_us", "us"},
    {"net.quiesce_p50_us", "us"},
    {"net.quiesce_p99_us", "us"},
    {"net.quiesce_share", "fraction"},
    {"transport.send_syscalls_per_req", "1/req"},
    {"transport.recv_syscalls_per_req", "1/req"},
    {"transport.frames_per_syscall", "ratio"},
    {"transport.bytes_per_msg", "B/msg"},
    {"transport.backpressure_stalls", "count"},
    {"transport.reconnects", "count"},
    {"daemon.frame_handle_p50_ms", "ms"},
    {"daemon.frame_handle_p99_ms", "ms"},
    {"query.read_retries_per_read", "1/read"},
    {"sim.des_run_s", "s"},
    {"sim.ghost_states_s", "s"},
    {"consistency.check_s", "s"},
    {"consistency.gathers", "count"},
    {"consistency.ghost_entries", "count"},
    {"residual_share", "fraction"},
    {"trace_overhead", "fraction"},
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  out += treeagg::obs::EscapeJson(s);
  out += '"';
  return out;
}

std::string Number(double v) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Orders the report's metrics as `specs` lists them. A per-layer metric
// the workload did not produce is a bypassed layer (0); a missing
// end-to-end metric is a bug in the workload.
template <std::size_t N>
std::vector<Metric> Canonical(Report& report, const MetricSpec (&specs)[N],
                              bool zero_fill) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : report.metrics) {
      if (m.name == spec.name) found = &m;
    }
    if (found != nullptr) {
      out.push_back(*found);
    } else if (zero_fill || report.failed > 0) {
      out.push_back(Metric{spec.name, 0, spec.unit, 0});
    } else {
      report.Mismatch(std::string("metric ") + spec.name + " not measured");
    }
  }
  return out;
}

void PrintResult(const RunConfig& cfg, const std::string& commit,
                 Report& report) {
  const std::vector<Metric> metrics =
      cfg.trace ? Canonical(report, kPerLayer, true)
                : Canonical(report, kEndToEnd, false);
  if (report.attempted < 1) {  // the run died before its first request
    report.attempted = 1;
    report.failed = 1;
  }
  std::ostringstream info;
  info << "{\"info\": {\"workload\": " << Json(cfg.workload)
       << ", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
       << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << Json(CpuModel())
       << ", \"compiler\": " << Json(kCompiler)
       << ", \"build_type\": " << Json(PERFBENCH_BUILD_TYPE)
       << ", \"commit\": " << Json(commit) << ", \"samples\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    info << (i ? ", " : "") << Json(metrics[i].name) << ": "
         << metrics[i].samples;
  }
  info << "}}}";
  std::cout << info.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << Json(metrics[i].name) << ": {\"value\": "
         << Number(metrics[i].value) << ", \"unit\": "
         << Json(metrics[i].unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench --workload sim-big|net-seq|net-read|verify"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]"
               " [--commit ID] [--fault harvest]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string commit = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return Usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return Usage();
        cfg.trace = value == "1";
      } else if (arg == "--trace-out") {
        cfg.trace_out = value;
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--fault") {
        if (value != "harvest") return Usage();
        cfg.fault = value;
      } else {
        return Usage();
      }
    }
  } catch (const std::exception&) {
    return Usage();
  }
  void (*run)(const RunConfig&, Report&) = nullptr;
  if (cfg.workload == "sim-big") run = RunSimBig;
  if (cfg.workload == "net-seq") run = RunNetSeq;
  if (cfg.workload == "net-read") run = RunNetRead;
  if (cfg.workload == "verify") run = RunVerify;
  if (!have_workload || run == nullptr || !(cfg.seconds > 0)) return Usage();

  Report report;
  try {
    run(cfg, report);
  } catch (const std::exception& e) {
    report.failed = std::max<std::int64_t>(report.failed, 1);
    report.problems.push_back(cfg.workload + " seed " +
                              std::to_string(cfg.seed) + ": " + e.what());
  }
  for (const std::string& p : report.problems) {
    std::cerr << "perfbench: " << p << "\n";
  }
  PrintResult(cfg, commit, report);
  return report.correct && report.failed == 0 ? 0 : 1;
}

// opbench — one workload per process, one JSON result line.
//
//   opbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: svc_day_max, acrr_plan and mc_sla_risk (see README.md). The
// last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A per-layer metric of a layer the workload does not run
// reads 0. Every measured figure is also written to stderr. A failed
// correctness check prints its reason on stderr, reports "correct": false
// and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace opbench {
namespace {

using MetricList = std::vector<std::pair<const char*, const char*>>;  // name, unit

const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"admissions_per_s", "1/s"},
};

const MetricList kPerLayer = {
    {"svc.admit_ms", "ms"},
    {"svc.epoch_ms", "ms"},
    {"svc.epoch_worst_ms", "ms"},
    {"svc.handle_p50_us", "us"},
    {"svc.shard_epoch_sum_ms", "ms"},
    {"svc.shard_epoch_critical_ms", "ms"},
    {"svc.barrier_skew_ms", "ms"},
    {"svc.queue_peak_depth", "count"},
    {"svc.events", "count"},
    {"svc.arrivals", "count"},
    {"svc.unknown_decisions", "count"},
    {"svc.full_resolves", "count"},
    {"svc.greedy_repacks", "count"},
    {"svc.separation_rounds", "count"},
    {"svc.cuts_separated", "count"},
    {"svc.cuts_from_pool", "count"},
    {"svc.strong_probes", "count"},
    {"svc.heuristic_incumbents", "count"},
    {"solver.admission_lp.iterations", "count"},
    {"solver.admission_lp.refactorizations", "count"},
    {"solver.admission_lp.kept_solves", "count"},
    {"solver.admission_lp.hypersparse_hits", "count"},
    {"svc.arena_capacity_bytes", "bytes"},
    {"svc.slab_capacity", "count"},
    {"scn.script_ms", "ms"},
    {"acrr.plans_per_s", "1/s"},
    {"acrr.plan_p50_ms", "ms"},
    {"acrr.plan_max_ms", "ms"},
    {"acrr.iterations", "count"},
    {"acrr.master_pivots", "count"},
    {"acrr.separation_rounds", "count"},
    {"acrr.cuts_separated", "count"},
    {"acrr.instance_build_ms", "ms"},
    {"acrr.plan_prefix_ms", "ms"},
    {"acrr.plan_serial_ms", "ms"},
    {"mc.scenarios_per_s", "1/s"},
    {"mc.sweep_p50_ms", "ms"},
    {"mc.sweep_serial_ms", "ms"},
    {"orch.accepted", "count"},
    {"orch.requested", "count"},
};

/// Process high-water mark (VmHWM) in MB; 0 when /proc is unreadable.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "opbench: %s\nusage: opbench --workload "
               "<svc_day_max|acrr_plan|mc_sla_risk> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (opt.workload.empty()) usage("no --workload");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace opbench

int main(int argc, char** argv) {
  using namespace opbench;
  const Options opt = parse(argc, argv);
  Report rep;
  if (opt.workload == "svc_day_max") {
    rep = run_svc_day(opt);
  } else if (opt.workload == "acrr_plan") {
    rep = run_acrr_plan(opt);
  } else if (opt.workload == "mc_sla_risk") {
    rep = run_mc_sla_risk(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  rep.metrics["peak_rss_mb"] = peak_rss_mb();
  rep.check(rep.attempted > 0, "no operation attempted");

  std::string metrics;
  for (const auto& [name, unit] : opt.trace ? kPerLayer : kEndToEnd) {
    const auto it = rep.metrics.find(name);
    double v = it == rep.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      rep.check(false, std::string("non-finite metric ") + name);
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, v, unit);
    metrics += buf;
  }
  // Everything measured, traced or not, for the human reader (and for the
  // tracing overhead: the end-to-end figures of a traced run land here).
  for (const auto& [name, value] : rep.metrics) {
    std::fprintf(stderr, "opbench: %s=%.6g\n", name.c_str(), value);
  }
  for (const std::string& v : rep.violations) {
    std::fprintf(stderr, "opbench: CHECK FAILED: %s\n", v.c_str());
  }
  const bool correct = rep.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return correct ? 0 : 1;
}

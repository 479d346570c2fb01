// mc_sla_risk: consecutive Monte Carlo SLA-risk sweeps (scn::run_sla_risk_sweep)
// on a 4-lane pool, shaped like the mc/sla_risk_1200 catalog case: 5-BS
// mini topology per scenario, KAC admission, forecast bias 0.2. Sweep k of
// workload seed s has the sweep seed RngStream(s).derive("sweep", k).
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "scn/montecarlo.hpp"

namespace opbench {
namespace {

using namespace ovnes;

constexpr std::size_t kScenarios = 500;        ///< per sweep
constexpr std::size_t kPrefix = 4;             ///< always run; counters read here
constexpr std::size_t kVerifyScenarios = 200;  ///< bias-0 vs bias-0.2 check
constexpr double kBias = 0.2;

scn::SlaRiskConfig sweep_config(std::uint64_t sweep_seed, std::size_t scenarios,
                                double bias) {
  scn::SlaRiskConfig cfg;
  cfg.scenarios = scenarios;
  cfg.seed = sweep_seed;
  cfg.forecast.bias = bias;
  return cfg;
}

/// Σ tenants the sweep's scenarios request: scenario i draws its count from
/// RngStream(seed).derive("scenario", i).derive("tenants") (the scn
/// splittability contract), so it is recomputed here without running it.
std::size_t requested_tenants(const scn::SlaRiskConfig& cfg) {
  const RngStream root(cfg.seed);
  std::size_t n = 0;
  for (std::size_t i = 0; i < cfg.scenarios; ++i) {
    n += static_cast<std::size_t>(
        root.derive("scenario", i)
            .derive("tenants")
            .uniform_int(static_cast<std::int64_t>(cfg.tenants_min),
                         static_cast<std::int64_t>(cfg.tenants_max)));
  }
  return n;
}

bool finite(const scn::SlaRiskResult& r) {
  for (const double v : {r.accept_rate, r.mean_net_revenue, r.revenue_p05, r.revenue_p50,
                         r.violation_prob_mean, r.violation_minutes_mean,
                         r.violation_minutes_p95, r.violation_minutes_max,
                         r.mean_overbooked_mbps}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

Report run_mc_sla_risk(const Options& opt) {
  Report rep;
  const RngStream root(opt.seed);
  std::unique_ptr<exec::ThreadPool> pool;
  rep.metrics["setup_s"] = cold_setup_s(kSetups, [&] {
    pool = std::make_unique<exec::ThreadPool>(kLanes);
    (void)scn::run_sla_risk_sweep(sweep_config(root.derive("warm-up").seed(), kVerifyScenarios, kBias),
                                  pool.get());
  });

  std::vector<double> sweep_ms;
  double requested = 0.0, prefix_requested = 0.0, prefix_accepted = 0.0;
  std::uint64_t first_digest = 0;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < kPrefix || ms_since(t0) < opt.seconds * 1000.0; ++k) {
    const scn::SlaRiskConfig cfg = sweep_config(root.derive("sweep", k).seed(), kScenarios, kBias);
    const auto s0 = Clock::now();
    const scn::SlaRiskResult r = scn::run_sla_risk_sweep(cfg, pool.get());
    sweep_ms.push_back(ms_since(s0));
    if (k == 0) first_digest = r.rows_digest;

    rep.attempted += cfg.scenarios;
    rep.failed += cfg.scenarios - std::min(cfg.scenarios, r.scenarios);
    if (!finite(r)) {
      rep.failed += r.scenarios;
      continue;
    }
    const std::string at = " (sweep " + std::to_string(k) + ")";
    rep.check(r.accept_rate >= 0.0 && r.accept_rate <= 1.0, "accept rate outside [0, 1]" + at);
    rep.check(r.violation_prob_mean >= 0.0 && r.violation_prob_mean <= 1.0,
              "violation probability outside [0, 1]" + at);
    rep.check(r.revenue_p05 <= r.revenue_p50, "revenue p05 above p50" + at);
    const auto n = static_cast<double>(requested_tenants(cfg));
    const double accepted = r.accept_rate * n;
    rep.check(std::abs(accepted - std::round(accepted)) < 1e-6,
              "accept rate is not a whole share of the requested tenants" + at);
    requested += n;
    if (k < kPrefix) {
      prefix_requested += n;
      prefix_accepted += std::round(accepted);
    }
  }
  double total_ms = 0.0;
  for (const double ms : sweep_ms) total_ms += ms;
  rep.metrics["admissions_per_s"] = requested / (total_ms / 1000.0);

  // The first sweep again at 1 lane: the rows digest must not depend on
  // lanes. Then a small sweep at bias 0 must show no more SLA-violation
  // minutes than the same scenarios at bias 0.2.
  exec::ThreadPool one(1);
  const auto s0 = Clock::now();
  const scn::SlaRiskResult serial = scn::run_sla_risk_sweep(
      sweep_config(root.derive("sweep", 0).seed(), kScenarios, kBias), &one);
  const double serial_ms = ms_since(s0);
  rep.check(serial.rows_digest == first_digest, "rows digest differs at 1 and 4 lanes");
  const std::uint64_t verify_seed = root.derive("verify").seed();
  const scn::SlaRiskResult unbiased = scn::run_sla_risk_sweep(
      sweep_config(verify_seed, kVerifyScenarios, 0.0), pool.get());
  const scn::SlaRiskResult biased = scn::run_sla_risk_sweep(
      sweep_config(verify_seed, kVerifyScenarios, kBias), pool.get());
  rep.check(unbiased.violation_minutes_mean <= biased.violation_minutes_mean,
            "bias 0 shows more violation minutes than bias 0.2");

  if (opt.trace) {
    auto& m = rep.metrics;
    m["mc.scenarios_per_s"] =
        static_cast<double>(sweep_ms.size() * kScenarios) / (total_ms / 1000.0);
    m["mc.sweep_p50_ms"] = median(sweep_ms);
    m["mc.sweep_serial_ms"] = serial_ms;
    m["orch.requested"] = prefix_requested;
    m["orch.accepted"] = prefix_accepted;
  }
  return rep;
}

}  // namespace opbench

// acrr_plan: AC-RR instances solved by the classic multi-tree Benders loop
// (Algorithm 1, BendersOptions defaults, probe slaves on a 4-lane pool).
//
// The instance set is pinned: instance i is a pure function of (2018, i) —
// an Italian operator network at a scale drawn from [0.05, 0.08] (10-16
// BSs) with a topology seed of its own, and 10-16 tenants drawn like the
// convergence grid (uniform slice type, λ̂ = U(0.2, 0.6)·Λ,
// σ̂ = U(0.05, 0.3)). The set holds 50 instances per run second and every
// run solves all of it; the workload seed draws the solve order. (Solve
// times are heavy-tailed, p99/p50 ≈ 20: the p99 of a fresh draw of 1000
// instances moves by a third between seeds, see README.md.)
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "acrr/benders.hpp"
#include "acrr/exact.hpp"
#include "acrr/kac.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "topo/generators.hpp"

namespace opbench {
namespace {

using namespace ovnes;

constexpr std::uint64_t kSetSeed = 2018;
constexpr double kInstancesPerSecond = 50;  ///< set size per run second
constexpr std::size_t kPrefix = 64;      ///< first solves re-run at 1 lane (trace)
constexpr std::size_t kExactChecks = 6;  ///< smallest instances cross-checked by the MILP

struct Instance {
  std::unique_ptr<topo::Topology> topo;
  std::unique_ptr<topo::PathCatalog> catalog;
  std::vector<acrr::TenantModel> tenants;
  std::unique_ptr<acrr::AcrrInstance> inst;
};

Instance make_instance(std::size_t i) {
  const RngStream r = RngStream(kSetSeed).derive("instance", i);
  RngStream shape = r.derive("shape");
  Instance out;
  const topo::GeneratorConfig gc{shape.uniform(0.05, 0.08), r.derive("topology").seed()};
  out.topo = std::make_unique<topo::Topology>(topo::make_italian(gc));
  out.catalog = std::make_unique<topo::PathCatalog>(*out.topo, 2);
  RngStream rng = r.derive("tenants");
  const auto n = static_cast<std::size_t>(rng.uniform_int(10, 16));
  for (std::size_t t = 0; t < n; ++t) {
    acrr::TenantModel tm;
    tm.request.tenant = TenantId(static_cast<std::uint32_t>(t));
    tm.request.name = "t" + std::to_string(t);
    const auto type = static_cast<slice::SliceType>(rng.uniform_int(0, 2));
    tm.request.tmpl = slice::standard_template(type);
    tm.request.duration_epochs = 20;
    tm.request.penalty_factor = 1.0;
    tm.lambda_hat = rng.uniform(0.2, 0.6) * tm.request.tmpl.sla_rate;
    tm.sigma_hat = rng.uniform(0.05, 0.3);
    out.tenants.push_back(std::move(tm));
  }
  out.inst = std::make_unique<acrr::AcrrInstance>(*out.topo, *out.catalog, out.tenants);
  return out;
}

double tol(double psi) { return 1e-6 * std::max(1.0, std::abs(psi)); }

}  // namespace

Report run_acrr_plan(const Options& opt) {
  Report rep;
  const auto count = std::max(
      kPrefix, static_cast<std::size_t>(std::ceil(opt.seconds * kInstancesPerSecond)));
  std::vector<Instance> set;
  std::unique_ptr<exec::ThreadPool> pool;
  double build_ms = 0.0;
  rep.metrics["setup_s"] = cold_setup_s(kSetups, [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) set.push_back(make_instance(i));
    build_ms = ms_since(t0);
    pool = std::make_unique<exec::ThreadPool>(kLanes);
    acrr::BendersOptions warm;
    warm.pool = pool.get();
    (void)acrr::solve_benders(*set.front().inst, warm);
  });
  // Seeded Fisher-Yates solve order.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  RngStream shuffle = RngStream(opt.seed).derive("order");
  for (std::size_t i = count - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(
                            shuffle.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }

  acrr::BendersOptions bopts;  // the orchestrator's defaults
  bopts.pool = pool.get();
  std::vector<acrr::AdmissionResult> results;  // [solve position]
  std::vector<double> solve_ms;
  double tenants = 0.0;
  for (const std::size_t i : order) {
    const Instance& in = set[i];
    const auto s0 = Clock::now();
    results.push_back(acrr::solve_benders(*in.inst, bopts));
    solve_ms.push_back(ms_since(s0));
    tenants += static_cast<double>(in.tenants.size());
  }
  double total_ms = 0.0;
  for (const double ms : solve_ms) total_ms += ms;
  rep.metrics["admissions_per_s"] = tenants / (total_ms / 1000.0);

  // Checks against properties of the optimum and independent solvers. The
  // hard-guarantee baseline runs under a node budget (its plain
  // branch-and-bound can take a minute on an instance Benders solves in
  // milliseconds); any plan it returns, the empty one included, is feasible
  // for the overbooking problem too, so Benders must never lose to it. The
  // monolithic MILP checks the instances with the fewest variables.
  solver::MilpOptions baseline;
  baseline.threads = 1;
  baseline.max_nodes = 2000;
  baseline.time_limit_sec = 1e9;  // the node budget binds, never the clock
  solver::MilpOptions exact;
  exact.threads = 1;
  std::vector<std::size_t> by_size(order);
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t x, std::size_t y) {
    return set[x].inst->vars().size() != set[y].inst->vars().size()
               ? set[x].inst->vars().size() < set[y].inst->vars().size()
               : x < y;
  });
  by_size.resize(kExactChecks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const acrr::AdmissionResult& b = results[i];
    const Instance& in = set[order[i]];
    const std::string at = " (instance " + std::to_string(order[i]) + ")";
    ++rep.attempted;
    if (!b.optimal) {
      ++rep.failed;
      continue;
    }
    rep.check(b.bound <= b.objective + tol(b.objective), "bound above objective" + at);
    rep.check(std::abs(acrr::evaluate_objective(*in.inst, b) - b.objective) <=
                  tol(b.objective),
              "evaluate_objective disagrees with the reported objective" + at);
    rep.check(b.objective <= acrr::solve_kac(*in.inst).objective + tol(b.objective),
              "KAC beats the optimum" + at);
    acrr::AcrrConfig hard;
    hard.no_overbooking = true;
    const acrr::AcrrInstance nob_inst(*in.topo, *in.catalog, in.tenants, hard);
    rep.check(b.objective <= acrr::solve_no_overbooking(nob_inst, baseline).objective +
                                 tol(b.objective),
              "the no-overbooking baseline beats overbooking" + at);
    if (std::find(by_size.begin(), by_size.end(), order[i]) != by_size.end()) {
      const acrr::AdmissionResult ex = acrr::solve_exact_milp(*in.inst, exact);
      rep.check(ex.optimal && std::abs(ex.objective - b.objective) <=
                                  1e-5 * std::max(1.0, std::abs(ex.objective)),
                "monolithic MILP optimum differs from Benders" + at);
    }
  }

  if (opt.trace) {
    auto& m = rep.metrics;
    double prefix_ms = 0.0, iterations = 0, pivots = 0, rounds = 0, cuts = 0;
    for (std::size_t i = 0; i < kPrefix; ++i) prefix_ms += solve_ms[i];
    for (std::size_t i = 0; i < results.size(); ++i) {
      iterations += results[i].iterations;
      pivots += static_cast<double>(results[i].master_pivots);
      rounds += static_cast<double>(results[i].separation_rounds);
      cuts += static_cast<double>(results[i].cuts_separated);
    }
    m["acrr.plans_per_s"] = static_cast<double>(count) / (total_ms / 1000.0);
    m["acrr.plan_p50_ms"] = median(solve_ms);
    m["acrr.plan_max_ms"] = *std::max_element(solve_ms.begin(), solve_ms.end());
    m["acrr.iterations"] = iterations;
    m["acrr.master_pivots"] = pivots;
    m["acrr.separation_rounds"] = rounds;
    m["acrr.cuts_separated"] = cuts;
    m["acrr.instance_build_ms"] = build_ms;
    m["acrr.plan_prefix_ms"] = prefix_ms;
    // The same prefix with a 1-lane probe pool: the base of the fan-out
    // gain. The probe set never depends on lanes, so neither may the result.
    exec::ThreadPool one(1);
    acrr::BendersOptions serial = bopts;
    serial.pool = &one;
    double serial_ms = 0.0;
    for (std::size_t i = 0; i < kPrefix; ++i) {
      const auto s0 = Clock::now();
      const acrr::AdmissionResult r = acrr::solve_benders(*set[order[i]].inst, serial);
      serial_ms += ms_since(s0);
      rep.check(r.objective == results[i].objective &&
                    r.iterations == results[i].iterations,
                "1-lane and 4-lane Benders trajectories differ (instance " +
                    std::to_string(order[i]) + ")");
    }
    m["acrr.plan_serial_ms"] = serial_ms;
  }
  return rep;
}

}  // namespace opbench

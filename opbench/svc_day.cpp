// svc_day_max: the flash service day through svc::AdmissionService,
// replayed closed-loop as fast as the service drains it.
//
// The day is the pinned svc/service_day_flash script (4000 tenants, 24 h,
// 2 flash spikes, script seed 2018) on the 12-BS make_mini plane, 8 shards,
// 4 lanes. Nothing here depends on the workload seed: across script seeds
// the same replay takes 50 ms to 2.9 s (see README.md), so a seeded day
// would make the figures incomparable between runs. The decision log is a
// pure function of the event log, so every 4-lane pass and the 1-lane pass
// must produce the same digest — the checks assert it.
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "scn/service_day.hpp"
#include "slice/slice.hpp"
#include "svc/service.hpp"
#include "topo/generators.hpp"

namespace opbench {
namespace {

using namespace ovnes;

constexpr std::size_t kTenants = 4000;
constexpr std::size_t kHours = 24;
constexpr std::size_t kFlashSpikes = 2;
constexpr std::uint64_t kDaySeed = 2018;
constexpr std::size_t kBs = 12;
constexpr std::size_t kShards = 8;
constexpr std::size_t kWarmupHours = 2;  ///< warm-up prefix (no re-solve yet)

svc::ServiceConfig service_config(std::size_t script_size) {
  svc::ServiceConfig cfg;
  cfg.num_shards = kShards;
  cfg.queue_capacity = script_size + 1;
  cfg.shard.full_resolve_every = 6;
  cfg.shard.drift_threshold = 0.25;
  cfg.shard.max_resolve_tenants = 40;
  cfg.shard.resolve_max_nodes = 2000;
  return cfg;
}

struct Day {
  std::vector<svc::Event> script;
  topo::Topology topo;
  std::vector<std::size_t> ticks;  ///< script index of each hour's tick
  double script_ms = 0.0;          ///< wall of make_service_day
  std::size_t arrivals = 0;        ///< TenantArrival events
};

Day make_day() {
  scn::ServiceDayConfig cfg;
  cfg.tenants = kTenants;
  cfg.hours = kHours;
  cfg.seed = kDaySeed;
  cfg.flash.spikes = kFlashSpikes;
  const auto t0 = Clock::now();
  std::vector<svc::Event> script = scn::make_service_day(cfg);
  const double script_ms = ms_since(t0);
  const auto bs = static_cast<double>(kBs);
  Day day{std::move(script), topo::make_mini(kBs, 16.0 * bs, 32.0 * bs), {},
          script_ms, 0};
  for (std::size_t k = 0; k < day.script.size(); ++k) {
    if (day.script[k].type == svc::EventType::EpochTick) day.ticks.push_back(k);
    if (day.script[k].type == svc::EventType::TenantArrival) ++day.arrivals;
  }
  return day;
}

/// One closed-loop pass of the day through a fresh service, with the
/// decisions mapped back onto the script and the span timings.
struct DayRun {
  std::unique_ptr<svc::AdmissionService> service;
  std::vector<std::int64_t> decision_of;  ///< [script idx] -> log idx, -1 = none
  std::vector<char> shed;                 ///< [script idx] submit refused
  std::size_t stray_decisions = 0;        ///< log entries matching no event
  double wall_ms = 0.0;
  double admit_ms = 0.0;        ///< Σ submit+drain spans holding no tick
  double epoch_ms = 0.0;        ///< Σ spans holding a tick
  double epoch_worst_ms = 0.0;  ///< slowest span holding a tick

  DayRun(const Day& day, exec::ThreadPool& pool)
      : service(std::make_unique<svc::AdmissionService>(
            day.topo, service_config(day.script.size()), &pool)),
        decision_of(day.script.size(), -1),
        shed(day.script.size(), 0) {}

  /// Submit script[a, b), drain, and time both; then attribute the new log
  /// entries: one per non-tick event in order, then each tick's expiries
  /// (logged under the tick, event = EpochTick).
  void span(const Day& day, std::size_t a, std::size_t b, bool holds_tick) {
    const std::vector<svc::Decision>& log = service->decisions();
    std::size_t d = log.size();
    const auto t0 = Clock::now();
    for (std::size_t k = a; k < b; ++k) {
      if (!service->submit(day.script[k])) shed[k] = 1;
    }
    service->drain();
    const double ms = ms_since(t0);
    if (holds_tick) {
      epoch_ms += ms;
      epoch_worst_ms = std::max(epoch_worst_ms, ms);
    } else {
      admit_ms += ms;
    }
    for (std::size_t k = a; k < b; ++k) {
      const svc::Event& e = day.script[k];
      if (shed[k]) continue;
      if (e.type == svc::EventType::EpochTick) {
        while (d < log.size() && log[d].event == svc::EventType::EpochTick) ++d;
      } else if (d < log.size() && log[d].event == e.type &&
                 log[d].tenant_id == e.tenant_id) {
        decision_of[k] = static_cast<std::int64_t>(d++);
      }
    }
    stray_decisions += log.size() - std::min(d, log.size());
  }
};

/// Closed loop, as fast as the service drains it: each hour's events are
/// submitted and drained, then the hour's tick is submitted and drained.
/// `after_drain` (optional) inspects the service after every drain.
DayRun replay_closed(const Day& day, exec::ThreadPool& pool,
                     const std::function<void(const svc::AdmissionService&)>&
                         after_drain = nullptr) {
  DayRun run(day, pool);
  const auto span = [&](std::size_t a, std::size_t b, bool holds_tick) {
    run.span(day, a, b, holds_tick);
    if (after_drain) after_drain(*run.service);
  };
  const auto t0 = Clock::now();
  std::size_t a = 0;
  for (const std::size_t tick : day.ticks) {
    span(a, tick, false);
    span(tick, tick + 1, true);
    a = tick + 1;
  }
  if (a < day.script.size()) span(a, day.script.size(), false);
  run.wall_ms = ms_since(t0);
  return run;
}

/// The day through eight standalone shards, built the way the service
/// builds them and called serially, each call timed.
struct ShardReplay {
  std::vector<double> handle_us;
  double epoch_sum_ms = 0.0;       ///< Σ over ticks and shards of end_epoch
  double epoch_critical_ms = 0.0;  ///< Σ over ticks of the slowest shard
  double skew_ms = 0.0;            ///< Σ over ticks of (slowest − mean)
  svc::ShardStats total;
};

ShardReplay replay_shards(const Day& day) {
  svc::ShardConfig sc = service_config(day.script.size()).shard;
  sc.capacity_fraction = 1.0 / static_cast<double>(kShards);
  std::vector<std::unique_ptr<svc::Shard>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(
        std::make_unique<svc::Shard>(day.topo, sc, static_cast<std::uint32_t>(s)));
  }
  ShardReplay out;
  out.handle_us.reserve(day.script.size());
  std::vector<svc::Decision> expiries;
  std::size_t epoch = 0;
  for (const svc::Event& e : day.script) {
    if (e.type != svc::EventType::EpochTick) {
      svc::Shard& shard = *shards[svc::AdmissionService::shard_of(e.tenant_id, kShards)];
      const auto t0 = Clock::now();
      const svc::Decision d = shard.handle(e);
      out.handle_us.push_back(ms_since(t0) * 1000.0);
      (void)d;
      continue;
    }
    double worst = 0.0, sum = 0.0;
    for (auto& shard : shards) {
      expiries.clear();
      const auto t0 = Clock::now();
      shard->end_epoch(epoch, expiries);
      const double ms = ms_since(t0);
      sum += ms;
      worst = std::max(worst, ms);
    }
    out.epoch_sum_ms += sum;
    out.epoch_critical_ms += worst;
    out.skew_ms += worst - sum / static_cast<double>(kShards);
    ++epoch;
  }
  for (const auto& shard : shards) out.total.accumulate(shard->stats());
  return out;
}

bool same_stats(const svc::ShardStats& a, const svc::ShardStats& b) {
  return a.arrivals == b.arrivals && a.admitted == b.admitted &&
         a.rejected_profit == b.rejected_profit &&
         a.rejected_capacity == b.rejected_capacity &&
         a.rejected_no_route == b.rejected_no_route &&
         a.rejected_duplicate == b.rejected_duplicate &&
         a.rejected_full == b.rejected_full &&
         a.rejected_solver == b.rejected_solver && a.departures == b.departures &&
         a.updates == b.updates && a.expiries == b.expiries &&
         a.unknown_tenant == b.unknown_tenant &&
         a.full_resolves == b.full_resolves &&
         a.greedy_repacks == b.greedy_repacks && a.pool_resets == b.pool_resets &&
         a.cuts_separated == b.cuts_separated &&
         a.cuts_from_pool == b.cuts_from_pool &&
         a.cuts_evicted == b.cuts_evicted &&
         a.separation_rounds == b.separation_rounds &&
         a.pseudocost_branchings == b.pseudocost_branchings &&
         a.strong_probes == b.strong_probes &&
         a.heuristic_incumbents == b.heuristic_incumbents &&
         a.first_incumbent_nodes == b.first_incumbent_nodes &&
         a.violation_minutes == b.violation_minutes &&
         a.violation_samples == b.violation_samples;
}

/// Per-decision checks of one pass; returns the pass's failed operations
/// (shed, undecided, RejectedSolver).
std::uint64_t check_run(const Day& day, const DayRun& run, const svc::ShardConfig& sc,
                        Report& rep) {
  std::uint64_t shed = 0, undecided = 0, solver_rejects = 0, bad_value = 0,
                bad_z = 0;
  const std::vector<svc::Decision>& log = run.service->decisions();
  for (std::size_t k = 0; k < day.script.size(); ++k) {
    const svc::Event& e = day.script[k];
    if (e.type == svc::EventType::EpochTick) continue;
    if (run.shed[k]) {
      ++shed;
      continue;
    }
    if (run.decision_of[k] < 0) {
      ++undecided;
      continue;
    }
    const svc::Decision& d = log[static_cast<std::size_t>(run.decision_of[k])];
    if (d.kind == svc::DecisionKind::RejectedSolver) ++solver_rejects;
    if (d.kind == svc::DecisionKind::Admitted) {
      if (!(d.value >= sc.admit_margin)) ++bad_value;
      const double cap = static_cast<double>(kBs) *
                         slice::standard_template(e.slice_type).sla_rate;
      if (!(d.z_total >= -1e-9 && d.z_total <= cap * (1.0 + 1e-9))) ++bad_z;
    } else if (d.kind == svc::DecisionKind::RejectedProfit) {
      if (!(d.value < sc.admit_margin)) ++bad_value;
    }
  }
  const svc::ServiceStats st = run.service->stats();
  const svc::ShardStats& sh = st.shards;
  rep.check(shed == 0 && st.queue.shed == 0, "events shed: " + std::to_string(shed));
  rep.check(undecided == 0, std::to_string(undecided) + " events without a decision");
  rep.check(run.stray_decisions == 0,
            std::to_string(run.stray_decisions) + " decisions matching no event");
  rep.check(sh.admitted + sh.rejected_profit + sh.rejected_capacity +
                    sh.rejected_no_route + sh.rejected_duplicate +
                    sh.rejected_full + sh.rejected_solver ==
                sh.arrivals,
            "admitted + rejected != arrivals");
  rep.check(bad_value == 0, std::to_string(bad_value) +
                                " admission values on the wrong side of the margin");
  rep.check(bad_z == 0, std::to_string(bad_z) + " granted z_total outside [0, B*Lambda]");
  return shed + undecided + solver_rejects;
}

/// 1-lane closed replay (one batch per hour) that checks every shard's
/// radio and CPU headroom after every drain; returns its digest.
std::uint64_t serial_replay_digest(const Day& day, Report& rep) {
  exec::ThreadPool one(1);
  std::size_t negative = 0;
  const DayRun run = replay_closed(day, one, [&](const svc::AdmissionService& s) {
    for (std::size_t i = 0; i < s.num_shards(); ++i) {
      if (s.shard(i).radio_headroom_mbps() < -1e-6 ||
          s.shard(i).cpu_headroom_cores() < -1e-6) {
        ++negative;
      }
    }
  });
  rep.check(negative == 0, "negative shard headroom after " +
                               std::to_string(negative) + " shard-drains");
  return run.service->decision_log_digest();
}

void layer_metrics(const Day& day, const DayRun& run, Report& rep) {
  auto& m = rep.metrics;
  m["svc.admit_ms"] = run.admit_ms;
  m["svc.epoch_ms"] = run.epoch_ms;
  m["svc.epoch_worst_ms"] = run.epoch_worst_ms;
  m["scn.script_ms"] = day.script_ms;

  const svc::AdmissionService& s = *run.service;
  const svc::ServiceStats st = s.stats();
  m["svc.queue_peak_depth"] = static_cast<double>(st.queue.peak_depth);
  m["svc.events"] = static_cast<double>(day.script.size());
  m["svc.arrivals"] = static_cast<double>(st.shards.arrivals);
  m["svc.unknown_decisions"] = static_cast<double>(std::count_if(
      s.decisions().begin(), s.decisions().end(),
      [](const svc::Decision& d) { return d.kind == svc::DecisionKind::Unknown; }));
  m["svc.full_resolves"] = static_cast<double>(st.shards.full_resolves);
  m["svc.greedy_repacks"] = static_cast<double>(st.shards.greedy_repacks);
  m["svc.separation_rounds"] = static_cast<double>(st.shards.separation_rounds);
  m["svc.cuts_separated"] = static_cast<double>(st.shards.cuts_separated);
  m["svc.cuts_from_pool"] = static_cast<double>(st.shards.cuts_from_pool);
  m["svc.strong_probes"] = static_cast<double>(st.shards.strong_probes);
  m["svc.heuristic_incumbents"] = static_cast<double>(st.shards.heuristic_incumbents);
  double iters = 0, refactors = 0, kept = 0, hyper = 0, arena = 0, slab = 0;
  for (std::size_t i = 0; i < s.num_shards(); ++i) {
    const auto& ss = s.shard(i).session_stats();
    iters += static_cast<double>(ss.iterations);
    refactors += static_cast<double>(ss.refactorizations);
    kept += static_cast<double>(ss.kept_solves);
    hyper += static_cast<double>(ss.hypersparse_hits);
    arena += static_cast<double>(s.shard(i).arena_stats().capacity_bytes);
    slab += static_cast<double>(s.shard(i).slab_stats().capacity);
  }
  m["solver.admission_lp.iterations"] = iters;
  m["solver.admission_lp.refactorizations"] = refactors;
  m["solver.admission_lp.kept_solves"] = kept;
  m["solver.admission_lp.hypersparse_hits"] = hyper;
  m["svc.arena_capacity_bytes"] = arena;
  m["svc.slab_capacity"] = slab;

  const ShardReplay direct = replay_shards(day);
  rep.check(same_stats(direct.total, st.shards),
            "direct-shard replay ShardStats differ from the service's");
  m["svc.handle_p50_us"] = median(direct.handle_us);
  m["svc.shard_epoch_sum_ms"] = direct.epoch_sum_ms;
  m["svc.shard_epoch_critical_ms"] = direct.epoch_critical_ms;
  m["svc.barrier_skew_ms"] = direct.skew_ms;
}

}  // namespace

Report run_svc_day(const Options& opt) {
  Report rep;
  Day day;
  std::unique_ptr<exec::ThreadPool> pool;
  // Set-up: script, plane, lanes, and a warm-up pass over the first hours
  // (fills lazy caches such as the Gaussian peak-statistics memo).
  rep.metrics["setup_s"] = cold_setup_s(kSetups, [&] {
    day = make_day();
    pool = std::make_unique<exec::ThreadPool>(kLanes);
    Day warm = day;
    warm.script.resize(warm.ticks[kWarmupHours - 1] + 1);
    warm.ticks.resize(kWarmupHours);
    (void)replay_closed(warm, *pool);
  });

  // Whole days back to back until the run length is used; each pass is
  // checked as soon as it ends and only the last one is kept.
  const svc::ShardConfig sc = service_config(day.script.size()).shard;
  const auto non_tick = static_cast<std::uint64_t>(day.script.size() - day.ticks.size());
  std::vector<double> walls;
  std::uint64_t digest = 0;
  std::optional<DayRun> ref;  // the pass the layer metrics read
  const auto t0 = Clock::now();
  do {
    ref.reset();  // one service alive at a time, as in operation
    ref.emplace(replay_closed(day, *pool));
    walls.push_back(ref->wall_ms);
    rep.attempted += non_tick;
    rep.failed += check_run(day, *ref, sc, rep);
    const std::uint64_t d = ref->service->decision_log_digest();
    if (walls.size() == 1) digest = d;
    rep.check(d == digest, "closed replays disagree on the decision log");
  } while (ms_since(t0) < opt.seconds * 1000.0);
  rep.metrics["admissions_per_s"] =
      static_cast<double>(day.arrivals) / (median(walls) / 1000.0);
  rep.check(serial_replay_digest(day, rep) == digest,
            "4-lane and 1-lane replays disagree on the decision log");
  if (opt.trace) {
    const double covered = (ref->admit_ms + ref->epoch_ms) / ref->wall_ms;
    rep.check(covered >= 0.95 && covered <= 1.0 + 1e-9,
              "admit + epoch spans cover " + std::to_string(covered) +
                  " of the replay wall");
    layer_metrics(day, *ref, rep);
  }
  return rep;
}

}  // namespace opbench

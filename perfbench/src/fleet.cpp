// The rack and room workloads: closed batches of whole engine runs, each
// built the way a user builds one (ScenarioSpec -> build_rack/build_room)
// and stepped by the loop Engine::run() itself runs — Session + one
// persistent LockstepExecutor — opened up so every round can be timed and,
// in traced runs, every shard and barrier step spanned.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "batch/rack_stepper.hpp"
#include "batch/server_batch.hpp"
#include "common.hpp"
#include "coord/coupled_rack_engine.hpp"
#include "obs/metrics.hpp"
#include "rack/rack.hpp"
#include "room/room_engine.hpp"
#include "sim/scenario.hpp"
#include "span_log.hpp"
#include "util/lockstep_executor.hpp"
#include "util/rng.hpp"
#include "workload/trace_fit.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_store.hpp"
#include "workload/workload_table.hpp"

namespace perfbench {
namespace {

// ------------------------------------------------------------------ tiers

Fingerprint fingerprint(const fsc::CoupledRackResult& r) {
  return Fingerprint{r.fan_energy_joules, r.cpu_energy_joules,
                     r.pooled_deadline_violations(), r.max_junction_stats.max()};
}

Fingerprint fingerprint(const fsc::RoomResult& r) {
  return Fingerprint{r.fan_energy_joules, r.cpu_energy_joules,
                     r.pooled_deadline_violations(), r.max_junction_stats.max()};
}

struct RackTier {
  using Params = fsc::CoupledRackParams;
  using Session = fsc::CoupledRackEngine::Session;
  using Result = fsc::CoupledRackResult;
  static constexpr const char* kSerial = "coord.coordinate_round";

  static Params build(const fsc::ScenarioSpec& s) { return s.build_rack(); }
  static std::vector<Params> racks(const Params& p) { return {p}; }
  static void begin_round(Session&) {}
  static void serial(Session& s) { s.coordinate_round(); }
  static Result run(const Params& p, std::size_t threads) {
    return fsc::CoupledRackEngine(p, threads).run();
  }
};

struct RoomTier {
  using Params = fsc::RoomParams;
  using Session = fsc::RoomEngine::Session;
  using Result = fsc::RoomResult;
  static constexpr const char* kSerial = "room.finish_round";

  static Params build(const fsc::ScenarioSpec& s) { return s.build_room(); }
  static std::vector<fsc::CoupledRackParams> racks(const Params& p) {
    return p.racks;
  }
  static void begin_round(Session& s) { s.mark_round_start(); }
  static void serial(Session& s) { s.finish_round(); }
  static Result run(const Params& p, std::size_t threads) {
    return fsc::RoomEngine(p, threads).run();
  }
};

// -------------------------------------------------------------- one op

/// What a traced op adds on top of an untraced one.
struct TracedOp {
  std::unique_ptr<fsc::obs::TraceRecorder> recorder;
  std::map<std::string, SelfTime> self;
  RoundTotals totals;
  MemoCounts memo;
};

template <typename Tier>
struct OpResult {
  double setup_s = 0.0;
  double step_s = 0.0;
  typename Tier::Result result;
  Fingerprint fp;
  std::size_t lanes = 0;
  std::size_t substeps = 0;  ///< per lane
};

/// One op at `threads`, its set-up, stepping and every round timed with
/// `clock` (spans always use wall time).
template <typename Tier>
OpResult<Tier> drive(const fsc::ScenarioSpec& spec, std::size_t threads,
                     std::vector<double>* round_ms, TracedOp* traced, Clock clock = now_ns) {
  OpResult<Tier> op;
  std::optional<fsc::obs::MetricsRegistry> registry;

  const std::int64_t t0 = clock();
  typename Tier::Params params = Tier::build(spec);
  if (traced != nullptr) {
    registry.emplace(threads);
    params.obs.metrics = &*registry;
  }
  fsc::LockstepExecutor executor(threads);
  typename Tier::Session session(params);
  const std::int64_t t1 = clock();

  const std::size_t shards = session.num_shards();
  if (traced == nullptr) {
    while (!session.done()) {
      const std::int64_t r0 = clock();
      Tier::begin_round(session);
      executor.run(shards, [&session](std::size_t i) { session.run_shard(i); });
      Tier::serial(session);
      round_ms->push_back(static_cast<double>(clock() - r0) * 1e-6);
    }
  } else {
    traced->recorder = std::make_unique<fsc::obs::TraceRecorder>(std::size_t{1} << 17);
    SpanLog log(*traced->recorder, threads);
    std::vector<std::uint32_t> owner(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      owner[i] = static_cast<std::uint32_t>(
          shards == 1 ? 0 : lockstep_owner(i, shards, threads));
    }
    std::vector<std::int64_t> shard_begin(shards);
    std::vector<std::int64_t> shard_end(shards);
    std::vector<ParticipantWork> work(threads);
    std::int64_t round = 0;
    while (!session.done()) {
      const std::int64_t r0 = now_ns();
      Tier::begin_round(session);
      executor.run(shards, [&](std::size_t i) {
        const std::int64_t b = now_ns();
        session.run_shard(i);
        const std::int64_t e = now_ns();
        shard_begin[i] = b;
        shard_end[i] = e;
        log.add("batch.run_shard", "exec", b, e, owner[i], round);
      });
      const std::int64_t s0 = now_ns();
      Tier::serial(session);
      const std::int64_t s1 = now_ns();
      log.add(Tier::kSerial, "round", s0, s1, 0, round);
      const std::int64_t r1 = now_ns();
      log.add("bench.round", "round", r0, r1, 0, round);
      round_ms->push_back(static_cast<double>(r1 - r0) * 1e-6);

      std::fill(work.begin(), work.end(), ParticipantWork{});
      for (std::size_t i = 0; i < shards; ++i) {
        ParticipantWork& w = work[owner[i]];
        w.busy_ns += shard_end[i] - shard_begin[i];
        w.last_end_ns = std::max(w.last_end_ns, shard_end[i]);
      }
      traced->totals.add(account_round(r0, r1, s1 - s0, work));
      ++round;
    }
    traced->self = self_times(log.all());
  }
  op.result = session.finish();
  const std::int64_t t2 = clock();

  if (registry) traced->memo = MemoCounts::read(*registry);
  op.setup_s = seconds_between(t0, t1);
  op.step_s = seconds_between(t1, t2);
  op.fp = fingerprint(op.result);
  for (const fsc::CoupledRackParams& r : Tier::racks(params)) {
    op.lanes += r.rack.num_servers;
    op.substeps = static_cast<std::size_t>(
        std::llround(r.rack.sim.duration_s / r.rack.sim.physics_dt_s));
  }
  return op;
}

// ---------------------------------------------------------- side runs

/// One lane of the side runs: the plant and demand source a session would
/// build for this slot, constructed in the engine's own order.
struct Lane {
  fsc::Rng rng;
  std::shared_ptr<const fsc::Workload> workload;
  fsc::Server server;
  Lane(const fsc::RackServerSpec& spec, double initial_utilization)
      : rng(spec.seed),
        workload(fsc::make_slot_workload(spec, rng)),
        server(spec.server, spec.solution.initial_fan_rpm, rng) {
    server.settle(initial_utilization, spec.solution.initial_fan_rpm);
  }
};

struct SideRuns {
  double kernel_ns_per_lane_substep = 0.0;
  double gather_ns_per_lane_period = 0.0;
};

/// Lower bounds for the batch and workload layers over a fleet's lanes:
///  * ServerBatch::step_range alone, chunked like the engine, with inputs
///    from each lane's own demand and a fan command that follows it
///    (fan_min + u * span, in 500 rpm steps — the kernel slews when load
///    moves, like the controllers make it);
///  * WorkloadTable::fill_demand alone over every lane, every period.
/// `horizon_s` limits the kernel run to the first part of the scenario.
SideRuns side_runs(const std::vector<fsc::CoupledRackParams>& racks,
                   double horizon_s) {
  std::vector<std::unique_ptr<Lane>> lanes;
  const fsc::SimulationParams& sim = racks.front().rack.sim;
  for (const fsc::CoupledRackParams& p : racks) {
    const fsc::Rack rack(p.rack);
    for (const fsc::RackServerSpec& spec : rack.servers()) {
      lanes.push_back(std::make_unique<Lane>(spec, sim.initial_utilization));
    }
  }
  const std::size_t n = lanes.size();
  fsc::ServerBatch batch;
  fsc::WorkloadTable table;
  bool tabled = true;
  for (const auto& lane : lanes) {
    batch.add_server(lane->server);
    tabled = tabled && table.add_lane(*lane->workload);
  }
  if (!tabled) throw std::runtime_error("side run: a lane is not tableable");

  const double dt = sim.physics_dt_s;
  const long per_period = std::lround(sim.cpu_period_s / dt);
  const long all_periods = std::lround(sim.duration_s / sim.cpu_period_s);
  const long periods = std::min(all_periods, std::lround(horizon_s / sim.cpu_period_s));
  const std::size_t chunk =
      racks.front().chunk > 0 ? racks.front().chunk : fsc::RackBatchStepper::kAutoChunkLanes;
  const fsc::FanParams& fan = lanes.front()->server.params().fan;
  std::vector<double> demand(n);

  batch.prepare_dt(dt);
  std::int64_t kernel_ns = 0;
  for (long k = 0; k < periods; ++k) {
    table.fill_demand(static_cast<double>(k) * sim.cpu_period_s, 0, n, demand.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double u = std::clamp(demand[i], 0.0, 1.0);
      const double rpm = fan.min_rpm + std::round(u * (fan.max_rpm - fan.min_rpm) / 500.0) * 500.0;
      batch.set_inputs(i, lanes[i]->server.cpu_power_now(u), rpm,
                       lanes[i]->server.inlet_temperature());
    }
    const std::int64_t b = now_ns();
    for (std::size_t lo = 0; lo < n; lo += chunk) {
      const std::size_t hi = std::min(n, lo + chunk);
      for (long s = 0; s < per_period; ++s) batch.step_range(lo, hi, dt);
    }
    kernel_ns += now_ns() - b;
  }

  // Whole-run gather passes until a quarter second has been measured; the
  // median pass is reported.
  std::vector<double> pass_ns;
  const std::int64_t g_start = now_ns();
  while (pass_ns.size() < 3 || now_ns() - g_start < 250'000'000) {
    const std::int64_t b = now_ns();
    for (long k = 0; k < all_periods; ++k) {
      table.fill_demand(static_cast<double>(k) * sim.cpu_period_s, 0, n, demand.data());
    }
    pass_ns.push_back(static_cast<double>(now_ns() - b));
  }

  SideRuns out;
  out.kernel_ns_per_lane_substep =
      static_cast<double>(kernel_ns) /
      (static_cast<double>(n) * static_cast<double>(periods * per_period));
  out.gather_ns_per_lane_period =
      median(pass_ns) / (static_cast<double>(n) * static_cast<double>(all_periods));
  return out;
}

// ------------------------------------------------------------ the run loop

/// Simulated seconds of the shortened runs: the A/B checks and the kernel
/// side run.
constexpr double kShortRunS = 1800.0;

/// A/B checks on a shortened run of `spec` through the plain Engine::run()
/// entry point: the batched run at `threads` must match the same run on 1
/// thread and the scalar Server::step oracle (batched = false, every lane
/// off the batch path) at `threads`.
template <typename Tier>
void check_short_runs(const fsc::ScenarioSpec& spec, std::size_t threads, Report& report,
                      const std::string& label) {
  fsc::ScenarioSpec short_spec = spec;
  short_spec.duration_s = kShortRunS;
  std::optional<Fingerprint> batched;
  report.run_op(label + " check: " + std::to_string(threads) + " threads", [&] {
    batched = fingerprint(Tier::run(Tier::build(short_spec), threads));
  });
  const std::size_t a = report.attempted() - 1;
  report.run_op(label + " check: 1 thread", [&] {
    const Fingerprint one = fingerprint(Tier::run(Tier::build(short_spec), 1));
    report.check(batched && one == *batched,
                 "1 thread and " + std::to_string(threads) + " threads disagree",
                 {a, report.attempted() - 1});
  });
  report.run_op(label + " check: scalar Server::step oracle", [&] {
    fsc::ScenarioSpec scalar = short_spec;
    scalar.batched = false;
    const Fingerprint oracle = fingerprint(Tier::run(Tier::build(scalar), threads));
    report.check(batched && oracle == *batched, "batched run disagrees with the scalar oracle",
                 {a, report.attempted() - 1});
  });
}

template <typename Tier>
struct SubScenario {
  fsc::ScenarioSpec spec;
  std::vector<std::vector<double>> round_ms;  ///< per untraced op
  std::vector<double> untraced_step_s;
  std::vector<double> traced_step_s;
  std::optional<OpResult<Tier>> first;
  std::size_t first_op = 0;
};

/// The window over `scenarios` sub-scenarios of `base` (see kScenarios).
template <typename Tier>
void run_fleet(const Options& opt, Report& report, const fsc::ScenarioSpec& base,
               const std::string& tier_name, std::size_t scenarios) {
  // Ops of the measurement window: timed on one thread in CPU time, or, in
  // traced runs, at full width in wall time (kTimedThreads).
  const std::size_t threads = opt.trace ? opt.threads : kTimedThreads;
  const Clock clock = opt.trace ? now_ns : cpu_ns;
  std::vector<SubScenario<Tier>> subs(scenarios);
  for (std::size_t k = 0; k < subs.size(); ++k) {
    subs[k].spec = base;
    subs[k].spec.seed = fsc::derive_seed(opt.seed, k);
    subs[k].spec.threads = threads;
  }
  SetupBursts setup;
  Calibration calibration;  ///< one repetition per untraced op (timed runs)
  const auto setup_once = [threads, clock](const fsc::ScenarioSpec& spec) {
    const std::int64_t t0 = clock();
    const typename Tier::Params params = Tier::build(spec);
    const fsc::LockstepExecutor executor(threads);
    const typename Tier::Session session(params);
    return seconds_between(t0, clock());
  };
  std::vector<TracedOp> traced_ops;  ///< sub-scenario 0 only
  std::size_t last_traced_op = 0;

  // The measurement window: a closed batch of whole runs.  Traced runs
  // alternate an untraced and a traced op of the same sub-scenario, so both
  // see the same host state.
  const std::int64_t window_start = now_ns();
  const auto more = [&] {
    if (seconds_between(window_start, now_ns()) < opt.seconds) return true;
    for (const SubScenario<Tier>& s : subs) {
      if (s.round_ms.size() < kMinTimedReps) return true;
    }
    return opt.trace && traced_ops.empty();
  };
  for (std::size_t index = 0; index == 0 || more(); ++index) {
    const bool traced_turn = opt.trace && index % 2 == 1;
    const std::size_t k = (opt.trace ? index / 2 : index) % subs.size();
    SubScenario<Tier>& sub = subs[k];
    const std::size_t id =
        report.op(tier_name + (traced_turn ? " traced op " : " op ") + std::to_string(index) +
                  " (scenario " + std::to_string(k) + ")");
    try {
      std::vector<double> rounds;
      TracedOp traced;
      if (!opt.trace) calibration.bracket(clock);
      OpResult<Tier> op =
          drive<Tier>(sub.spec, threads, &rounds, traced_turn ? &traced : nullptr, clock);
      report.check(op.fp.finite(), "non-finite outcome", {id});
      if (sub.first) {
        report.check(op.fp == sub.first->fp,
                     traced_turn ? "traced run differs from the untraced run"
                                 : "repeated run is not deterministic",
                     {id, sub.first_op});
      }
      if (traced_turn) {
        sub.traced_step_s.push_back(op.step_s);
        if (k == 0) {
          traced_ops.push_back(std::move(traced));
          last_traced_op = id;
        }
      } else {
        sub.untraced_step_s.push_back(op.step_s);
        sub.round_ms.push_back(std::move(rounds));
        if (!opt.trace) calibration.bracket(clock);
        setup.burst([&] { return setup_once(sub.spec); });
        if (!sub.first) {
          sub.first.emplace(std::move(op));
          sub.first_op = id;
        }
      }
    } catch (const std::exception& e) {
      report.fail(id, std::string("threw: ") + e.what());
      return;
    }
  }

  // Outside the window: the A/B checks on sub-scenario 0, at full width.
  const fsc::ScenarioSpec& spec = subs.front().spec;
  check_short_runs<Tier>(spec, opt.threads, report, tier_name);

  if (!opt.trace) {
    paper_anchor(opt, report);
    // Timing (analysis.hpp, Calibration): every sub-scenario's per-round
    // midmeans over its untraced ops, scaled by the calibration factor,
    // summed for the whole-run stepping time and pooled for the round
    // percentiles.
    double lane_substeps = 0.0;
    double violation = 0.0;
    double fan_kwh = 0.0;
    double max_tj = 0.0;
    double step_ms = 0.0;
    std::vector<double> rounds;
    const double factor = calibration.factor();
    for (std::size_t k = 0; k < subs.size(); ++k) {
      const SubScenario<Tier>& s = subs[k];
      print_window(tier_name + " scenario " + std::to_string(k), s.untraced_step_s, 0);
      lane_substeps += static_cast<double>(s.first->lanes) *
                       static_cast<double>(s.first->substeps);
      violation += s.first->result.deadline_violation_percent;
      fan_kwh += s.first->result.fan_energy_joules / 3.6e6;
      max_tj = std::max(max_tj, s.first->fp.max_junction_c);
      for (const double ms : per_index_midmean(s.round_ms)) {
        step_ms += ms * factor;
        rounds.push_back(ms * factor);
      }
    }
    print_calibration(calibration);
    print_pooled_rounds(tier_name, rounds.size());
    const double n = static_cast<double>(subs.size());
    report.set("ns_per_server_substep", step_ms * 1e6 / lane_substeps);
    report.set("round_ms_p50", tail_quantile(rounds, 0.50));
    report.set("round_ms_p95", tail_quantile(rounds, 0.95));
    report.set("setup_s", setup.estimate() * factor);
    report.set("peak_rss_mib", peak_rss_mib());
    report.set("deadline_violation_pct", violation / n);
    report.set("fan_energy_kwh", fan_kwh / n);
    report.set("max_junction_c", max_tj);
    return;
  }

  // ---- per-layer (traced) numbers, from sub-scenario 0's traced ops
  const OpResult<Tier>& first = *subs.front().first;
  SelfTime shard;
  SelfTime serial;
  RoundTotals totals;
  MemoCounts memo;
  for (const TracedOp& t : traced_ops) {
    const auto sit = t.self.find("batch.run_shard");
    if (sit != t.self.end()) {
      shard.self_ns += sit->second.self_ns;
      shard.count += sit->second.count;
    }
    const auto cit = t.self.find(Tier::kSerial);
    if (cit != t.self.end()) {
      serial.self_ns += cit->second.self_ns;
      serial.count += cit->second.count;
    }
    totals.merge(t.totals);
    memo += t.memo;
  }
  const double lane_substeps = static_cast<double>(first.lanes) *
                               static_cast<double>(first.substeps) *
                               static_cast<double>(traced_ops.size());
  const double shard_ns = static_cast<double>(shard.self_ns) / lane_substeps;
  report.set("batch.shard_ns_per_lane_substep", shard_ns);
  memo.report(report);
  report.set("util.barrier_wait_pct", totals.barrier_wait_pct());
  report.set("util.shard_imbalance", totals.shard_imbalance());
  report.set("util.round_accounted_pct", totals.accounted_pct());
  report.check(std::fabs(totals.accounted_pct() - 100.0) <= 5.0,
               "shard + barrier wait + serial work miss the round wall time by more than 5%",
               {last_traced_op});
  double traced_s = 0.0;
  double untraced_s = 0.0;
  for (const SubScenario<Tier>& s : subs) {
    if (s.traced_step_s.empty()) continue;
    traced_s += median(s.traced_step_s);
    untraced_s += median(s.untraced_step_s);
  }
  report.set("obs.trace_overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
  if constexpr (std::is_same_v<Tier, RoomTier>) {
    report.set("room.session_setup_ms", setup.estimate() * 1e3);
    report.set("room.finish_round_us", serial.self_ns_per_call() * 1e-3);
    report.set("room.serial_pct", totals.serial_pct());
    report.set("room.migration_rounds", static_cast<double>(first.result.migration_events));
  }

  report.run_op(tier_name + " side runs: kernel and gather", [&] {
    const SideRuns side = side_runs(Tier::racks(Tier::build(spec)), kShortRunS);
    report.set("batch.kernel_ns_per_lane_substep", side.kernel_ns_per_lane_substep);
    report.set("batch.nonkernel_ratio", shard_ns / side.kernel_ns_per_lane_substep);
    if constexpr (std::is_same_v<Tier, RoomTier>) {
      report.set("workload.gather_ns_per_lane_period", side.gather_ns_per_lane_period);
    }
  });

  write_trace(opt, *traced_ops.back().recorder, report, last_traced_op);
}

// ------------------------------------------------------------- workloads

/// 256 distinct seeded variants of the bundled example traces, fitted with
/// trace_fit and packed with TracePackWriter (untimed input preparation).
struct PackInfo {
  std::string path;
  std::size_t distinct_columns = 0;
};

PackInfo write_room_pack(const Options& opt, std::size_t traces, double duration_s) {
  const auto sources = fsc::load_trace_dir(opt.source_root + "/examples/traces");
  if (sources.empty()) throw std::runtime_error("no traces under examples/traces");
  std::vector<fsc::TraceFit> fits;
  for (const auto& s : sources) fits.push_back(fsc::fit_trace(*s));
  fsc::TracePackWriter writer;
  for (std::size_t i = 0; i < traces; ++i) {
    const fsc::TraceFit& fit = fits[i % fits.size()];
    const auto n = static_cast<std::size_t>(std::ceil(duration_s / fit.sample_period_s)) + 1;
    writer.add_trace("variant-" + std::to_string(i),
                     fsc::synthesize_samples(fit, n, fsc::derive_seed(opt.seed, i)),
                     fit.sample_period_s);
  }
  PackInfo info;
  info.path = opt.out_dir + "/room256-seed" + std::to_string(opt.seed) + ".fst";
  writer.write(info.path);
  info.distinct_columns = writer.unique_columns();
  return info;
}


/// rack64-contended: 64 slots, the contended rack scenario under a power
/// budget of 85 % of the aggregate peak draw (64 x 160 W), which binds in
/// every high phase of the 0.25 <-> 0.85 spiky load.  Seeded as run_fleet
/// seeds its sub-scenario 0.
fsc::ScenarioSpec rack64_spec(const Options& opt, double duration_s) {
  fsc::ScenarioSpec s;
  s.seed = fsc::derive_seed(opt.seed, 0);
  s.threads = opt.threads;
  s.racks = 1;
  s.slots = 64;
  s.duration_s = duration_s;
  s.dtm = "r-coord+a-tref+ss-fan";
  s.coordinator = "power-budget";
  s.rack_budget_watts = 0.85 * 64.0 * 160.0;
  return s;
}

/// The coordination layer on its own: RoomEngine::Session::finish_round
/// runs each rack's coordinate_round inside it, out of reach of the
/// benchmark's spans.  One simulated hour of rack64-contended (its
/// sub-scenario 0), traced at full width and at 1 thread, gives coord.* and
/// batch.shard_inflation.
void probe_rack_layers(const Options& opt, Report& report) {
  const fsc::ScenarioSpec spec = rack64_spec(opt, 3600.0);
  const auto shard_ns = [](TracedOp& t, const OpResult<RackTier>& op) {
    return static_cast<double>(t.self["batch.run_shard"].self_ns) /
           (static_cast<double>(op.lanes) * static_cast<double>(op.substeps));
  };
  std::optional<OpResult<RackTier>> wide;
  double wide_shard_ns = 0.0;
  report.run_op("rack64 probe, traced at " + std::to_string(opt.threads) + " threads", [&] {
    std::vector<double> rounds;
    TracedOp traced;
    wide.emplace(drive<RackTier>(spec, opt.threads, &rounds, &traced));
    wide_shard_ns = shard_ns(traced, *wide);
    const SelfTime& coord = traced.self["coord.coordinate_round"];
    report.set("coord.session_setup_ms", wide->setup_s * 1e3);
    report.set("coord.coordinate_us_per_round", coord.self_ns_per_call() * 1e-3);
    report.set("coord.serial_pct", traced.totals.serial_pct());
  });
  const std::size_t a = report.attempted() - 1;
  report.run_op("rack64 probe, traced at 1 thread", [&] {
    std::vector<double> rounds;
    TracedOp one;
    const OpResult<RackTier> op = drive<RackTier>(spec, 1, &rounds, &one);
    report.check(wide && op.fp == wide->fp, "1-thread and full-width probes disagree",
                 {a, report.attempted() - 1});
    // How much each shard slows down when it shares the host with the
    // other participants.
    report.set("batch.shard_inflation", wide_shard_ns / shard_ns(one, op));
  });
}

}  // namespace

void run_rack64(const Options& opt, Report& report) {
  run_fleet<RackTier>(opt, report, rack64_spec(opt, 6.0 * 3600.0), "rack64", kScenarios);
  if (opt.trace) probe_rack_layers(opt, report);
}

void run_room256(const Options& opt, Report& report) {
  fsc::ScenarioSpec s;
  s.racks = 16;
  s.slots = 16;
  s.duration_s = 3600.0;
  s.scheduler = "thermal-headroom";
  s.cross_plenum = true;
  const PackInfo pack = write_room_pack(opt, s.racks * s.slots, s.duration_s);
  s.trace_pack = pack.path;

  if (opt.trace) {
    // The pack itself: size, distinct columns, and open cost (median of
    // several opens; build_room opens it once per op inside setup_s).
    std::vector<double> open_ms;
    for (int i = 0; i < 7; ++i) {
      const std::int64_t b = now_ns();
      const auto store = fsc::TraceStore::open(pack.path);
      const auto lanes = fsc::workloads_from_store(store);
      open_ms.push_back(static_cast<double>(now_ns() - b) * 1e-6);
      if (lanes.size() != s.racks * s.slots) throw std::runtime_error("pack lane count");
    }
    report.set("workload.pack_open_ms", median(open_ms));
    report.set("workload.pack_mib",
               static_cast<double>(std::filesystem::file_size(pack.path)) / (1024.0 * 1024.0));
    report.set("workload.distinct_columns", static_cast<double>(pack.distinct_columns));
  }
  // A 40-minute room's deadline-violation share varies more from one draw
  // of the fleet to the next than the longer tiers' do, so the room
  // averages twice as many.
  run_fleet<RoomTier>(opt, report, s, "room256", 2 * kScenarios);
  if (opt.trace) {
    // The rack and paper workloads' layers, and rack64-contended's A/B
    // checks (its scalar oracle included) as run_rack64 makes them.
    probe_rack_layers(opt, report);
    check_short_runs<RackTier>(rack64_spec(opt, kShortRunS), opt.threads, report, "rack64");
    probe_sim_layers(opt, report);
  }
}

}  // namespace perfbench

// The facility workload: 4 rooms x 8 racks x 16 slots against one
// finite cooling plant, run through FacilityEngine::run() — the only
// workload through facility/ (plant water-fill, cross-room barriers, the
// two-level executor).  run() is monolithic, so the benchmark observes it
// from the outside: a ProgressMeter heartbeat fires once per facility
// barrier, and the stream it writes to timestamps every flush; traced runs
// additionally attach the engine's own metrics registry and trace recorder.
// The attached meter turns on the engine's telemetry path, which a plain
// run() does not pay: a clock read per room round and a bookkeeping call
// per barrier (README gives its measured cost).
#include <cmath>
#include <optional>
#include <ostream>
#include <streambuf>
#include <vector>

#include "common.hpp"
#include "facility/facility_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

/// A discarding stream buffer that records the time on `clock` of every
/// flush.  ProgressMeter writes one line per tick and flushes it, so the
/// timestamps are the facility barriers as they happen.
class BarrierClock : public std::streambuf {
 public:
  explicit BarrierClock(Clock clock) : clock_(clock) {}
  std::vector<std::int64_t> flushes;

 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  int sync() override {
    flushes.push_back(clock_());
    return 0;
  }

 private:
  Clock clock_;
};

Fingerprint fingerprint(const fsc::FacilityResult& r) {
  double max_tj = 0.0;
  for (const fsc::FacilityRoomSummary& room : r.rooms) {
    max_tj = std::max(max_tj, room.result.max_junction_stats.max());
  }
  return Fingerprint{r.fan_energy_joules, r.cpu_energy_joules,
                     r.pooled_deadline_violations(), max_tj};
}

struct FacilityOp {
  double run_s = 0.0;
  double substeps = 0.0;  ///< per server
  std::vector<double> round_ms;  ///< barrier-to-barrier wall times
  fsc::FacilityResult result;
  Fingerprint fp;
  std::uint64_t barrier_wait_ns = 0;
  double room_round_ns_mean = 0.0;
  MemoCounts memo;
};

FacilityOp drive(const fsc::ScenarioSpec& spec, std::size_t threads,
                 fsc::obs::TraceRecorder* trace, Clock clock_fn) {
  FacilityOp op;
  BarrierClock clock(clock_fn);
  std::ostream heartbeat(&clock);
  fsc::obs::ProgressMeter meter(spec.duration_s, 0.0, &heartbeat);
  std::optional<fsc::obs::MetricsRegistry> registry;

  fsc::FacilityParams params = spec.build_facility();
  params.obs.progress = &meter;
  if (trace != nullptr) {
    registry.emplace(threads);
    params.obs.metrics = &*registry;
    params.obs.trace = trace;
  }
  const fsc::FacilityEngine engine(params, threads);
  const std::int64_t t1 = clock_fn();
  op.result = engine.run();
  const std::int64_t t2 = clock_fn();

  op.run_s = seconds_between(t1, t2);
  op.fp = fingerprint(op.result);
  const fsc::SimulationParams& sim = params.rooms.front().racks.front().rack.sim;
  op.substeps = std::round(sim.duration_s / sim.physics_dt_s);
  // One round per facility period, delimited by the heartbeats; the first
  // also covers the room sessions run() builds before stepping.
  std::int64_t prev = t1;
  for (const std::int64_t flush : clock.flushes) {
    op.round_ms.push_back(static_cast<double>(flush - prev) * 1e-6);
    prev = flush;
  }
  if (registry) {
    const fsc::obs::MetricsRegistry::Snapshot snap = registry->snapshot();
    op.barrier_wait_ns = snap.counter("facility.barrier_wait_ns");
    op.memo = MemoCounts::read(*registry);
    double sum = 0.0;
    std::size_t rooms = 0;
    for (const auto& h : snap.histograms) {
      if (h.name.rfind("facility.room", 0) == 0 && h.count > 0) {
        sum += h.mean;
        ++rooms;
      }
    }
    op.room_round_ns_mean = rooms > 0 ? sum / static_cast<double>(rooms) : 0.0;
  }
  return op;
}

}  // namespace

/// One sub-scenario's ops in the window.
struct FacilitySub {
  fsc::ScenarioSpec spec;
  std::vector<std::vector<double>> round_ms;  ///< per untraced op
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::optional<FacilityOp> first;
  std::size_t first_op = 0;
};

void run_facility512(const Options& opt, Report& report) {
  fsc::ScenarioSpec spec;
  spec.rooms = 4;
  spec.racks = 8;
  spec.slots = 16;
  spec.duration_s = 3600.0;
  spec.scheduler = "thermal-headroom";
  spec.facility_period_s = 300.0;
  spec.supply_amplitude_c = 2.0;
  // Between the per-barrier heat loads of this fleet (~62-64 kW): the
  // plant saturates at some barriers and not at others.
  spec.plant_capacity_watts = 63000.0;
  spec.threads = opt.threads;
  const std::size_t servers = spec.rooms * spec.racks * spec.slots;
  // Ops of the measurement window (kTimedThreads): untraced ones on one
  // thread through the flat executor — the two-level one gives every room
  // its own participant at any thread count — in CPU time; traced ones
  // two-level at full width in wall time.
  const std::size_t threads = opt.trace ? opt.threads : kTimedThreads;
  const Clock clock = opt.trace ? now_ns : cpu_ns;
  std::vector<FacilitySub> subs(kScenarios);
  for (std::size_t k = 0; k < subs.size(); ++k) {
    subs[k].spec = spec;
    subs[k].spec.seed = fsc::derive_seed(opt.seed, k);
    subs[k].spec.threads = threads;
    subs[k].spec.two_level = opt.trace;
  }

  SetupBursts setup;
  Calibration calibration;  ///< one repetition per untraced op (timed runs)
  std::optional<FacilityOp> last_traced;
  std::unique_ptr<fsc::obs::TraceRecorder> last_recorder;
  std::size_t last_traced_op = 0;
  // Set-up is build_facility and the engine; run() builds the room sessions
  // itself, so they count as stepping.
  const auto setup_once = [threads, clock](const fsc::ScenarioSpec& s) {
    const std::int64_t t0 = clock();
    const fsc::FacilityEngine engine(s.build_facility(), threads);
    return seconds_between(t0, clock());
  };

  // The measurement window cycles through the sub-scenarios; traced runs
  // alternate an untraced and a traced op of the same sub-scenario.
  const std::int64_t window_start = now_ns();
  const auto more = [&] {
    if (seconds_between(window_start, now_ns()) < opt.seconds) return true;
    for (const FacilitySub& s : subs) {
      if (s.round_ms.size() < kMinTimedReps) return true;
    }
    return opt.trace && !last_traced;
  };
  for (std::size_t index = 0; index == 0 || more(); ++index) {
    const bool traced_turn = opt.trace && index % 2 == 1;
    const std::size_t k = (opt.trace ? index / 2 : index) % subs.size();
    FacilitySub& sub = subs[k];
    const std::size_t id = report.op(std::string("facility512") +
                                     (traced_turn ? " traced op " : " op ") +
                                     std::to_string(index) + " (scenario " +
                                     std::to_string(k) + ")");
    try {
      auto recorder = traced_turn ? std::make_unique<fsc::obs::TraceRecorder>() : nullptr;
      if (!opt.trace) calibration.bracket(clock);
      FacilityOp op = drive(sub.spec, threads, recorder.get(), traced_turn ? now_ns : clock);
      report.check(op.fp.finite(), "non-finite outcome", {id});
      if (sub.first) {
        report.check(op.fp == sub.first->fp,
                     traced_turn ? "traced run differs from the untraced run"
                                 : "repeated run is not deterministic",
                     {id, sub.first_op});
      }
      if (traced_turn) {
        sub.traced_s.push_back(op.run_s);
        last_traced.emplace(std::move(op));
        last_recorder = std::move(recorder);
        last_traced_op = id;
      } else {
        sub.untraced_s.push_back(op.run_s);
        sub.round_ms.push_back(op.round_ms);
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

  // ROADMAP 3c: a meaningful operating point is plant-bound at some
  // barriers, not all of them.
  std::size_t saturated = 0;
  std::size_t barriers = 0;
  for (const FacilitySub& s : subs) {
    const fsc::FacilityResult& r = s.first->result;
    report.check(r.plant_saturated_rounds > 0 && r.plant_saturated_rounds < r.facility_rounds,
                 "plant saturated at " + std::to_string(r.plant_saturated_rounds) + " of " +
                     std::to_string(r.facility_rounds) + " barriers (need some but not all)",
                 {s.first_op});
    saturated += r.plant_saturated_rounds;
    barriers += r.facility_rounds;
  }

  // Executor and thread-count A/B on a shortened run of sub-scenario 0: the
  // default two-level executor at full width against the flat executor on
  // 1 thread.
  fsc::ScenarioSpec short_spec = subs.front().spec;
  short_spec.duration_s = 1800.0;
  short_spec.threads = opt.threads;
  short_spec.two_level = true;
  std::optional<Fingerprint> wide;
  report.run_op("facility512 check: two-level, " + std::to_string(opt.threads) + " threads",
                [&] { wide = fingerprint(fsc::FacilityEngine(short_spec.build_facility(),
                                                             opt.threads).run()); });
  const std::size_t a = report.attempted() - 1;
  report.run_op("facility512 check: flat, 1 thread", [&] {
    fsc::ScenarioSpec flat = short_spec;
    flat.two_level = false;
    const Fingerprint one = fingerprint(fsc::FacilityEngine(flat.build_facility(), 1).run());
    report.check(wide && one == *wide, "flat 1-thread and two-level runs disagree",
                 {a, report.attempted() - 1});
  });

  if (!opt.trace) {
    paper_anchor(opt, report);
    // Every sub-scenario's per-round midmeans over its untraced ops
    // (analysis.hpp), scaled by the calibration factor.  Stepping time is
    // the sum over every round, the first included: it also builds the room
    // sessions, which run() does itself.  The round percentiles pool the
    // sub-scenarios' rounds but leave each first round out, so every one of
    // them steps one facility period.
    double step_ms = 0.0;
    double lane_substeps = 0.0;
    double violation = 0.0;
    double fan_kwh = 0.0;
    double max_tj = 0.0;
    std::vector<double> periods;
    const double factor = calibration.factor();
    for (std::size_t k = 0; k < subs.size(); ++k) {
      const FacilitySub& s = subs[k];
      print_window("facility512 scenario " + std::to_string(k), s.untraced_s, 0);
      const std::vector<double> profile = per_index_midmean(s.round_ms);
      for (std::size_t i = 0; i < profile.size(); ++i) {
        step_ms += profile[i] * factor;
        if (i > 0) periods.push_back(profile[i] * factor);
      }
      lane_substeps += static_cast<double>(servers) * s.first->substeps;
      violation += s.first->result.deadline_violation_percent;
      fan_kwh += s.first->result.fan_energy_joules / 3.6e6;
      max_tj = std::max(max_tj, s.first->fp.max_junction_c);
    }
    print_calibration(calibration);
    print_pooled_rounds("facility512", periods.size());
    const double n = static_cast<double>(subs.size());
    report.set("ns_per_server_substep", step_ms * 1e6 / lane_substeps);
    report.set("round_ms_p50", tail_quantile(periods, 0.50));
    report.set("round_ms_p95", tail_quantile(periods, 0.95));
    report.set("setup_s", setup.estimate() * factor);
    report.set("peak_rss_mib", peak_rss_mib());
    report.set("deadline_violation_pct", violation / n);
    report.set("fan_energy_kwh", fan_kwh / n);
    report.set("max_junction_c", max_tj);
    return;
  }

  const FacilityOp& t = *last_traced;
  report.set("facility.barrier_wait_pct",
             100.0 * static_cast<double>(t.barrier_wait_ns) /
                 (static_cast<double>(spec.rooms) * t.run_s * 1e9));
  report.set("facility.room_round_us_mean", t.room_round_ns_mean * 1e-3);
  report.set("facility.saturated_barrier_pct",
             100.0 * static_cast<double>(saturated) / static_cast<double>(barriers));
  t.memo.report(report);
  std::size_t migrations = 0;
  for (const fsc::FacilityRoomSummary& room : t.result.rooms) {
    migrations += room.result.migration_events;
  }
  report.set("room.migration_rounds", static_cast<double>(migrations));
  double traced_s = 0.0;
  double untraced_s = 0.0;
  for (const FacilitySub& s : subs) {
    if (s.traced_s.empty()) continue;
    traced_s += median(s.traced_s);
    untraced_s += median(s.untraced_s);
  }
  report.set("obs.trace_overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));

  write_trace(opt, *last_recorder, report, last_traced_op);
}

}  // namespace perfbench

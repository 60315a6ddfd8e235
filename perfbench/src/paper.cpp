// The paper workload: Table III's five solutions on the paper's §VI-A
// scenario over a few seeds, single-threaded, through the scalar
// Server::step oracle path, the controllers, and the InstrumentationSink
// fan-out the fleet workloads never touch.
//
// Each (solution, seed) pair is the run fsc::run_solution() performs,
// assembled from the same public pieces (workload, server, PolicyFactory
// policy, SimulationEngine with the standard sinks) so its set-up and its
// stepping can be timed apart.  A round is one CPU control period.  Traced
// runs decompose a sample of periods into the Session's phases
// (begin_period, Server::step, note_substep, finish_period) with spans.
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/policy_factory.hpp"
#include "sim/experiment.hpp"
#include "sim/instrumentation.hpp"
#include "span_log.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

/// One period in this many is decomposed into phase spans when traced.  Odd,
/// so the sample does not lock onto power-of-two events such as the trace
/// sink's vector doubling (every run reallocates at period 4096).
constexpr long kSampleEvery = 127;
/// Untraced sweeps whose per-period times are kept (the buffer is
/// allocated and touched up front, so peak RSS does not depend on how many
/// sweeps fit in the window).
constexpr std::size_t kMaxProfiledOps = 16;

/// Everything one solution run owns, at a stable address (the Session
/// keeps references), constructed in run_solution()'s order.
struct PaperRun {
  fsc::Rng rng;
  std::unique_ptr<fsc::SampledWorkload> workload;
  fsc::Server server;
  std::unique_ptr<fsc::DtmPolicy> policy;
  fsc::SimulationEngine engine;
  fsc::TraceRecorderSink trace;
  fsc::DeadlineStatsSink deadline;
  fsc::ThermalViolationSink thermal;
  fsc::EnergyAccumulatorSink energy;
  std::unique_ptr<fsc::SimulationEngine::Session> session;

  PaperRun(fsc::SolutionKind kind, const fsc::ComparisonScenario& s)
      : rng(s.seed),
        workload(fsc::make_spiky_workload(s.workload, rng)),
        server(s.server, s.solution.initial_fan_rpm, rng),
        policy(fsc::PolicyFactory::instance().make(fsc::solution_key(kind), s.solution)),
        engine(s.sim) {
    if (s.sim.record_trace) engine.add_sink(&trace);
    engine.add_sink(&deadline);
    engine.add_sink(&thermal);
    engine.add_sink(&energy);
    session = std::make_unique<fsc::SimulationEngine::Session>(engine, server, *policy,
                                                               *workload);
  }

  SolutionRow row() const {
    return SolutionRow{deadline.deadline().violation_percent(), energy.fan_energy_joules(),
                       Fingerprint{energy.fan_energy_joules(), energy.cpu_energy_joules(),
                                   deadline.deadline().violations(),
                                   thermal.junction_stats().max()}};
  }
};

std::vector<std::unique_ptr<PaperRun>> build_runs(
    const std::vector<fsc::ComparisonScenario>& scenarios) {
  std::vector<std::unique_ptr<PaperRun>> runs;
  for (const fsc::ComparisonScenario& s : scenarios) {
    for (const fsc::SolutionKind kind : fsc::all_solutions()) {
      runs.push_back(std::make_unique<PaperRun>(kind, s));
    }
  }
  return runs;
}

struct SweepOp {
  double step_s = 0.0;
  double substeps = 0.0;  ///< summed over every run
  std::vector<std::vector<SolutionRow>> rows;  ///< [seed][solution]
  std::map<std::string, SelfTime> self;        ///< traced only
};

/// One sweep: build every (seed, solution) run, then step each to the end.
/// `round_ms`, when set, receives every control period's wall time.
SweepOp sweep(const std::vector<fsc::ComparisonScenario>& scenarios, float* round_ms,
              fsc::obs::TraceRecorder* recorder) {
  SweepOp op;
  const std::vector<std::unique_ptr<PaperRun>> runs = build_runs(scenarios);
  const std::int64_t t1 = now_ns();

  std::optional<SpanLog> log;
  if (recorder != nullptr) log.emplace(*recorder, 1);
  std::size_t period = 0;
  for (const auto& run : runs) {
    fsc::SimulationEngine::Session& session = *run->session;
    const double dt = session.params().physics_dt_s;
    const long substeps = session.physics_per_period();
    std::int64_t prev = now_ns();
    for (long k = 0; !session.done(); ++k) {
      if (!log || k % kSampleEvery != kSampleEvery / 2) {
        session.step_period();
      } else {
        // Exactly step_period(), phase by phase (SimulationEngine docs).
        const std::int64_t p0 = now_ns();
        session.begin_period();
        const std::int64_t p1 = now_ns();
        log->add("sim.begin_period", "sim", p0, p1, 0, k);
        for (long i = 0; i < substeps; ++i) {
          const std::int64_t a = now_ns();
          run->server.step(session.period_executed(), dt);
          const std::int64_t b = now_ns();
          session.note_substep();
          const std::int64_t c = now_ns();
          log->add("sim.server_step", "sim", a, b, 0, k);
          log->add("sim.note_substep", "sim", b, c, 0, k);
        }
        const std::int64_t f0 = now_ns();
        session.finish_period();
        const std::int64_t f1 = now_ns();
        log->add("sim.finish_period", "sim", f0, f1, 0, k);
        log->add("sim.period", "sim", p0, f1, 0, k);
      }
      const std::int64_t t = now_ns();
      if (round_ms != nullptr) {
        round_ms[period] = static_cast<float>(static_cast<double>(t - prev) * 1e-6);
      }
      ++period;
      prev = t;
    }
    session.finish();
    op.substeps += static_cast<double>(session.total_periods() * substeps);
  }
  const std::int64_t t2 = now_ns();
  op.step_s = seconds_between(t1, t2);

  op.rows.assign(scenarios.size(), {});
  std::size_t r = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t k = 0; k < fsc::all_solutions().size(); ++k) {
      op.rows[s].push_back(runs[r++]->row());
    }
  }
  if (log) op.self = self_times(log->all());
  return op;
}

/// sim.* metrics: mean self time per call of each Session phase.
void report_sim_layers(const std::map<std::string, SelfTime>& self, Report& report) {
  const auto per_call = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.self_ns_per_call();
  };
  report.set("sim.begin_period_ns", per_call("sim.begin_period"));
  report.set("sim.server_step_ns", per_call("sim.server_step"));
  report.set("sim.note_substep_ns", per_call("sim.note_substep"));
  report.set("sim.finish_period_ns", per_call("sim.finish_period"));
}

bool same_rows(const std::vector<std::vector<SolutionRow>>& a,
               const std::vector<std::vector<SolutionRow>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].size() != b[s].size()) return false;
    for (std::size_t k = 0; k < a[s].size(); ++k) {
      if (a[s][k].fp != b[s][k].fp) return false;
    }
  }
  return true;
}

/// The Session-driven runs must be exactly what fsc::run_solution() does:
/// one op per (seed, solution), checked against rows[seed][solution] of
/// op `reference_op`.
void check_against_run_solution(const std::vector<fsc::ComparisonScenario>& scenarios,
                                const std::vector<std::vector<SolutionRow>>& rows,
                                const std::string& label, Report& report,
                                std::size_t reference_op) {
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t k = 0; k < fsc::all_solutions().size(); ++k) {
      const fsc::SolutionKind kind = fsc::all_solutions()[k];
      report.run_op(label + " check: run_solution " + fsc::to_string(kind) + " seed #" +
                        std::to_string(s),
                    [&] {
                      const fsc::SimulationResult r = fsc::run_solution(kind, scenarios[s]);
                      const Fingerprint fp{r.fan_energy_joules, r.cpu_energy_joules,
                                           r.deadline.violations(), r.junction_stats.max()};
                      report.check(fp == rows[s][k].fp,
                                   "Session-driven run differs from run_solution",
                                   {report.attempted() - 1, reference_op});
                    });
    }
  }
}

}  // namespace

void probe_sim_layers(const Options& opt, Report& report) {
  const std::vector<fsc::ComparisonScenario> scenarios = {paper_scenarios(opt.seed).front()};
  std::optional<SweepOp> op;
  report.run_op("paper probe, traced Session phases", [&] {
    fsc::obs::TraceRecorder recorder(std::size_t{1} << 17);
    op.emplace(sweep(scenarios, nullptr, &recorder));
    report_sim_layers(op->self, report);
  });
  // The phase-by-phase periods the probe spans must not change the runs.
  if (op) {
    check_against_run_solution(scenarios, op->rows, "paper probe", report,
                               report.attempted() - 1);
  }
}

void run_paper_sweep(const Options& opt, Report& report) {
  const std::vector<fsc::ComparisonScenario> scenarios = paper_scenarios(opt.seed);

  std::size_t periods = 0;
  for (const auto& run : build_runs(scenarios)) {
    periods += static_cast<std::size_t>(run->session->total_periods());
  }
  std::vector<float> profile_buf(kMaxProfiledOps * periods, 0.0f);
  std::size_t profiled = 0;

  SetupBursts setup;
  const auto setup_once = [&scenarios] {
    const std::int64_t t0 = now_ns();
    const auto runs = build_runs(scenarios);
    return seconds_between(t0, now_ns());
  };
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::optional<SweepOp> first;
  std::optional<SweepOp> last_traced;
  std::unique_ptr<fsc::obs::TraceRecorder> last_recorder;
  std::size_t reference_op = 0;
  std::size_t last_traced_op = 0;

  const std::int64_t window_start = now_ns();
  const auto more = [&] {
    return seconds_between(window_start, now_ns()) < opt.seconds || profiled < kBlockReps ||
           (opt.trace && !last_traced);
  };
  for (std::size_t index = 0; index == 0 || more(); ++index) {
    const bool traced_turn = opt.trace && index % 2 == 1;
    const std::size_t id = report.op(std::string("paper-sweep") +
                                     (traced_turn ? " traced op " : " op ") +
                                     std::to_string(index));
    try {
      auto recorder = traced_turn ? std::make_unique<fsc::obs::TraceRecorder>(std::size_t{1} << 17)
                                  : nullptr;
      float* rounds = !traced_turn && profiled < kMaxProfiledOps
                          ? profile_buf.data() + profiled * periods
                          : nullptr;
      SweepOp op = sweep(scenarios, rounds, recorder.get());
      if (rounds != nullptr) ++profiled;
      if (!first) {
        reference_op = id;
      } else {
        report.check(same_rows(op.rows, first->rows),
                     traced_turn ? "traced run differs from the untraced run"
                                 : "repeated run is not deterministic",
                     {id, reference_op});
      }
      if (traced_turn) {
        traced_s.push_back(op.step_s);
        last_traced.emplace(std::move(op));
        last_recorder = std::move(recorder);
        last_traced_op = id;
      } else {
        untraced_s.push_back(op.step_s);
        setup.burst(setup_once);
        if (!first) first.emplace(std::move(op));
      }
    } catch (const std::exception& e) {
      report.fail(id, std::string("threw: ") + e.what());
      return;
    }
  }


  check_against_run_solution(scenarios, first->rows, "paper-sweep", report, reference_op);
  const PaperOutcome paper = paper_outcome(first->rows, report, reference_op);

  if (!opt.trace) {
    // Per-period minima over each block of kBlockReps profiled sweeps
    // (analysis.hpp); the metrics are medians over the blocks.
    print_window("paper-sweep", untraced_s, periods);
    std::vector<double> ns;
    std::vector<double> p50;
    std::vector<double> p95;
    for (std::size_t j = 0; j < complete_blocks(profiled); ++j) {
      const std::vector<double> profile =
          per_index_min(kBlockReps, periods, [&](std::size_t r, std::size_t i) {
            return profile_buf[(j * kBlockReps + r) * periods + i];
          });
      ns.push_back(sum(profile) * 1e6 / first->substeps);
      p50.push_back(tail_quantile(profile, 0.50));
      p95.push_back(tail_quantile(profile, 0.95));
    }
    report.set("ns_per_server_substep", median(ns));
    report.set("round_ms_p50", median(p50));
    report.set("round_ms_p95", median(p95));
    report.set("setup_s", setup.estimate());
    report.set("peak_rss_mib", peak_rss_mib());
    report.set("deadline_violation_pct", paper.violation_pct);
    report.set("fan_energy_kwh", paper.fan_kwh);
    report.set("max_junction_c", paper.max_junction_c);
    report.set("paper_gain_gap_pts", paper.gain_gap_pts);
    report.set("paper_fan_ratio_gap", paper.fan_ratio_gap);
    report.set("paper_ordering_pct", paper.ordering_pct);
    return;
  }

  report_sim_layers(last_traced->self, report);
  report.set("obs.trace_overhead_pct", 100.0 * (median(traced_s) / median(untraced_s) - 1.0));

  write_trace(opt, *last_recorder, report, last_traced_op);
}

}  // namespace perfbench

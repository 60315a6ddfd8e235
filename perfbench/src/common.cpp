#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/solutions.hpp"
#include "obs/manifest.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"ns_per_server_substep", "ns"},
    {"round_ms_p50", "ms"},
    {"round_ms_p95", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"deadline_violation_pct", "%"},
    {"fan_energy_kwh", "kWh"},
    {"max_junction_c", "degC"},
    {"paper_gain_gap_pts", "pts"},
    {"paper_fan_ratio_gap", "ratio"},
    {"paper_ordering_pct", "%"},
    {"ok_ops_pct", "%"},
};

const std::vector<MetricDef> kPerLayer = {
    {"batch.shard_ns_per_lane_substep", "ns"},
    {"batch.kernel_ns_per_lane_substep", "ns"},
    {"batch.nonkernel_ratio", "ratio"},
    {"batch.memo_hit_pct", "%"},
    {"batch.memo_shared_hit_pct", "%"},
    {"batch.shard_inflation", "ratio"},
    {"util.barrier_wait_pct", "%"},
    {"util.shard_imbalance", "ratio"},
    {"util.round_accounted_pct", "%"},
    {"coord.session_setup_ms", "ms"},
    {"coord.coordinate_us_per_round", "us"},
    {"coord.serial_pct", "%"},
    {"room.session_setup_ms", "ms"},
    {"room.finish_round_us", "us"},
    {"room.serial_pct", "%"},
    {"room.migration_rounds", "count"},
    {"workload.pack_open_ms", "ms"},
    {"workload.gather_ns_per_lane_period", "ns"},
    {"workload.pack_mib", "MiB"},
    {"workload.distinct_columns", "count"},
    {"facility.barrier_wait_pct", "%"},
    {"facility.room_round_us_mean", "us"},
    {"facility.saturated_barrier_pct", "%"},
    {"sim.begin_period_ns", "ns"},
    {"sim.server_step_ns", "ns"},
    {"sim.note_substep_ns", "ns"},
    {"sim.finish_period_ns", "ns"},
    {"obs.trace_overhead_pct", "%"},
};

std::size_t Report::op(const std::string& label) {
  ops_.push_back(Op{label, true});
  return ops_.size() - 1;
}

void Report::fail(std::size_t id, const std::string& why) {
  failures_.push_back(ops_.at(id).label + ": " + why);
  ops_.at(id).ok = false;
}

void Report::run_op(const std::string& label, const std::function<void()>& body) {
  const std::size_t id = op(label);
  try {
    body();
  } catch (const std::exception& e) {
    fail(id, std::string("threw: ") + e.what());
  }
}

bool Report::check(bool ok, const std::string& what,
                   std::initializer_list<std::size_t> ops) {
  if (!ok) {
    for (const std::size_t id : ops) fail(id, what);
  }
  return ok;
}

std::size_t Report::failed() const {
  std::size_t n = 0;
  for (const Op& o : ops_) n += o.ok ? 0 : 1;
  return n;
}

namespace {

/// Shortest round-trip decimal form of `v` (every digit it has, no more).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::print(bool trace) const {
  const std::vector<MetricDef>& catalogue = trace ? kPerLayer : kEndToEnd;
  std::printf("%-38s %18s  %s\n", "metric", "value", "unit");
  for (const MetricDef& m : catalogue) {
    const auto it = values_.find(m.name);
    if (it == values_.end()) {
      std::printf("%-38s %18s  %s\n", m.name, "n/a (reported 0)", m.unit);
    } else {
      std::printf("%-38s %18.6g  %s\n", m.name, it->second, m.unit);
    }
  }
  std::printf("ops: %zu attempted, %zu failed\n", attempted(), failed());
  for (const std::string& f : failures_) std::printf("FAILED %s\n", f.c_str());

  bool correct = failed() == 0 && attempted() > 0;
  std::string metrics;
  for (const MetricDef& m : catalogue) {
    const auto it = values_.find(m.name);
    // A layer the workload does not exercise spent no time and counted
    // nothing: it reports 0 (see README, "Not-applicable layers").
    const double v = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) correct = false;
    metrics += metrics.empty() ? "\"" : ", \"";
    metrics += m.name;
    metrics += "\": {\"value\": ";
    metrics += number(v);
    metrics += ", \"unit\": \"";
    metrics += m.unit;
    metrics += "\"}";
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted());
  line += ", \"failed\": " + std::to_string(failed());
  line += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return line;
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {
constexpr std::size_t kCalibrationLanes = 4096;
constexpr int kPassesPerChunk = 50;
}  // namespace

Calibration::Calibration()
    : power_(kCalibrationLanes), temp_(kCalibrationLanes, 40.0), fan_(kCalibrationLanes, 2000.0) {
  for (std::size_t i = 0; i < kCalibrationLanes; ++i) {
    const double golden = static_cast<double>(i) * 0.6180339887498949;
    power_[i] = 18.0 + 36.0 * (golden - std::floor(golden));
  }
}

void Calibration::bracket(Clock clock) {
  for (std::size_t c = 0; c < kChunks / 2; ++c) {
    const std::int64_t t0 = clock();
    for (int pass = 0; pass < kPassesPerChunk; ++pass) {
      for (std::size_t i = 0; i < kCalibrationLanes; ++i) {
        const double h = std::pow(fan_[i] * 1e-3, 0.8);
        temp_[i] += 0.05 * (power_[i] - h * (temp_[i] - 25.0));
        fan_[i] = 1000.0 + 3000.0 / (1.0 + std::exp(-(temp_[i] - 60.0) * 0.2));
      }
    }
    open_.push_back(static_cast<double>(clock() - t0) * 1e-6);
  }
  if (open_.size() == kChunks) {
    reps_.push_back(std::move(open_));
    open_.clear();
  }
}

double Calibration::factor() const { return kNominalMs / sum(per_index_midmean(reps_)); }

void SetupBursts::burst(const std::function<double()>& setup_once) {
  std::vector<double> samples;
  const std::int64_t start = now_ns();
  do {
    samples.push_back(setup_once());
  } while (seconds_between(start, now_ns()) < kSetupBurstS);
  medians.push_back(median(samples));
}

void print_window(const std::string& label, const std::vector<double>& step_s,
                  std::size_t rounds) {
  std::printf("%s: %zu repetitions, stepping s min/median/max %.4f/%.4f/%.4f",
              label.c_str(), step_s.size(),
              *std::min_element(step_s.begin(), step_s.end()), median(step_s),
              *std::max_element(step_s.begin(), step_s.end()));
  if (rounds > 0) std::printf("; %zu rounds, p95 read at q=%.3f", rounds, tail_q(0.95, rounds));
  std::printf("\n");
}

void print_pooled_rounds(const std::string& label, std::size_t rounds) {
  std::printf("%s: round percentiles over %zu pooled rounds, p95 read at q=%.3f\n",
              label.c_str(), rounds, tail_q(0.95, rounds));
}

void print_calibration(const Calibration& calibration) {
  std::printf("host calibration: factor %.4f over %zu repetitions (nominal %.1f ms)\n",
              calibration.factor(), calibration.size(), Calibration::kNominalMs);
}

MemoCounts MemoCounts::read(const fsc::obs::MetricsRegistry& registry) {
  const fsc::obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  return MemoCounts{snap.counter("batch.memo_hit"), snap.counter("batch.memo_shared_hit"),
                    snap.counter("batch.memo_miss")};
}

MemoCounts& MemoCounts::operator+=(const MemoCounts& o) {
  hit += o.hit;
  shared_hit += o.shared_hit;
  miss += o.miss;
  return *this;
}

void MemoCounts::report(Report& report) const {
  const double total = static_cast<double>(hit + shared_hit + miss);
  if (total == 0.0) return;
  report.set("batch.memo_hit_pct", 100.0 * static_cast<double>(hit + shared_hit) / total);
  report.set("batch.memo_shared_hit_pct", 100.0 * static_cast<double>(shared_hit) / total);
}

void write_trace(const Options& opt, const fsc::obs::TraceRecorder& recorder,
                 Report& report, std::size_t op) {
  const std::string path =
      opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".trace.json";
  if (report.check(recorder.write_json_file(path, opt.manifest), "cannot write " + path, {op})) {
    std::printf("trace: %s\n", path.c_str());
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string manifest_json(const Options& opt, int argc, char** argv) {
  fsc::obs::RunManifest m = fsc::obs::RunManifest::collect();
  m.threads = opt.threads;
  m.seed = opt.seed;
  m.command = fsc::obs::command_line(argc, argv);
  return m.to_json(2);
}

void make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("cannot create " + dir + ": " + ec.message());
}

namespace {

/// The Table III ordering for one seed, with the tolerances
/// tests/test_integration.cpp (Table3OrderingHolds) pins for its canonical
/// seed: {holds, claim} per condition.
std::vector<std::pair<bool, const char*>> table3_ordering(const std::vector<SolutionRow>& r) {
  const double base_fan = r[0].fan_energy_j;
  return {
      {r[1].violation_pct > r[0].violation_pct, "E-coord trades performance away"},
      {r[2].violation_pct <= r[0].violation_pct * 1.05, "rule coordination does not hurt"},
      {r[3].violation_pct < r[2].violation_pct, "adaptive Tref improves performance"},
      {r[4].violation_pct <= r[3].violation_pct * 1.1,
       "single-step scaling helps or is neutral"},
      {r[1].fan_energy_j < 0.8 * base_fan, "E-coord is the cheapest on fan energy"},
      {r[3].fan_energy_j < r[2].fan_energy_j, "adaptive Tref saves fan energy"},
  };
}

}  // namespace

PaperOutcome paper_outcome(const std::vector<std::vector<SolutionRow>>& rows,
                           Report& report, std::size_t op) {
  if (rows.empty()) throw std::invalid_argument("paper_outcome: no seeds");
  // The sweep's Table III: per solution, violations and fan energy
  // normalized to the baseline, averaged over the seeds.
  constexpr std::size_t kSolutions = 5;
  std::vector<double> viol(kSolutions, 0.0);
  std::vector<double> fan_ratio(kSolutions, 0.0);
  std::size_t held = 0;
  std::size_t conditions = 0;
  PaperOutcome out;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const std::vector<SolutionRow>& r = rows[s];
    if (r.size() != kSolutions) throw std::invalid_argument("paper_outcome: need 5 solutions");
    const double base_fan = r[0].fan_energy_j;
    report.check(base_fan > 0.0, "baseline fan energy is not positive", {op});
    for (const SolutionRow& row : r) {
      report.check(row.fp.finite() && std::isfinite(row.violation_pct),
                   "non-finite solution outcome", {op});
    }
    for (std::size_t k = 0; k < kSolutions; ++k) {
      viol[k] += r[k].violation_pct;
      fan_ratio[k] += base_fan > 0.0 ? r[k].fan_energy_j / base_fan : 0.0;
      out.violation_pct += r[k].violation_pct;
      out.fan_kwh += r[k].fan_energy_j / 3.6e6;
      out.max_junction_c = std::max(out.max_junction_c, r[k].fp.max_junction_c);
    }
    for (const auto& [holds, claim] : table3_ordering(r)) {
      ++conditions;
      held += holds ? 1 : 0;
      if (!holds) std::printf("note: Table III ordering, seed #%zu: %s does not hold\n", s, claim);
    }
  }
  const double n = static_cast<double>(rows.size());
  for (std::size_t k = 0; k < kSolutions; ++k) {
    viol[k] /= n;
    fan_ratio[k] /= n;
  }
  std::printf("Table III over %zu seeds (violations %%, fan energy / baseline):\n", rows.size());
  const std::vector<fsc::SolutionKind> kinds = fsc::all_solutions();
  for (std::size_t k = 0; k < kSolutions; ++k) {
    std::printf("  %-34s %8.3f %8.3f\n", fsc::to_string(kinds[k]).c_str(), viol[k],
                fan_ratio[k]);
  }
  out.ordering_pct = 100.0 * static_cast<double>(held) / static_cast<double>(conditions);
  out.gain_gap_pts = std::fabs(kPaperGainPts - (viol[0] - viol[4]));
  out.fan_ratio_gap = std::fabs(kPaperFanRatio - fan_ratio[4]);
  out.violation_pct /= n * kSolutions;
  out.fan_kwh /= n * kSolutions;
  return out;
}

std::vector<fsc::ComparisonScenario> paper_scenarios(std::uint64_t seed) {
  std::vector<fsc::ComparisonScenario> out;
  for (std::size_t i = 0; i < kPaperSeeds; ++i) {
    fsc::ComparisonScenario s = fsc::ComparisonScenario::paper_defaults();
    s.seed = fsc::derive_seed(seed, i);
    out.push_back(s);
  }
  return out;
}

void paper_anchor(const Options& opt, Report& report) {
  std::vector<std::vector<SolutionRow>> rows;
  std::size_t last = 0;
  for (const fsc::ComparisonScenario& scenario : paper_scenarios(opt.seed)) {
    rows.emplace_back();
    for (const fsc::SolutionKind kind : fsc::all_solutions()) {
      last = report.op("paper-anchor " + fsc::to_string(kind));
      try {
        const fsc::SimulationResult r = fsc::run_solution(kind, scenario);
        rows.back().push_back(SolutionRow{
            r.deadline.violation_percent(), r.fan_energy_joules,
            Fingerprint{r.fan_energy_joules, r.cpu_energy_joules, r.deadline.violations(),
                        r.junction_stats.max()}});
      } catch (const std::exception& e) {
        report.fail(last, std::string("threw: ") + e.what());
        return;
      }
    }
  }
  const PaperOutcome p = paper_outcome(rows, report, last);
  report.set("paper_gain_gap_pts", p.gain_gap_pts);
  report.set("paper_fan_ratio_gap", p.fan_ratio_gap);
  report.set("paper_ordering_pct", p.ordering_pct);
}

}  // namespace perfbench

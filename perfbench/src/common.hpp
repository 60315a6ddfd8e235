// Shared plumbing of the whole-run benchmark: command-line options, the
// metric catalogue (names and units, mirrored by BENCHMARK.json), op and
// check accounting, and the helpers every workload uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement window
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::size_t threads = 1;      ///< the host's concurrency
  std::string out_dir = ".bench_build/perfbench/out";
  std::string source_root = ".";  ///< where examples/traces lives
  std::string manifest;  ///< obs::RunManifest JSON, stamped into traces
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (BENCHMARK.json "end_to_end").
extern const std::vector<MetricDef> kEndToEnd;
/// Printed with --trace 1 (BENCHMARK.json "per_layer").
extern const std::vector<MetricDef> kPerLayer;

/// Ops, checks and metric values of one benchmark run.  An op is one engine
/// or solution run; it fails when it throws, yields a non-finite outcome,
/// or a correctness check over it fails.
class Report {
 public:
  /// Register an op and return its id.
  std::size_t op(const std::string& label);
  /// Mark op `id` failed with a reason (idempotent per op).
  void fail(std::size_t id, const std::string& why);
  /// Run `body` as op `label`; an exception fails the op and is reported,
  /// not propagated.
  void run_op(const std::string& label, const std::function<void()>& body);
  /// Check `ok`; when false, fail every op in `ops`.
  bool check(bool ok, const std::string& what, std::initializer_list<std::size_t> ops);

  void set(const std::string& name, double value) { values_[name] = value; }

  std::size_t attempted() const { return ops_.size(); }
  std::size_t failed() const;

  /// Human-readable table of the selected catalogue plus check results
  /// (stdout), then the one-line JSON result as the last line, which is
  /// also returned.
  std::string print(bool trace) const;

 private:
  struct Op {
    std::string label;
    bool ok = true;
  };
  std::vector<Op> ops_;
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
};

/// Steady-clock nanoseconds (obs::monotonic_ns) and seconds between two.
inline std::int64_t now_ns() { return fsc::obs::monotonic_ns(); }
inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}
/// CPU nanoseconds this process has used (CLOCK_PROCESS_CPUTIME_ID).
std::int64_t cpu_ns();
/// The clock an op is timed with: now_ns or cpu_ns.
using Clock = std::int64_t (*)();

/// The end-to-end (untraced) fleet and facility ops step on one thread and
/// are timed in process CPU time.  On a host whose cores other tenants
/// share, a lockstep round at full width waits for its slowest participant,
/// so a single stolen core stretches every round; one thread measures the
/// work the program does, not the scheduler.  Traced runs keep the host's full
/// width and wall time, since their barrier and imbalance figures need it.
inline constexpr std::size_t kTimedThreads = 1;
/// Sub-scenarios per fleet or facility run: seeds derive_seed(--seed, k),
/// k < kScenarios.  The window cycles through them and the outcome metrics
/// average them, so one run's numbers do not hang on a single draw of the
/// fleet.
inline constexpr std::size_t kScenarios = 2;
/// Untraced ops per scenario a window runs at the least, however long
/// they take: the round profiles are per-round midmeans over them.
inline constexpr std::size_t kMinTimedReps = 5;

/// Host-speed calibration.  Other tenants of a shared host (other virtual
/// machines on the same physical cores) slow a run's floating-point work by
/// up to half for minutes at a time, and one thread timed in CPU time still
/// sees it: the program's time drifts with the host, not with the code.
/// The benchmark therefore also times a fixed kernel of its own right
/// before and right after every timed op — a first-order thermal step per
/// lane with a pow and an exp call, over an L2-sized lane array, shaped
/// like the simulation's hot loop — and scales the window's times (rounds
/// and set-up) by kNominalMs / (the kernel's per-chunk midmeans over the
/// same window, summed), as the round profiles are per-round midmeans.  The
/// timing metrics read as the program would time on a host where the kernel
/// takes kNominalMs; the factor is printed.  The kernel is not program
/// code, so a change to the program moves the metrics in full.
class Calibration {
 public:
  /// Chunks per repetition, half before and half after the op.
  static constexpr std::size_t kChunks = 6;
  /// About what the kernel's kChunks chunks take, per-chunk midmeans
  /// summed, on a quiet 4-core Xeon (2.1 GHz) host.
  static constexpr double kNominalMs = 36.0;

  Calibration();
  /// Time kChunks / 2 chunks of the kernel with `clock`.  Call it before
  /// and after each op; the second call closes the op's repetition.
  void bracket(Clock clock);
  /// kNominalMs over the per-chunk midmeans of every repetition, summed.
  double factor() const;
  std::size_t size() const { return reps_.size(); }

 private:
  std::vector<double> power_;
  std::vector<double> temp_;
  std::vector<double> fan_;
  std::vector<double> open_;  ///< chunk ms of the repetition being timed
  std::vector<std::vector<double>> reps_;  ///< chunk ms per repetition
};

/// setup_s comes from bursts of set-up-only repetitions (built, timed,
/// discarded), one burst of kSetupBurstS after every untraced op, so the
/// bursts are spread across the window like the ops.  Repetitions inside a
/// burst run back to back and agree closely; whole bursts can read up to
/// twice as slow while another tenant contends the core.  Each burst gives
/// its median, and setup_s is the midmean over the bursts, scaled by the
/// window's calibration factor like the round profiles.
inline constexpr double kSetupBurstS = 0.05;
struct SetupBursts {
  std::vector<double> medians;  ///< one per burst
  /// One burst: `setup_once` (which builds what an op builds before its
  /// first step and returns the seconds that took) at least once and until
  /// kSetupBurstS has passed.
  void burst(const std::function<double()>& setup_once);
  double estimate() const { return midmean(medians); }
};

/// Print a measurement window's sample counts: repetitions with their
/// stepping times and, when `rounds` > 0, the rounds the percentiles are
/// read over (with the quantile the tail rule actually reports for p95).
void print_window(const std::string& label, const std::vector<double>& step_s,
                  std::size_t rounds);

/// Print how many rounds, pooled over the sub-scenarios, the round
/// percentiles are read over, and the quantile the tail rule reports for p95.
void print_pooled_rounds(const std::string& label, std::size_t rounds);

/// Print the calibration factor the timing metrics were scaled by.
void print_calibration(const Calibration& calibration);

/// The batch kernel's memo tallies (registry counters "batch.memo_*").
struct MemoCounts {
  std::uint64_t hit = 0;
  std::uint64_t shared_hit = 0;
  std::uint64_t miss = 0;

  static MemoCounts read(const fsc::obs::MetricsRegistry& registry);
  MemoCounts& operator+=(const MemoCounts& o);
  /// Set batch.memo_hit_pct (own + shared hits) and batch.memo_shared_hit_pct.
  void report(Report& report) const;
};

/// Write `recorder` as the run's Perfetto JSON (manifest under otherData)
/// and print its path; a failed write fails op `op`.
void write_trace(const Options& opt, const fsc::obs::TraceRecorder& recorder,
                 Report& report, std::size_t op);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// The run manifest (host, cores, SIMD dispatch, git describe) with this
/// run's seed and threads, as a JSON object.
std::string manifest_json(const Options& opt, int argc, char** argv);

/// Create `dir` (and parents); throws on failure.
void make_dirs(const std::string& dir);

/// The paper's Table III reference numbers (bench_table3_comparison).
inline constexpr double kPaperGainPts = 19.2;
inline constexpr double kPaperFanRatio = 0.804;

/// Table III outcome over a set of seeds of the paper's §VI-A scenario.
struct PaperOutcome {
  double gain_gap_pts = 0.0;     ///< |19.2 - mean(baseline - best) points|
  double fan_ratio_gap = 0.0;    ///< |0.804 - mean(best / baseline fan)|
  /// Share of the Table III ordering conditions (six per seed) that hold.
  double ordering_pct = 0.0;
  // The sweep's simulated outcome, pooled over every (seed, solution) run.
  double violation_pct = 0.0;   ///< mean deadline violations
  double fan_kwh = 0.0;         ///< mean fan energy per run
  double max_junction_c = 0.0;  ///< hottest junction of any run
};

/// One solution run's summary, as the Table III comparison consumes it.
struct SolutionRow {
  double violation_pct = 0.0;
  double fan_energy_j = 0.0;
  Fingerprint fp;
};

/// Table III statistics from rows[seed][solution] (solution order of
/// fsc::all_solutions()): the table averaged over the seeds (printed), the
/// gaps to the paper, and how much of the Table III ordering holds seed by
/// seed (each broken condition is printed as a note).  Fails `op` on a
/// non-finite outcome.
PaperOutcome paper_outcome(const std::vector<std::vector<SolutionRow>>& rows,
                           Report& report, std::size_t op);

/// Seeds of the paper's §VI-A scenario per run, derived from --seed.
inline constexpr std::size_t kPaperSeeds = 8;
std::vector<fsc::ComparisonScenario> paper_scenarios(std::uint64_t seed);

/// The fidelity anchor every fleet workload carries: fsc::run_solution for
/// the five solutions over paper_scenarios(seed) (one op each), checked and
/// reported as the paper_* end-to-end metrics exactly as paper-sweep does.
void paper_anchor(const Options& opt, Report& report);

/// The sim/core/sensor phases on their own: one traced sweep of the paper
/// scenario's first seed (five solutions), decomposed into
/// SimulationEngine::Session phases; sets the sim.* metrics.
void probe_sim_layers(const Options& opt, Report& report);

// Workloads.
void run_rack64(const Options& opt, Report& report);
void run_room256(const Options& opt, Report& report);
void run_facility512(const Options& opt, Report& report);
void run_paper_sweep(const Options& opt, Report& report);

}  // namespace perfbench

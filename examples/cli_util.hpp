// Small flag-parsing helpers shared by the CLI front ends (fsc_rack,
// fsc_room) so fixes to the parsing land in one place.  Both CLIs parse
// their flags into ONE fsc::ScenarioSpec (consume_scenario_flag covers the
// shared vocabulary, the per-CLI loops only the scale-specific spellings)
// and build engines exclusively through spec.build_rack()/build_room() —
// hand-assembly of engine params does not belong in examples/.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "core/policy_factory.hpp"
#include "obs/manifest.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "sim/scenario.hpp"

namespace fsc_cli {

/// Parse a strictly positive integer flag value; returns 0 on anything
/// else (including negatives, which would otherwise wrap through the
/// size_t cast into absurd allocation sizes).
inline std::size_t parse_positive(const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v <= 0) return 0;
  return static_cast<std::size_t>(v);
}

/// Parse a non-negative integer flag value ("--chunk N", where 0 means
/// "auto") into `out`.  Returns false on anything else — including bare
/// negatives, which would otherwise wrap through the size_t cast — so the
/// caller can fall through to usage().
inline bool parse_nonnegative(const char* text, std::size_t& out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Parse a real-valued flag value into `out`: the whole token must be a
/// finite number, so "abc", "5abc", "inf", "nan" and "" are refused
/// (std::atof would have read them as 0, 5, inf, nan and 0).  Returns
/// false and leaves `out` untouched on anything else; the flag's range
/// check and its usage note are the caller's.
inline bool parse_finite(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// Parse a power budget flag value ("--budget WATTS") into `out`.  The
/// whole token must be a finite number >= 0 (0 = derived, 85 % of the
/// aggregate peak draw).  Anything else — "abc", "-10", "inf", "10W" —
/// prints a note naming the value and returns false so the caller can
/// fall through to usage(); `out` is left untouched.
inline bool parse_budget(const char* text, std::optional<double>& out) {
  double v = 0.0;
  if (!parse_finite(text, v) || v < 0.0) {
    std::cerr << "--budget: expected a finite number of watts >= 0, got '"
              << text << "'\n";
    return false;
  }
  out = v;
  return true;
}

/// Parse an on/off flag value ("--batched on|off") into `out`.  Returns
/// false on anything else so the caller can fall through to usage().
inline bool parse_on_off(const char* text, bool& out) {
  if (std::strcmp(text, "on") == 0) {
    out = true;
    return true;
  }
  if (std::strcmp(text, "off") == 0) {
    out = false;
    return true;
  }
  return false;
}

/// Outcome of offering one argv slot to the shared scenario-flag parser.
enum class ScenarioFlag {
  kNotMine,   ///< not a shared scenario flag; the caller's loop handles it
  kConsumed,  ///< handled (the parser advanced `i` past any value)
  kError,     ///< recognized but the value was malformed: go to usage()
};

/// Try to consume argv[i] as one of the scenario flags BOTH CLIs share:
///
///   --scenario FILE   load a ScenarioSpec JSON file (sim/scenario.hpp);
///                     flags AFTER it override the file's values
///   --dtm POLICY --traces DIR --trace-pack FILE --slots N --threads N
///   --seed S --duration SECS --zone K --batched on|off --chunk N
///   --no-plenum
///   --rooms N --plant-watts W --supply-amplitude C --facility-period S
///   --two-level on|off   (facility-scale; ignored by build_rack/build_room)
///
/// On kError a note naming the flag is printed to stderr.  Scenario-file
/// load failures (missing file, bad JSON, unknown key) also print the
/// underlying reason.
inline ScenarioFlag consume_scenario_flag(fsc::ScenarioSpec& spec, int argc,
                                          char** argv, int& i) {
  const std::string arg = argv[i];
  if (arg == "--no-plenum") {
    spec.plenum = false;
    return ScenarioFlag::kConsumed;
  }
  const bool has_value = i + 1 < argc;
  const auto bad = [&arg](const char* why) {
    std::cerr << arg << ": " << why << "\n";
    return ScenarioFlag::kError;
  };
  if (arg == "--scenario") {
    if (!has_value) return bad("expected a file path");
    try {
      spec = fsc::ScenarioSpec::from_json_file(argv[++i]);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return ScenarioFlag::kError;
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--dtm") {
    if (!has_value) return bad("expected a policy name");
    spec.dtm = argv[++i];
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--traces") {
    if (!has_value) return bad("expected a directory");
    spec.trace_dir = argv[++i];
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--trace-pack") {
    if (!has_value) return bad("expected a .fst pack file");
    spec.trace_pack = argv[++i];
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--slots") {
    if (!has_value || (spec.slots = parse_positive(argv[++i])) == 0) {
      return bad("expected a positive integer");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--threads") {
    if (!has_value || (spec.threads = parse_positive(argv[++i])) == 0) {
      return bad("expected a positive integer");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--seed") {
    if (!has_value) return bad("expected an integer seed");
    spec.seed =
        static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--duration") {
    if (!has_value || !parse_finite(argv[++i], spec.duration_s) ||
        spec.duration_s <= 0.0) {
      return bad("expected a positive duration in seconds");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--zone") {
    if (!has_value || (spec.fan_zone = parse_positive(argv[++i])) == 0) {
      return bad("expected a positive integer");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--batched") {
    if (!has_value || !parse_on_off(argv[++i], spec.batched)) {
      return bad("expected on|off");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--chunk") {
    if (!has_value || !parse_nonnegative(argv[++i], spec.chunk)) {
      return bad("expected a non-negative integer");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--rooms") {
    if (!has_value || (spec.rooms = parse_positive(argv[++i])) == 0) {
      return bad("expected a positive integer");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--plant-watts") {
    if (!has_value || !parse_finite(argv[++i], spec.plant_capacity_watts)) {
      return bad("expected a capacity in watts (< 0 = infinite)");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--supply-amplitude") {
    if (!has_value || !parse_finite(argv[++i], spec.supply_amplitude_c) ||
        spec.supply_amplitude_c < 0.0) {
      return bad("expected a non-negative offset in celsius");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--facility-period") {
    if (!has_value || !parse_finite(argv[++i], spec.facility_period_s)) {
      return bad("expected a period in seconds (<= 0 = every round)");
    }
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--two-level") {
    if (!has_value || !parse_on_off(argv[++i], spec.two_level)) {
      return bad("expected on|off");
    }
    return ScenarioFlag::kConsumed;
  }
  return ScenarioFlag::kNotMine;
}

/// The `--list-policies` view: every registry tier with descriptions, in
/// registration order (one Registry<T> behind all three, so the format is
/// uniform by construction).
inline void print_policy_listing(std::ostream& os) {
  const auto& factory = fsc::PolicyFactory::instance();
  os << "dtm policies:\n";
  for (const auto& e : factory.list_policies()) {
    os << "  " << e.name << "  -  " << e.description << "\n";
  }
  os << "rack coordinators:\n";
  for (const auto& e : factory.list_coordinators()) {
    os << "  " << e.name << "  -  " << e.description << "\n";
  }
  os << "room schedulers:\n";
  for (const auto& e : factory.list_room_schedulers()) {
    os << "  " << e.name << "  -  " << e.description << "\n";
  }
}

/// Observability flag state + sink ownership shared by fsc_rack/fsc_room:
/// the flag loop fills the public fields (--trace-out, --metrics-out,
/// --metrics-every, --progress), open() builds the sinks once the run
/// shape is known, telemetry() is dropped into params.obs, and finish()
/// (after the run) writes the trace file and reports where things went.
class ObsCli {
 public:
  std::string trace_path;    ///< --trace-out FILE (Perfetto JSON)
  std::string metrics_path;  ///< --metrics-out FILE (.json array, else CSV)
  std::size_t metrics_every = 10;  ///< --metrics-every N (rounds per sample)
  bool progress = false;           ///< --progress heartbeat on stderr

  bool active() const noexcept {
    return !trace_path.empty() || !metrics_path.empty() || progress;
  }

  /// Build the requested sinks.  `duration_s` feeds the progress ETA,
  /// `threads` sizes the registry's per-shard counter slots.  Returns
  /// false (with a note on stderr) when an output file cannot be opened.
  bool open(double duration_s, std::size_t threads) {
    if (!active()) return true;
#if !FSC_OBS_ENABLED
    std::cerr << "note: this binary was built with -DFSC_OBS=OFF; the "
                 "telemetry hook sites are compiled out, so --trace-out/"
                 "--metrics-out/--progress outputs will be empty\n";
#endif
    metrics_ = std::make_unique<fsc::obs::MetricsRegistry>(threads);
    if (!trace_path.empty()) {
      trace_ = std::make_unique<fsc::obs::TraceRecorder>();
    }
    if (!metrics_path.empty()) {
      exporter_ = std::make_unique<fsc::obs::SnapshotExporter>(metrics_path,
                                                               metrics_every);
      if (!exporter_->ok()) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return false;
      }
    }
    if (progress) {
      progress_ = std::make_unique<fsc::obs::ProgressMeter>(duration_s);
    }
    return true;
  }

  fsc::obs::Telemetry telemetry() noexcept {
    fsc::obs::Telemetry t;
    t.metrics = metrics_.get();
    t.trace = trace_.get();
    t.snapshot = exporter_.get();
    t.progress = progress_.get();
    return t;
  }

  /// Post-run: write the trace (embedding the run manifest), close the
  /// time-series, and print the final counter snapshot.  `manifest_json`
  /// is the same object the report embeds (RunManifest::to_json).
  void finish(const std::string& manifest_json) {
    if (exporter_) {
      exporter_->close();
      std::cout << "metrics time-series written to " << metrics_path << "\n";
    }
    if (trace_ && trace_->write_json_file(trace_path, manifest_json)) {
      std::cout << "trace written to " << trace_path << " ("
                << trace_->recorded_events() << " events";
      if (trace_->dropped_events() > 0) {
        std::cout << ", " << trace_->dropped_events() << " dropped";
      }
      std::cout << ")\n";
    }
    if (metrics_ && (trace_ || exporter_)) {
      std::cout << "telemetry counters:\n" << metrics_->to_json() << "\n";
    }
  }

 private:
  std::unique_ptr<fsc::obs::MetricsRegistry> metrics_;
  std::unique_ptr<fsc::obs::TraceRecorder> trace_;
  std::unique_ptr<fsc::obs::SnapshotExporter> exporter_;
  std::unique_ptr<fsc::obs::ProgressMeter> progress_;
};

}  // namespace fsc_cli

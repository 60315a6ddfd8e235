// fsc_facility: the facility-scale front end over the facility/ subsystem.
//
// Runs K rooms (each a full room: racks under a RoomScheduler with
// cross-rack recirculation) in lockstep against one shared cooling plant,
// synchronized only at facility coordination barriers, and writes a JSON
// report, optionally a per-room CSV.  The two-level hierarchical executor
// (default) gives each room its own worker group with a private barrier
// and a topology-aware core range; --two-level off runs the flat
// single-barrier baseline — bit-identical, for A/B timing.
//
// Every flag parses into ONE fsc::ScenarioSpec and the engine is built
// exclusively through spec.build_facility() — so any flag invocation has
// an exact JSON transcription: `--scenario run.json` replays it, and the
// shared flags after --scenario override the file's values.
//
// Usage:
//   fsc_facility [--scenario FILE.json] [--rooms K] [--racks R] [--slots N]
//                [--policy SCHED] [--coordinator COORD] [--dtm POLICY]
//                [--traces DIR] [--threads N] [--seed S] [--duration SECS]
//                [--plant-watts W] [--supply-amplitude C]
//                [--facility-period S] [--two-level on|off] [--no-pin]
//                [--budget WATTS] [--step FRAC]
//                [--batched on|off] [--chunk N]
//                [--no-cross-plenum] [--no-plenum]
//                [--trace-out FILE.json] [--metrics-out FILE]
//                [--metrics-every N] [--progress]
//                [--out FILE.json] [--csv FILE.csv] [--list-policies]
//
//   --rooms            rooms in the facility (default 2)
//   --plant-watts      shared cooling capacity in watts; < 0 (default)
//                      = unconstrained, a provable identity with the
//                      standalone rooms
//   --supply-amplitude diurnal supply-air peak offset in celsius
//                      (economizer/weather profile; 0 = flat)
//   --facility-period  simulated seconds between facility barriers; must
//                      be a whole multiple of the rooms' coordination
//                      period (<= 0 = every room round)
//   --two-level        hierarchical per-room worker groups (default on)
//                      vs the flat single-barrier executor — bit-identical
//   --no-pin           disable topology-aware worker placement
//   --trace-out        Perfetto trace: facility.round / facility.room_rounds
//                      / facility.coordinate spans over every room's rounds
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.hpp"

#include "core/policy_factory.hpp"
#include "facility/facility_engine.hpp"
#include "sim/scenario.hpp"
#include "util/cpu_features.hpp"

namespace {

using fsc_cli::parse_positive;
using fsc_cli::ScenarioFlag;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scenario FILE.json] [--rooms K] [--racks R] [--slots N]\n"
               "       [--policy SCHED] [--coordinator COORD] [--dtm POLICY]\n"
               "       [--traces DIR] [--threads N] [--seed S] "
               "[--duration SECS]\n"
               "       [--plant-watts W] [--supply-amplitude C] "
               "[--facility-period S]\n"
               "       [--two-level on|off] [--no-pin] [--budget WATTS] "
               "[--step FRAC]\n"
               "       [--batched on|off] [--chunk N]\n"
               "       [--no-cross-plenum] [--no-plenum]\n"
               "       [--trace-out FILE.json] [--metrics-out FILE] "
               "[--metrics-every N]\n"
               "       [--progress] [--out FILE.json] [--csv FILE.csv] "
               "[--list-policies]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsc;

  ScenarioSpec spec;
  spec.rooms = 2;  // facility-scale defaults; flags and --scenario override
  spec.racks = 4;
  bool pin_topology = true;
  std::string out_path = "fsc_facility_report.json";
  std::string csv_path;
  fsc_cli::ObsCli obs;

  for (int i = 1; i < argc; ++i) {
    switch (fsc_cli::consume_scenario_flag(spec, argc, argv, i)) {
      case ScenarioFlag::kConsumed: continue;
      case ScenarioFlag::kError: return usage(argv[0]);
      case ScenarioFlag::kNotMine: break;
    }
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list" || arg == "--list-policies") {
      fsc_cli::print_policy_listing(std::cout);
      return 0;
    } else if (arg == "--no-cross-plenum") {
      spec.cross_plenum = false;
    } else if (arg == "--no-pin") {
      pin_topology = false;
    } else if (arg == "--progress") {
      obs.progress = true;
    } else if (!has_value) {
      return usage(argv[0]);
    } else if (arg == "--policy") {
      spec.scheduler = argv[++i];
    } else if (arg == "--coordinator") {
      spec.coordinator = argv[++i];
    } else if (arg == "--racks") {
      if ((spec.racks = parse_positive(argv[++i])) == 0) return usage(argv[0]);
    } else if (arg == "--budget") {
      if (!fsc_cli::parse_budget(argv[++i], spec.room_budget_watts)) {
        return usage(argv[0]);
      }
    } else if (arg == "--step") {
      if (!fsc_cli::parse_finite(argv[++i], spec.migration_step)) {
        std::cerr << "--step: expected a number\n";
        return usage(argv[0]);
      }
    } else if (arg == "--trace-out") {
      obs.trace_path = argv[++i];
    } else if (arg == "--metrics-out") {
      obs.metrics_path = argv[++i];
    } else if (arg == "--metrics-every") {
      if ((obs.metrics_every = parse_positive(argv[++i])) == 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--out") {
      out_path = argv[++i];
    } else if (arg == "--csv") {
      csv_path = argv[++i];
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  try {
    FacilityParams params = spec.build_facility();
    params.pin_topology = pin_topology;
    if (!spec.trace_dir.empty()) {
      std::cout << "loaded traces from " << spec.trace_dir << "\n";
    }
    const std::size_t threads = spec.resolve_threads();

    if (!obs.open(spec.duration_s, threads)) return 1;
    params.obs = obs.telemetry();

    const FacilityEngine engine(std::move(params), threads);
    const auto wall_t0 = std::chrono::steady_clock::now();
    const FacilityResult result = engine.run();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_t0)
                              .count();

    obs::RunManifest manifest = obs::RunManifest::collect();
    manifest.threads = threads;
    manifest.chunk = spec.chunk;
    manifest.seed = spec.seed;
    manifest.command = obs::command_line(argc, argv);
    manifest.wall_time_s = wall_s;
    const std::string manifest_json = manifest.to_json(4);

    std::cout << "=== fsc_facility: " << spec.rooms << " rooms x "
              << spec.racks << " racks x " << spec.slots << " slots, "
              << (engine.params().two_level ? "two-level" : "flat")
              << " executor, " << threads << " thread(s) ===\n";
    std::cout << "topology: " << cpu_topology_line() << "\n\n";
    std::cout << result.to_table();

    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << result.to_json(manifest_json);
    std::cout << "\nreport written to " << out_path << "\n";
    obs.finish(manifest_json);
    if (!csv_path.empty()) {
      std::ofstream csv(csv_path);
      if (!csv) {
        std::cerr << "cannot write " << csv_path << "\n";
        return 1;
      }
      csv << result.to_csv();
      std::cout << "per-room CSV written to " << csv_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "fsc_facility: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// fsc_rack: the rack-scale front end over the coord/ subsystem.
//
// Runs a rack of N servers as one coupled plant (shared-plenum inlet
// coupling + a named RackCoordinator) and writes a JSON report, optionally
// a per-slot CSV.  Slots replay traces from --traces DIR (round-robin,
// sorted by filename) or fall back to the default contended synthetic
// scenario.
//
// Every flag parses into ONE fsc::ScenarioSpec and the engine is built
// exclusively through spec.build_rack() — so any flag invocation has an
// exact JSON transcription: `--scenario run.json` replays it, and the
// shared flags after --scenario override the file's values.
//
// Usage:
//   fsc_rack [--scenario FILE.json] [--policy COORD] [--dtm POLICY]
//            [--traces DIR] [--slots N]
//            [--threads N] [--seed S] [--duration SECS] [--budget WATTS]
//            [--zone K] [--batched on|off] [--chunk N]
//            [--trace-out FILE.json] [--metrics-out FILE] [--metrics-every N]
//            [--progress]
//            [--no-plenum] [--out FILE.json] [--csv FILE.csv]
//            [--list] [--list-policies]
//
//   --scenario  load a ScenarioSpec JSON file (see src/sim/scenario.hpp);
//               its "faults" array schedules hardware faults (sensor
//               stuck/dropped/noisy, fan degraded/seized, slot blackout)
//               injected deterministically at coordination barriers
//   --policy    coordinator name (default "independent"); --list shows all
//   --dtm       per-server DtmPolicy name (default the paper's full stack)
//   --budget    rack CPU power budget in watts, a finite number >= 0
//               (0 = 85 % of aggregate max; omitted = scenario default)
//   --zone      slots per shared fan zone
//   --batched   SoA batched physics (default on) vs the scalar
//               Server::step oracle — bit-identical, for A/B checks
//   --chunk     lanes per batch chunk, the shard unit threads parallelise
//               over (0 = auto); any value is bit-identical, for sweeps
//   --trace-out Chrome/Perfetto trace-event JSON of the run (coordination
//               rounds, executor shards, plenum updates, fault instants) —
//               load the file in https://ui.perfetto.dev; telemetry never
//               perturbs the simulation (bit-identical with or without)
//   --metrics-out  periodic rack time-series (".json" = JSON array, else
//               CSV), sampled every --metrics-every rounds
//   --progress  heartbeat on stderr (rounds/s, ETA, live violations)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.hpp"

#include "coord/coupled_rack_engine.hpp"
#include "core/policy_factory.hpp"
#include "sim/scenario.hpp"

namespace {

using fsc_cli::parse_positive;
using fsc_cli::ScenarioFlag;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scenario FILE.json] [--policy COORD] [--dtm POLICY]\n"
               "       [--traces DIR] [--slots N]\n"
               "       [--threads N] [--seed S] [--duration SECS] "
               "[--budget WATTS]\n"
               "       [--zone K] [--batched on|off] [--chunk N]\n"
               "       [--trace-out FILE.json] [--metrics-out FILE] "
               "[--metrics-every N]\n"
               "       [--progress]\n"
               "       [--no-plenum] [--out FILE.json] [--csv FILE.csv] "
               "[--list] [--list-policies]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsc;

  ScenarioSpec spec;
  std::string out_path = "fsc_rack_report.json";
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
    } else if (arg == "--progress") {
      obs.progress = true;
    } else if (!has_value) {
      return usage(argv[0]);
    } else if (arg == "--policy") {
      spec.coordinator = argv[++i];
    } else if (arg == "--budget") {
      if (!fsc_cli::parse_budget(argv[++i], spec.rack_budget_watts)) {
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
    const CoupledRackParams params = [&] {
      CoupledRackParams p = spec.build_rack();
      if (!spec.trace_dir.empty()) {
        std::cout << "loaded " << p.rack.traces.size() << " trace(s) from "
                  << spec.trace_dir << "\n";
      }
      return p;
    }();
    const std::size_t threads = spec.resolve_threads();

    if (!obs.open(spec.duration_s, threads)) return 1;
    CoupledRackParams run_params = params;
    run_params.obs = obs.telemetry();

    const CoupledRackEngine engine(run_params, threads);
    const auto wall_t0 = std::chrono::steady_clock::now();
    const CoupledRackResult result = engine.run();
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

    const auto& factory = PolicyFactory::instance();
    std::cout << "=== fsc_rack: " << spec.slots << " slots, coordinator '"
              << run_params.coordinator << "' ("
              << factory.describe_coordinator(run_params.coordinator) << "), "
              << threads << " thread(s) ===\n\n";
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
      std::cout << "per-slot CSV written to " << csv_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "fsc_rack: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

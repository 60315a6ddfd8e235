// fsc_room: the room-scale front end over the room/ subsystem.
//
// Runs a room of K racks (each a full coupled-rack plant: shared plenum +
// named RackCoordinator) in lockstep under a named RoomScheduler with
// cross-rack hot-aisle recirculation, and writes a JSON report, optionally
// a per-rack CSV.  Slots replay traces from --traces DIR (round-robin
// across the whole room, sorted by filename) or fall back to the default
// contended room scenario (heavy front half, light back half).
//
// Every flag parses into ONE fsc::ScenarioSpec and the engine is built
// exclusively through spec.build_room() — so any flag invocation has an
// exact JSON transcription: `--scenario run.json` replays it (the same
// file fsc_rack accepts when racks == 1), and the shared flags after
// --scenario override the file's values.
//
// Usage:
//   fsc_room [--scenario FILE.json] [--policy SCHED] [--coordinator COORD]
//            [--dtm POLICY]
//            [--racks K] [--slots N] [--traces DIR] [--threads N]
//            [--seed S] [--duration SECS] [--budget WATTS] [--step FRAC]
//            [--batched on|off] [--chunk N]
//            [--no-cross-plenum] [--no-plenum]
//            [--trace-out FILE.json] [--metrics-out FILE] [--metrics-every N]
//            [--progress]
//            [--out FILE.json] [--csv FILE.csv] [--list] [--list-policies]
//
//   --scenario     load a ScenarioSpec JSON file (see src/sim/scenario.hpp);
//                  its "faults" array schedules hardware faults, re-homed
//                  per rack and injected at coordination barriers
//   --policy       room scheduler name (default "static"); --list shows all
//   --coordinator  per-rack RackCoordinator name (default "independent")
//   --dtm          per-server DtmPolicy name (default the paper's full stack)
//   --budget       room CPU power budget in watts, a finite number >= 0
//                  (0 = 85 % of aggregate max; omitted = scenario default)
//   --step         fraction of the hot rack's load moved per migration
//   --batched      SoA batched physics (default on) vs the scalar
//                  Server::step oracle — bit-identical, for A/B checks
//   --chunk        lanes per batch chunk, the shard unit threads
//                  parallelise over (0 = auto); bit-identical, for sweeps
//   --trace-out    Chrome/Perfetto trace-event JSON of the run (rounds,
//                  shards, scheduler calls, migration + fault instants) —
//                  load in https://ui.perfetto.dev; telemetry never
//                  perturbs the simulation (bit-identical with or without)
//   --metrics-out  periodic per-rack/room time-series (".json" = JSON
//                  array, else CSV), sampled every --metrics-every rounds
//   --progress     heartbeat on stderr (rounds/s, ETA, live violations)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.hpp"

#include "core/policy_factory.hpp"
#include "room/room_engine.hpp"
#include "sim/scenario.hpp"

namespace {

using fsc_cli::parse_positive;
using fsc_cli::ScenarioFlag;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scenario FILE.json] [--policy SCHED] "
               "[--coordinator COORD] [--dtm POLICY]\n"
               "       [--racks K] [--slots N] [--traces DIR] [--threads N]\n"
               "       [--seed S] [--duration SECS] [--budget WATTS] "
               "[--step FRAC]\n"
               "       [--batched on|off] [--chunk N]\n"
               "       [--no-cross-plenum] [--no-plenum]\n"
               "       [--trace-out FILE.json] [--metrics-out FILE] "
               "[--metrics-every N]\n"
               "       [--progress] [--out FILE.json] [--csv FILE.csv] "
               "[--list] [--list-policies]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsc;

  ScenarioSpec spec;
  spec.racks = 4;  // room-scale default; --racks and --scenario override
  std::string out_path = "fsc_room_report.json";
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
    RoomParams params = spec.build_room();
    if (!spec.trace_dir.empty() && !params.racks.empty()) {
      std::cout << "loaded traces from " << spec.trace_dir << "\n";
    }
    const std::size_t threads = spec.resolve_threads();

    if (!obs.open(spec.duration_s, threads)) return 1;
    params.obs = obs.telemetry();

    const RoomEngine engine(params, threads);
    const auto wall_t0 = std::chrono::steady_clock::now();
    const RoomResult result = engine.run();
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
    std::cout << "=== fsc_room: " << spec.racks << " racks x " << spec.slots
              << " slots, scheduler '" << params.scheduler << "' ("
              << factory.describe_room_scheduler(params.scheduler) << "), "
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
      std::cout << "per-rack CSV written to " << csv_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "fsc_room: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// perfbench: the whole-run benchmark, one workload per process.
//
//   perfbench --workload rack64-contended --seed 3 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload with the benchmark's spans (and, on the facility,
// the engine's own telemetry) attached and reports the per-layer metrics,
// writing one Perfetto JSON under --out-dir.  Every run executes its
// correctness checks; the last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}.  A results file holding
// the manifest and that line is written under --out-dir/results for
// report_diff.py.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

const std::map<std::string, void (*)(const Options&, Report&)>& workloads() {
  static const std::map<std::string, void (*)(const Options&, Report&)> table = {
      {"rack64-contended", perfbench::run_rack64},
      {"room256-tracepack", perfbench::run_room256},
      {"facility512-plant", perfbench::run_facility512},
      {"paper-sweep", perfbench::run_paper_sweep},
  };
  return table;
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--out-dir DIR] [--source-root DIR]\n"
               "workloads:");
  for (const auto& [name, fn] : workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return n;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_uint(flag, value));
      if (opt.seconds < 1.0) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--source-root") {
      opt.source_root = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (workloads().count(opt.workload) == 0) usage("unknown workload " + opt.workload);
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = hw > 0 ? hw : 1;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  perfbench::make_dirs(opt.out_dir + "/results");
  opt.manifest = perfbench::manifest_json(opt, argc, argv);
  std::printf("workload %s, seed %llu, %g s window, trace %d, %zu threads\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.threads);
  std::printf("manifest: %s\n", opt.manifest.c_str());

  Report report;
  try {
    workloads().at(opt.workload)(opt, report);
  } catch (const std::exception& e) {
    // Input preparation failed before any op could run.
    report.fail(report.op(opt.workload + " setup"), std::string("threw: ") + e.what());
  }
  if (!opt.trace && report.attempted() > 0) {
    report.set("ok_ops_pct", 100.0 * static_cast<double>(report.attempted() - report.failed()) /
                                 static_cast<double>(report.attempted()));
  }
  const std::string line = report.print(opt.trace);

  const std::string path = opt.out_dir + "/results/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
                           ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"manifest\": " << opt.manifest
      << ", \"result\": " << line << "}\n";
  return 0;
}

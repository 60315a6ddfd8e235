// Workload trace persistence: write/read `time,utilization` CSV files so
// experiments can be replayed outside the library (trace_player example,
// trace-driven rack runs).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workload/trace.hpp"

namespace fsc {

/// Serialise a workload sampled every `sample_period_s` for `duration_s`
/// seconds into CSV text with columns `time,utilization`.
std::string workload_to_csv(const Workload& w, double duration_s,
                            double sample_period_s);

/// Parse a CSV produced by workload_to_csv (or hand-written with the same
/// columns) back into a SampledWorkload.  Tolerant of real-world files:
/// CRLF line endings, blank lines, and trailing newlines are accepted.
/// The sample period is inferred from the first two rows; a single-row
/// trace has no spacing to infer from, so it gets `single_row_period_s`
/// (which the caller should set to the trace's actual cadence).
/// Throws std::runtime_error on missing columns, non-uniform spacing
/// (tolerance 1e-6 relative to the inferred period, so long traces whose
/// large timestamps carry float error still load), or a utilization that
/// is not finite or lies outside [0, 1] (the message names its 1-based
/// line; values are never clamped); std::invalid_argument when
/// single_row_period_s <= 0.
std::unique_ptr<SampledWorkload> workload_from_csv(
    const std::string& csv_text, double single_row_period_s = 1.0);

/// Convenience wrappers over files.
void save_workload(const Workload& w, double duration_s, double sample_period_s,
                   const std::string& path);
std::unique_ptr<SampledWorkload> load_workload(
    const std::string& path, double single_row_period_s = 1.0);

/// All `*.csv` files directly inside `dir`, sorted by filename so the
/// slot -> trace assignment is stable across platforms.  Throws
/// std::runtime_error when `dir` is not a readable directory.
std::vector<std::string> list_trace_files(const std::string& dir);

/// Load every `*.csv` in `dir` (sorted by filename) as a workload trace.
/// Throws std::runtime_error when the directory holds no CSV files or any
/// file fails to parse (the offending filename is included).
std::vector<std::shared_ptr<const SampledWorkload>> load_trace_dir(
    const std::string& dir, double single_row_period_s = 1.0);

}  // namespace fsc

// Minimal CSV writing/reading for experiment traces.
//
// Benches and examples dump time series (time, utilization, temperature,
// fan speed, ...) so results can be plotted externally.  The reader is used
// by the trace_player example and by round-trip tests.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace fsc {

/// Streaming CSV writer: set a header once, then append rows.  All values
/// are doubles; formatting uses enough digits to round-trip comfortably for
/// plotting (6 significant digits by default).
class CsvWriter {
 public:
  /// Write to `out` (not owned; must outlive the writer).
  /// `precision` controls the number of significant digits.
  explicit CsvWriter(std::ostream& out, int precision = 6);

  /// Emit the header row.  Must be called at most once, before any row.
  /// Throws std::logic_error on a second call or after rows were written.
  void header(const std::vector<std::string>& columns);

  /// Emit one data row.  Throws std::invalid_argument when the width does
  /// not match a previously written header.
  void row(const std::vector<double>& values);

  /// Number of data rows written.
  std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::ostream& out_;
  int precision_;
  std::size_t columns_ = 0;
  bool header_written_ = false;
  std::size_t rows_ = 0;
};

/// Parsed CSV contents: one header row plus numeric data rows.
struct CsvTable {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;
  /// 1-based source line of each row (blank lines are skipped, so rows
  /// and lines need not line up), for error messages that name the line.
  std::vector<std::size_t> line_numbers;

  /// Index of a named column; throws std::out_of_range when absent.
  std::size_t column_index(const std::string& name) const;

  /// Extract one column as a vector.
  std::vector<double> column(const std::string& name) const;
};

/// Parse CSV text (first line header, remaining lines doubles).
/// Throws std::runtime_error on ragged rows or unparsable numbers.
CsvTable parse_csv(const std::string& text);

/// Read and parse a CSV file.  Throws std::runtime_error when the file
/// cannot be opened.
CsvTable read_csv_file(const std::string& path);

}  // namespace fsc

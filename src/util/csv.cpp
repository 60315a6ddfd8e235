#include "util/csv.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace fsc {

CsvWriter::CsvWriter(std::ostream& out, int precision)
    : out_(out), precision_(precision) {}

void CsvWriter::header(const std::vector<std::string>& columns) {
  if (header_written_ || rows_ > 0) {
    throw std::logic_error("CsvWriter::header must be called once, before rows");
  }
  if (columns.empty()) throw std::invalid_argument("CSV header must be non-empty");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out_ << ',';
    out_ << columns[i];
  }
  out_ << '\n';
  columns_ = columns.size();
  header_written_ = true;
}

void CsvWriter::row(const std::vector<double>& values) {
  if (header_written_ && values.size() != columns_) {
    throw std::invalid_argument("CSV row width does not match header");
  }
  out_ << std::setprecision(precision_);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ',';
    out_ << values[i];
  }
  out_ << '\n';
  ++rows_;
}

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  throw std::out_of_range("CSV column not found: " + name);
}

std::vector<double> CsvTable::column(const std::string& name) const {
  const std::size_t idx = column_index(name);
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(r.at(idx));
  return out;
}

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, sep)) fields.push_back(field);
  if (!line.empty() && line.back() == sep) fields.emplace_back();
  return fields;
}

}  // namespace

CsvTable parse_csv(const std::string& text) {
  CsvTable table;
  std::istringstream ss(text);
  std::string line;
  bool first = true;
  std::size_t line_no = 0;
  while (std::getline(ss, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto fields = split(line, ',');
    if (first) {
      table.columns = fields;
      first = false;
      continue;
    }
    if (fields.size() != table.columns.size()) {
      throw std::runtime_error("CSV ragged row at line " + std::to_string(line_no));
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (const auto& f : fields) {
      try {
        std::size_t pos = 0;
        const double v = std::stod(f, &pos);
        if (pos != f.size()) throw std::invalid_argument(f);
        row.push_back(v);
      } catch (const std::exception&) {
        throw std::runtime_error("CSV unparsable number '" + f + "' at line " +
                                 std::to_string(line_no));
      }
    }
    table.rows.push_back(std::move(row));
    table.line_numbers.push_back(line_no);
  }
  return table;
}

CsvTable read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open CSV file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_csv(buf.str());
}

}  // namespace fsc

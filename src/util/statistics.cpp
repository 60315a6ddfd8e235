#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fsc {

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::reset() noexcept { *this = RunningStats{}; }

WindowedStats::WindowedStats(std::size_t window) : buf_(window) {}

void WindowedStats::add(double x) {
  if (buf_.full()) {
    const double evicted = buf_.front();
    sum_ -= evicted;
    sum_sq_ -= evicted * evicted;
  }
  buf_.push(x);
  sum_ += x;
  sum_sq_ += x * x;
}

double WindowedStats::mean() const noexcept {
  return buf_.empty() ? 0.0 : sum_ / static_cast<double>(buf_.size());
}

double WindowedStats::variance() const noexcept {
  if (buf_.empty()) return 0.0;
  const double m = mean();
  const double v = sum_sq_ / static_cast<double>(buf_.size()) - m * m;
  return v > 0.0 ? v : 0.0;  // guard tiny negative values from cancellation
}

double WindowedStats::min() const noexcept {
  double lo = 1e300;
  for (std::size_t i = 0; i < buf_.size(); ++i) lo = std::min(lo, buf_.at(i));
  return lo;
}

double WindowedStats::max() const noexcept {
  double hi = -1e300;
  for (std::size_t i = 0; i < buf_.size(); ++i) hi = std::max(hi, buf_.at(i));
  return hi;
}

std::vector<double> WindowedStats::snapshot() const {
  std::vector<double> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i) out.push_back(buf_.at(i));
  return out;
}

}  // namespace fsc

// Streaming and windowed statistics.
//
// RunningStats accumulates count/mean/variance/min/max in a single pass
// (Welford).  WindowedStats keeps the last N samples for moving averages
// and local extrema — the moving-average predictor and the oscillation
// detector are built on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/ring_buffer.hpp"

namespace fsc {

/// Single-pass accumulator: count, mean, (population/sample) variance,
/// min and max.  O(1) memory.
class RunningStats {
 public:
  /// Fold one sample into the accumulator.  Inline: every server folds
  /// its junction temperature in here once per physics substep.  The
  /// batched kernel (batch/server_batch.cpp) repeats these exact
  /// operations on its SoA copy of the state.
  void add(double x) noexcept {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// An accumulator holding exactly the given state (the values the
  /// accessors below report, with `m2` the sum of squared deviations) —
  /// for code that folds samples outside the class with add()'s arithmetic
  /// and hands the result back.
  static RunningStats from_state(std::size_t n, double mean, double m2,
                                 double sum, double min, double max) noexcept {
    RunningStats s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.sum_ = sum;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

  /// Number of samples folded so far.
  std::size_t count() const noexcept { return n_; }

  /// Arithmetic mean; 0 when empty.
  double mean() const noexcept { return n_ ? mean_ : 0.0; }

  /// Population variance (divides by N); 0 when fewer than 1 sample.
  double variance() const noexcept { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }

  /// Sum of squared deviations from the mean (Welford's M2).
  double m2() const noexcept { return m2_; }

  /// Sample variance (divides by N-1); 0 when fewer than 2 samples.
  double sample_variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

  /// Population standard deviation.
  double stddev() const noexcept;

  /// Smallest sample; +inf when empty.
  double min() const noexcept { return min_; }

  /// Largest sample; -inf when empty.
  double max() const noexcept { return max_; }

  /// Sum of all samples.
  double sum() const noexcept { return sum_; }

  /// Reset to the freshly-constructed state.
  void reset() noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Statistics over a sliding window of the most recent `window` samples.
class WindowedStats {
 public:
  /// Create with a window of `window` samples (must be > 0).
  explicit WindowedStats(std::size_t window);

  /// Push one sample, evicting the oldest when the window is full.
  void add(double x);

  /// Number of samples currently in the window.
  std::size_t count() const noexcept { return buf_.size(); }

  /// True once `window` samples have been pushed.
  bool full() const noexcept { return buf_.full(); }

  /// Mean of the samples in the window; 0 when empty.
  double mean() const noexcept;

  /// Population variance over the window; 0 when empty.
  double variance() const noexcept;

  /// Min/max over the window; +/-inf when empty.
  double min() const noexcept;
  double max() const noexcept;

  /// Copy the window contents, oldest first.
  std::vector<double> snapshot() const;

  /// Drop all samples.
  void clear() noexcept { buf_.clear(); sum_ = 0.0; sum_sq_ = 0.0; }

 private:
  RingBuffer<double> buf_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace fsc

// The benchmark's own arithmetic, kept free of any simulation code so the
// unit tests in perfbench/tests pin it in isolation:
//
//   * order statistics, the tail-percentile rule (quantile, tail_q),
//     per-round minima across fixed-size blocks of repetitions
//     (per_index_min, complete_blocks) and per-round midmeans across every
//     repetition (midmean, per_index_midmean);
//   * span self time: a span's duration minus the durations of the spans
//     it directly contains on the same track (self_times);
//   * per-round barrier accounting over executor participants
//     (account_round / RoundTotals);
//   * outcome fingerprints and their bitwise comparison (Fingerprint).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile over a copy of `v` (q in [0, 1]), the
/// same "inclusive" definition numpy's default and Python's
/// statistics.quantiles(method="inclusive") use.  Throws on empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile: no samples");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.  A p95 over 40 samples is the 2nd-largest value — one noisy
/// round moves it — so the benchmark never reports a tail that thin.
inline constexpr std::size_t kTailSamples = 10;

/// The tail-percentile rule: the quantile actually reported when `q` is
/// asked for over `n` samples.  `q` itself when at least kTailSamples
/// samples lie beyond it (n * (1 - q) >= kTailSamples).  Otherwise the
/// fallback is the highest quantile that still leaves kTailSamples beyond,
/// 1 - kTailSamples / n, and never below the median (n <= 2 * kTailSamples
/// reports the median).
inline double tail_q(double q, std::size_t n) {
  if (n == 0) throw std::invalid_argument("tail_q: no samples");
  const double beyond = static_cast<double>(n) * (1.0 - q);
  if (beyond >= static_cast<double>(kTailSamples)) return q;
  const double fallback =
      1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::max(0.5, fallback);
}

/// quantile() under the tail rule.
inline double tail_quantile(const std::vector<double>& v, double q) {
  return quantile(v, tail_q(q, v.size()));
}

/// Per-index minimum over repetitions of one identical sequence:
/// out[i] = min over r of at(r, i), for `reps` repetitions of length `n`.
/// The benchmark repeats a deterministic run several times in its window,
/// so round i does the same work in every repetition.  Host interference
/// only ever adds time, and it lands on different rounds in different
/// repetitions; each round's fastest time is the estimate of its own cost.
template <typename At>
std::vector<double> per_index_min(std::size_t reps, std::size_t n, At at) {
  if (reps == 0) throw std::invalid_argument("per_index_min: no repetitions");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    double best = static_cast<double>(at(0, i));
    for (std::size_t r = 1; r < reps; ++r) best = std::min(best, static_cast<double>(at(r, i)));
    out[i] = best;
  }
  return out;
}

/// Repetitions per block of the minimum-based estimate paper-sweep uses.
/// A run's repetitions are cut into consecutive blocks of exactly
/// kBlockReps (a trailing partial block is dropped); each block's per-round
/// minima make one estimate and the benchmark reports the median over
/// blocks.  The minimum is always taken over the same number of
/// repetitions, so it does not fall when a faster build fits more
/// repetitions into its window; more blocks only steady the median.
inline constexpr std::size_t kBlockReps = 3;

/// Complete blocks of kBlockReps in `reps` repetitions.
inline std::size_t complete_blocks(std::size_t reps) { return reps / kBlockReps; }

/// Midmean (interquartile mean): the mean of the middle half of `v` once
/// sorted — the values from rank floor(n/4) up to, not including,
/// n - floor(n/4).  Throws on empty input.
inline double midmean(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("midmean: no samples");
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double total = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) total += v[i];
  return total / static_cast<double>(v.size() - 2 * cut);
}

/// Per-index midmean over repetitions of one identical sequence:
/// out[i] = midmean over r of reps[r][i]; throws when they differ in
/// length.  A shared host switches between fast and slow spells many times
/// a second.  A round's minimum then reads whether one sample fell in a
/// fast spell and its median which spell most samples fell in, so both
/// scatter from round to round; the midmean averages the spells in the
/// proportion the run met them, the same for every round, while still
/// dropping the outliers at either end.  It does not drift with the number
/// of repetitions, so it is taken over all of them.
template <typename T>
std::vector<double> per_index_midmean(const std::vector<std::vector<T>>& reps) {
  if (reps.empty()) throw std::invalid_argument("per_index_midmean: no repetitions");
  const std::size_t n = reps.front().size();
  std::vector<double> out(n);
  std::vector<double> column(reps.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < reps.size(); ++r) {
      if (reps[r].size() != n) {
        throw std::invalid_argument("per_index_midmean: repetitions differ in length");
      }
      column[r] = static_cast<double>(reps[r][i]);
    }
    out[i] = midmean(column);
  }
  return out;
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// -------------------------------------------------------------- self time

/// One recorded span.  `track` is the recording thread (executor
/// participant); nesting is only ever resolved within one track.
struct Span {
  const char* name = nullptr;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t track = 0;
};

struct SelfTime {
  std::int64_t self_ns = 0;   ///< summed over every span of this name
  std::int64_t total_ns = 0;  ///< summed durations, children included
  std::size_t count = 0;
  double self_ns_per_call() const {
    return count > 0 ? static_cast<double>(self_ns) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Self time per span name: each span's duration minus the summed
/// durations of its DIRECT children — the spans on the same track that lie
/// inside it with no other span in between.  A span that starts inside
/// another but ends after it is not its child (it closes the outer span's
/// scope); the engines never produce such overlaps, the rule only keeps
/// the arithmetic total on bad input.
inline std::map<std::string, SelfTime> self_times(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.track != b.track) return a.track < b.track;
    if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
    return a.end_ns > b.end_ns;  // the enclosing span first
  });
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;  // indices of enclosing spans, innermost last
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].track != spans[i].track ||
            spans[open.back()].end_ns < spans[i].end_ns)) {
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += spans[i].end_ns - spans[i].begin_ns;
    open.push_back(i);
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& s = out[spans[i].name];
    const std::int64_t dur = spans[i].end_ns - spans[i].begin_ns;
    s.total_ns += dur;
    s.self_ns += dur - child_ns[i];
    ++s.count;
  }
  return out;
}

// ------------------------------------------------------- barrier accounting

/// One executor participant's share of a round's parallel phase.
struct ParticipantWork {
  std::int64_t busy_ns = 0;      ///< summed self time of its shard spans
  std::int64_t last_end_ns = 0;  ///< end of its last shard; 0 = ran none
};

/// Wall-time decomposition of one lockstep round.
struct RoundAccount {
  double wall_ns = 0.0;       ///< round span
  double mean_busy_ns = 0.0;  ///< mean over participants of shard time
  double max_busy_ns = 0.0;   ///< the slowest participant's shard time
  double mean_wait_ns = 0.0;  ///< mean idle time at the barrier
  double serial_ns = 0.0;     ///< barrier work on the driving thread
};

/// Decompose a round that ran on `work.size()` participants.  The parallel
/// phase ends when the last participant finishes its last shard; every
/// participant waits at the barrier from its own last shard end (or from
/// the round start, if it had no shard) until then.  Then
///
///   wall ~= mean_busy + mean_wait + serial
///
/// and whatever is left over is dispatch latency (worker wake-up, barrier
/// detection) — the part no span covers.
inline RoundAccount account_round(std::int64_t round_begin_ns,
                                  std::int64_t round_end_ns,
                                  std::int64_t serial_ns,
                                  const std::vector<ParticipantWork>& work) {
  if (work.empty()) throw std::invalid_argument("account_round: no participants");
  std::int64_t parallel_end = round_begin_ns;
  for (const ParticipantWork& p : work) {
    if (p.last_end_ns != 0) parallel_end = std::max(parallel_end, p.last_end_ns);
  }
  RoundAccount a;
  a.wall_ns = static_cast<double>(round_end_ns - round_begin_ns);
  a.serial_ns = static_cast<double>(serial_ns);
  double busy = 0.0;
  double wait = 0.0;
  for (const ParticipantWork& p : work) {
    busy += static_cast<double>(p.busy_ns);
    a.max_busy_ns = std::max(a.max_busy_ns, static_cast<double>(p.busy_ns));
    const std::int64_t idle_from = p.last_end_ns != 0 ? p.last_end_ns : round_begin_ns;
    wait += static_cast<double>(parallel_end - idle_from);
  }
  const double n = static_cast<double>(work.size());
  a.mean_busy_ns = busy / n;
  a.mean_wait_ns = wait / n;
  return a;
}

/// Sums of RoundAccounts over a run, and the ratios the benchmark reports.
struct RoundTotals {
  double wall_ns = 0.0;
  double mean_busy_ns = 0.0;
  double max_busy_ns = 0.0;
  double mean_wait_ns = 0.0;
  double serial_ns = 0.0;
  std::size_t rounds = 0;

  void add(const RoundAccount& a) {
    wall_ns += a.wall_ns;
    mean_busy_ns += a.mean_busy_ns;
    max_busy_ns += a.max_busy_ns;
    mean_wait_ns += a.mean_wait_ns;
    serial_ns += a.serial_ns;
    ++rounds;
  }
  void merge(const RoundTotals& o) {
    wall_ns += o.wall_ns;
    mean_busy_ns += o.mean_busy_ns;
    max_busy_ns += o.max_busy_ns;
    mean_wait_ns += o.mean_wait_ns;
    serial_ns += o.serial_ns;
    rounds += o.rounds;
  }
  /// Share of round wall time participants spend idle at the barrier.
  double barrier_wait_pct() const { return pct(mean_wait_ns); }
  /// Share of round wall time spent in serial barrier work.
  double serial_pct() const { return pct(serial_ns); }
  /// Slowest participant's shard time over the mean participant's: 1 is a
  /// perfectly balanced round.
  double shard_imbalance() const {
    return mean_busy_ns > 0.0 ? max_busy_ns / mean_busy_ns : 0.0;
  }
  /// Share of round wall time covered by shard + barrier wait + serial.
  double accounted_pct() const {
    return pct(mean_busy_ns + mean_wait_ns + serial_ns);
  }

 private:
  double pct(double part) const {
    return wall_ns > 0.0 ? 100.0 * part / wall_ns : 0.0;
  }
};

/// Participant that LockstepExecutor::run assigns index `i` of `count` to
/// over `participants` threads: the contiguous shard
/// [count * p / P, count * (p + 1) / P) belongs to participant p.
inline std::size_t lockstep_owner(std::size_t i, std::size_t count,
                                  std::size_t participants) {
  for (std::size_t p = 0; p < participants; ++p) {
    if (i < count * (p + 1) / participants) return p;
  }
  return participants - 1;
}

// ------------------------------------------------------------ fingerprint

/// The outcome of one run, reduced to the numbers a speed-only change must
/// leave bit-identical.  Doubles are compared by bit pattern, so -0.0 vs
/// 0.0 or a differently-rounded sum counts as a change.
struct Fingerprint {
  double fan_energy_j = 0.0;
  double cpu_energy_j = 0.0;
  std::uint64_t violations = 0;  ///< pooled deadline-violating periods
  double max_junction_c = 0.0;

  bool finite() const {
    return std::isfinite(fan_energy_j) && std::isfinite(cpu_energy_j) &&
           std::isfinite(max_junction_c);
  }
};

inline bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

inline bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return same_bits(a.fan_energy_j, b.fan_energy_j) &&
         same_bits(a.cpu_energy_j, b.cpu_energy_j) &&
         a.violations == b.violations &&
         same_bits(a.max_junction_c, b.max_junction_c);
}
inline bool operator!=(const Fingerprint& a, const Fingerprint& b) {
  return !(a == b);
}

}  // namespace perfbench

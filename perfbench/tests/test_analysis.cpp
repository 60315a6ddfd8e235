// The benchmark's own arithmetic: the tail-percentile rule, per-round
// minima, span self time, barrier accounting, and fingerprints.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "analysis.hpp"

namespace perfbench {
namespace {

// -------------------------------------------------------------- quantiles

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(TailRule, KeepsTheAskedQuantileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_q(0.95, 200), 0.95);   // 10 beyond exactly
  EXPECT_DOUBLE_EQ(tail_q(0.95, 1000), 0.95);
  EXPECT_DOUBLE_EQ(tail_q(0.50, 20), 0.50);
}

TEST(TailRule, FallsBackToTheHighestQuantileWithTenBeyond) {
  EXPECT_DOUBLE_EQ(tail_q(0.95, 100), 0.90);   // 1 - 10/100
  EXPECT_DOUBLE_EQ(tail_q(0.95, 40), 0.75);
  EXPECT_DOUBLE_EQ(tail_q(0.99, 199), 1.0 - 10.0 / 199.0);
}

TEST(TailRule, NeverFallsBelowTheMedian) {
  EXPECT_DOUBLE_EQ(tail_q(0.95, 20), 0.5);
  EXPECT_DOUBLE_EQ(tail_q(0.95, 3), 0.5);
  EXPECT_DOUBLE_EQ(tail_q(0.95, 1), 0.5);
  EXPECT_THROW(tail_q(0.95, 0), std::invalid_argument);
}

TEST(TailRule, TailQuantileAppliesTheFallback) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_quantile(v, 0.95), quantile(v, 0.90));
  for (int i = 100; i < 200; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_quantile(v, 0.95), quantile(v, 0.95));
}

TEST(PerIndexMin, ReadsAFlatBuffer) {
  const std::vector<float> flat = {1, 5, 2, 6, 3, 4};  // 3 reps x 2 rounds
  const std::vector<double> m = per_index_min(
      3, 2, [&](std::size_t r, std::size_t i) { return flat[r * 2 + i]; });
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[1], 4.0);
}

TEST(Midmean, AveragesTheMiddleHalf) {
  // 8 samples: the lowest 2 and highest 2 are dropped.
  EXPECT_DOUBLE_EQ(midmean({100, 1, 3, 5, 4, 6, 0, 50}), 4.5);
  // 5 samples: one is dropped at either end.
  EXPECT_DOUBLE_EQ(midmean({9, 1, 2, 3, 30}), (2.0 + 3.0 + 9.0) / 3.0);
  // Fewer than 4 samples: nothing is dropped.
  EXPECT_DOUBLE_EQ(midmean({1, 2, 6}), 3.0);
  EXPECT_THROW(midmean({}), std::invalid_argument);
}

TEST(PerIndexMidmean, MixesFastAndSlowSpellsInTheSameProportionPerRound) {
  // Round costs 10 and 20, each met in fast (x1), slow (x2) and mixed
  // (x1.5) spells, plus one wild repetition at either end per round: the
  // midmean drops those and averages the spells.
  const std::vector<std::vector<double>> reps = {
      {10, 40}, {20, 20}, {10, 40}, {20, 20}, {15, 30}, {15, 30}, {100, 1}, {1, 100}};
  const std::vector<double> m = per_index_midmean(reps);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 15.0);
  EXPECT_DOUBLE_EQ(m[1], 30.0);
  EXPECT_THROW(per_index_midmean(std::vector<std::vector<double>>{{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(per_index_midmean(std::vector<std::vector<double>>{}), std::invalid_argument);
}

// -------------------------------------------------------------- self time

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // round [0, 100] holds shard [10, 40] and coordinate [50, 90];
  // coordinate holds plenum [60, 70].
  const std::vector<Span> spans = {
      {"round", 0, 100, 0},  {"shard", 10, 40, 0}, {"coordinate", 50, 90, 0},
      {"plenum", 60, 70, 0},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self.at("round").self_ns, 100 - 30 - 40);  // not minus plenum
  EXPECT_EQ(self.at("round").total_ns, 100);
  EXPECT_EQ(self.at("coordinate").self_ns, 40 - 10);
  EXPECT_EQ(self.at("shard").self_ns, 30);
  EXPECT_EQ(self.at("plenum").self_ns, 10);
}

TEST(SelfTime, NestsOnlyWithinATrack) {
  // A worker's shard overlaps the round in time but runs on another track.
  const std::vector<Span> spans = {{"round", 0, 100, 0}, {"shard", 10, 90, 1}};
  const auto self = self_times(spans);
  EXPECT_EQ(self.at("round").self_ns, 100);
  EXPECT_EQ(self.at("shard").self_ns, 80);
}

TEST(SelfTime, AggregatesRepeatedNamesAndIgnoresInputOrder) {
  const std::vector<Span> spans = {
      {"step", 25, 30, 0}, {"period", 20, 40, 0}, {"step", 5, 10, 0},
      {"period", 0, 15, 0}, {"note", 10, 12, 0},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self.at("period").count, 2u);
  EXPECT_EQ(self.at("period").self_ns, (15 - 5 - 2) + (20 - 5));
  EXPECT_EQ(self.at("step").self_ns, 10);
  EXPECT_DOUBLE_EQ(self.at("step").self_ns_per_call(), 5.0);
}

TEST(SelfTime, APartialOverlapIsNotAChild) {
  const std::vector<Span> spans = {{"a", 0, 10, 0}, {"b", 5, 15, 0}};
  const auto self = self_times(spans);
  EXPECT_EQ(self.at("a").self_ns, 10);
  EXPECT_EQ(self.at("b").self_ns, 10);
}

// ------------------------------------------------------ barrier accounting

TEST(Barrier, WaitRunsFromEachParticipantsLastShardToTheSlowest) {
  // Round [0, 100]: participant 0 busy 60 (ends at 60), participant 1 busy
  // 80 (ends at 80), serial work 15 after the barrier.
  const RoundAccount a = account_round(0, 100, 15, {{60, 60}, {80, 80}});
  EXPECT_DOUBLE_EQ(a.wall_ns, 100.0);
  EXPECT_DOUBLE_EQ(a.mean_busy_ns, 70.0);
  EXPECT_DOUBLE_EQ(a.max_busy_ns, 80.0);
  EXPECT_DOUBLE_EQ(a.mean_wait_ns, (20.0 + 0.0) / 2.0);
  EXPECT_DOUBLE_EQ(a.serial_ns, 15.0);
}

TEST(Barrier, AnIdleParticipantWaitsTheWholeParallelPhase) {
  const RoundAccount a = account_round(100, 200, 0, {{50, 150}, {0, 0}});
  EXPECT_DOUBLE_EQ(a.mean_busy_ns, 25.0);
  EXPECT_DOUBLE_EQ(a.mean_wait_ns, (0.0 + 50.0) / 2.0);
}

TEST(Barrier, TotalsGiveWaitImbalanceSerialAndCoverage) {
  RoundTotals t;
  t.add(account_round(0, 100, 15, {{60, 60}, {80, 80}}));
  t.add(account_round(100, 200, 10, {{80, 180}, {80, 180}}));
  EXPECT_EQ(t.rounds, 2u);
  EXPECT_DOUBLE_EQ(t.barrier_wait_pct(), 100.0 * 10.0 / 200.0);
  EXPECT_DOUBLE_EQ(t.serial_pct(), 100.0 * 25.0 / 200.0);
  EXPECT_DOUBLE_EQ(t.shard_imbalance(), (80.0 + 80.0) / (70.0 + 80.0));
  // busy 150 + wait 10 + serial 25 of 200 wall: 15 ns of dispatch unaccounted.
  EXPECT_DOUBLE_EQ(t.accounted_pct(), 100.0 * 185.0 / 200.0);

  RoundTotals merged;
  merged.merge(t);
  merged.merge(t);
  EXPECT_EQ(merged.rounds, 4u);
  EXPECT_DOUBLE_EQ(merged.accounted_pct(), t.accounted_pct());
}

TEST(Barrier, LockstepOwnerMatchesTheExecutorPartition) {
  // LockstepExecutor gives participant p the shards [n*p/P, n*(p+1)/P).
  const std::size_t expect8[] = {0, 0, 1, 1, 2, 2, 3, 3};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(lockstep_owner(i, 8, 4), expect8[i]);
  // 3 shards over 4 participants: participant 0 runs none.
  EXPECT_EQ(lockstep_owner(0, 3, 4), 1u);
  EXPECT_EQ(lockstep_owner(1, 3, 4), 2u);
  EXPECT_EQ(lockstep_owner(2, 3, 4), 3u);
  EXPECT_EQ(lockstep_owner(5, 6, 1), 0u);
}

// ------------------------------------------------------------ fingerprint

TEST(Fingerprint, ComparesBitPatterns) {
  const Fingerprint a{1.5, 2.5, 7, 80.25};
  Fingerprint b = a;
  EXPECT_EQ(a, b);
  b.fan_energy_j = std::nextafter(a.fan_energy_j, 2.0);  // one ulp
  EXPECT_NE(a, b);
  b = a;
  b.violations = 8;
  EXPECT_NE(a, b);
  b = a;
  b.max_junction_c = -0.0;
  Fingerprint c = a;
  c.max_junction_c = 0.0;
  EXPECT_NE(b, c);  // -0.0 and 0.0 differ in bits
}

TEST(Fingerprint, FiniteRejectsNanAndInfinity) {
  Fingerprint f{1.0, 2.0, 0, 80.0};
  EXPECT_TRUE(f.finite());
  f.cpu_energy_j = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(f.finite());
  f.cpu_energy_j = 2.0;
  f.max_junction_c = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(f.finite());
  EXPECT_EQ(f, f);  // bitwise: the same NaN matches itself; finite() flags it
}

}  // namespace
}  // namespace perfbench

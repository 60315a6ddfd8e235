// Unit/integration tests for the Server plant assembly and the simulation
// runner.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/server.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace fsc {
namespace {

// ---------------------------------------------------------------- Server

TEST(Server, StartsAtEquilibrium) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  // At zero utilization and 2000 rpm the junction equals its steady state.
  const double expected =
      s.params().thermal.steady_state_junction(96.0, 2000.0);
  EXPECT_NEAR(s.true_junction(), expected, 1e-9);
}

TEST(Server, MeasuredTempIsQuantized) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  const double m = s.measured_temp();
  EXPECT_DOUBLE_EQ(m, std::floor(m));
  EXPECT_DOUBLE_EQ(s.quantization_step(), 1.0);
}

TEST(Server, MeasurementLagsTruth) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  s.settle(0.1, 2000.0);
  // Run hot for 8 s: the junction rises immediately, the measurement is
  // still reporting the (quantized) pre-step temperature.
  const double before = s.measured_temp();
  for (int i = 0; i < 160; ++i) s.step(1.0, 0.05);
  EXPECT_GT(s.true_junction(), before + 2.0);
  EXPECT_NEAR(s.measured_temp(), before, 1.0);
}

TEST(Server, FanCommandSlews) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  s.command_fan(4000.0);
  EXPECT_DOUBLE_EQ(s.fan_speed_actual(), 2000.0);  // not yet
  for (int i = 0; i < 20; ++i) s.step(0.0, 0.05);  // 1 s at 1000 rpm/s
  EXPECT_NEAR(s.fan_speed_actual(), 3000.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.fan_speed_commanded(), 4000.0);
}

TEST(Server, EnergyAccumulates) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  for (int i = 0; i < 20; ++i) s.step(0.5, 0.05);  // 1 s at u = 0.5
  EXPECT_NEAR(s.energy().cpu_energy(), 128.0, 0.5);  // 128 W * 1 s
  EXPECT_GT(s.energy().fan_energy(), 0.0);
  s.reset_accounting(80.0);
  EXPECT_DOUBLE_EQ(s.energy().total_energy(), 0.0);
}

TEST(Server, JunctionAccountingFollowsStep) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  s.reset_accounting(50.0);
  double over = 0.0;
  for (int i = 0; i < 200; ++i) {
    s.step(1.0, 0.05);
    if (s.true_junction() > 50.0) over += 0.05;
  }
  EXPECT_EQ(s.junction_stats().count(), 200u);
  EXPECT_EQ(s.junction_stats().max(), s.true_junction());  // heating up
  EXPECT_EQ(s.over_limit_seconds(), over);
  EXPECT_GT(over, 0.0);
  s.reset_accounting(80.0);
  EXPECT_EQ(s.junction_stats().count(), 0u);
  EXPECT_EQ(s.over_limit_seconds(), 0.0);
  EXPECT_EQ(s.thermal_limit_celsius(), 80.0);
}

TEST(Server, SettlePreloadsSensor) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  s.settle(0.7, 3000.0);
  const double tj = s.true_junction();
  // The sensor must report the settled temperature immediately (quantized).
  EXPECT_NEAR(s.measured_temp(), tj, 1.0);
}

TEST(Server, RejectsNegativeDt) {
  Rng rng(1);
  Server s = Server::table1_defaults(rng);
  EXPECT_THROW(s.step(0.5, -0.1), std::invalid_argument);
}

// ---------------------------------------------------------------- run_simulation

/// A do-nothing policy holding fixed outputs, for exercising the runner.
class FixedPolicy final : public DtmPolicy {
 public:
  FixedPolicy(double fan, double cap) : fan_(fan), cap_(cap) {}
  DtmOutputs step(const DtmInputs&) override { return {fan_, cap_}; }
  void reset() override {}
  double reference_temp() const override { return 75.0; }

 private:
  double fan_;
  double cap_;
};

TEST(RunSimulation, ProducesExpectedTraceLength) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 1.0);
  ConstantWorkload workload(0.5);
  SimulationParams p;
  p.duration_s = 120.0;
  const auto r = run_simulation(server, policy, workload, p);
  EXPECT_EQ(r.trace.size(), 120u);
  EXPECT_DOUBLE_EQ(r.duration_s, 120.0);
  EXPECT_EQ(r.deadline.periods(), 120u);
}

TEST(RunSimulation, NoViolationsWhenCapIsOne) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 1.0);
  ConstantWorkload workload(0.9);
  SimulationParams p;
  p.duration_s = 60.0;
  const auto r = run_simulation(server, policy, workload, p);
  EXPECT_EQ(r.deadline.violations(), 0u);
}

TEST(RunSimulation, CapBelowDemandViolatesEveryPeriod) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 0.5);
  ConstantWorkload workload(0.9);
  SimulationParams p;
  p.duration_s = 60.0;
  const auto r = run_simulation(server, policy, workload, p);
  EXPECT_EQ(r.deadline.violations(), 60u);
  EXPECT_NEAR(r.deadline.violation_percent(), 100.0, 1e-9);
}

TEST(RunSimulation, EnergySplitConsistent) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(8500.0, 1.0);
  ConstantWorkload workload(0.0);
  SimulationParams p;
  p.duration_s = 300.0;
  const auto r = run_simulation(server, policy, workload, p);
  // Fan at max draws 29.4 W once it spins up (2000->8500 takes 32.5 s).
  EXPECT_GT(r.fan_energy_joules, 29.4 * 250.0);
  EXPECT_LT(r.fan_energy_joules, 29.4 * 300.0 + 1.0);
  // CPU at idle draws exactly 96 W.
  EXPECT_NEAR(r.cpu_energy_joules, 96.0 * 300.0, 1.0);
}

TEST(RunSimulation, ThermalViolationFractionDetectsHotRuns) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  // Minimum fan speed at full load: guaranteed above the 80 degC limit.
  FixedPolicy policy(500.0, 1.0);
  ConstantWorkload workload(1.0);
  SimulationParams p;
  p.duration_s = 900.0;
  p.initial_utilization = 1.0;
  const auto r = run_simulation(server, policy, workload, p);
  EXPECT_GT(r.thermal_violation_fraction, 0.5);
  EXPECT_GT(r.junction_stats.max(), 80.0);
}

TEST(RunSimulation, TraceRecordsConsistentFields) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 0.6);
  ConstantWorkload workload(0.8);
  SimulationParams p;
  p.duration_s = 30.0;
  const auto r = run_simulation(server, policy, workload, p);
  for (const auto& rec : r.trace) {
    EXPECT_DOUBLE_EQ(rec.cap, 0.6);
    EXPECT_DOUBLE_EQ(rec.demand, 0.8);
    EXPECT_DOUBLE_EQ(rec.executed, 0.6);  // min(demand, cap)
    EXPECT_DOUBLE_EQ(rec.fan_cmd_rpm, 3000.0);
    EXPECT_GE(rec.junction_celsius, 25.0);
  }
}

TEST(RunSimulation, RecordPeriodThinsTrace) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 1.0);
  ConstantWorkload workload(0.5);
  SimulationParams p;
  p.duration_s = 100.0;
  p.record_period_s = 10.0;
  const auto r = run_simulation(server, policy, workload, p);
  EXPECT_EQ(r.trace.size(), 10u);
}

TEST(RunSimulation, DisableTraceRecording) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 1.0);
  ConstantWorkload workload(0.5);
  SimulationParams p;
  p.duration_s = 50.0;
  p.record_trace = false;
  const auto r = run_simulation(server, policy, workload, p);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_EQ(r.deadline.periods(), 50u);
}

TEST(RunSimulation, ColumnExtraction) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 1.0);
  ConstantWorkload workload(0.5);
  SimulationParams p;
  p.duration_s = 20.0;
  const auto r = run_simulation(server, policy, workload, p);
  const auto speeds = r.column(&TraceRecord::fan_cmd_rpm);
  ASSERT_EQ(speeds.size(), 20u);
  for (double v : speeds) EXPECT_DOUBLE_EQ(v, 3000.0);
}

TEST(RunSimulation, TraceCsvHasHeaderAndRows) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 1.0);
  ConstantWorkload workload(0.5);
  SimulationParams p;
  p.duration_s = 10.0;
  const auto r = run_simulation(server, policy, workload, p);
  const auto csv = trace_to_csv(r.trace);
  EXPECT_NE(csv.find("time,demand,cap"), std::string::npos);
  // Header + 10 rows = 11 newline-terminated lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 11);
}

TEST(RunSimulation, SummarizeCopiesMetrics) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 0.5);
  ConstantWorkload workload(0.9);
  SimulationParams p;
  p.duration_s = 60.0;
  const auto r = run_simulation(server, policy, workload, p);
  const auto row = r.summarize("test-row");
  EXPECT_EQ(row.name, "test-row");
  EXPECT_NEAR(row.deadline_violation_percent, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(row.fan_energy_joules, r.fan_energy_joules);
}

TEST(RunSimulation, RejectsBadParams) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  FixedPolicy policy(3000.0, 1.0);
  ConstantWorkload workload(0.5);
  SimulationParams p;
  p.duration_s = 0.0;
  EXPECT_THROW(run_simulation(server, policy, workload, p), std::invalid_argument);
  p = SimulationParams{};
  p.physics_dt_s = 2.0;  // larger than cpu period
  EXPECT_THROW(run_simulation(server, policy, workload, p), std::invalid_argument);
}

}  // namespace
}  // namespace fsc

// batch/ subsystem tests: the batched SoA plant kernel must be
// BIT-identical to the scalar path — not close, identical — at every rung
// of the ladder:
//
//   * ServerBatch at N = 1 against Server::step and against
//     ServerThermalModel::step (the scalar step is the N = 1 wrapper over
//     the same plant_kernel.hpp expressions);
//   * a full coupled rack run through the batched CoupledRackEngine
//     against the scalar (one-task-per-server) path, across 1/2/8 threads;
//   * a full scheduled room likewise.
//
// The fused accounting (energy, junction statistics, time over the thermal
// limit, sensor sampling phase) is held to the same standard: the N = 1
// oracle compares the whole Server at every period boundary, for substeps
// that divide the sample period, do not, and exceed it.  The period-
// granular entry (step_period) is held against both step_range once per
// substep and Server::step, over settled, slewing and mixed chunks, split
// and partial ranges, finished lanes, noisy sensors and several samples
// per substep, down to the memo tallies.
//
// Every comparison below uses exact double equality (EXPECT_EQ), because
// the design guarantee is "same FP operations in the same per-slot order",
// not "small error".
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "batch/plant_kernel.hpp"
#include "batch/server_batch.hpp"
#include "coord/coupled_rack_engine.hpp"
#include "room/room_engine.hpp"
#include "sim/server.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/rng.hpp"

namespace fsc {
namespace {

constexpr double kDt = 0.05;
constexpr long kSubstepsPerPeriod = 20;

// ------------------------------------------------------------ kernel unit

TEST(PlantKernel, MatchesModelClassExpressions) {
  const HeatSinkModel hs = HeatSinkModel::table1_defaults();
  const FanPowerModel fp = FanPowerModel::table1_defaults();
  for (double rpm : {0.0, 0.5, 1.0, 1500.0, 3333.3, 8500.0, 9000.0}) {
    EXPECT_EQ(hs.resistance(rpm),
              plant::heat_sink_resistance(hs.r_base(), hs.r_coeff(), hs.r_exp(), rpm));
    EXPECT_EQ(fp.power(rpm), plant::fan_power(fp.power_at_max(), fp.max_speed(), rpm));
  }
}

TEST(PlantKernel, SlewLandsExactlyOnCommandWithinReach) {
  // Within reach: returns the command itself, not actual + delta (which
  // could round differently) — mirrors FanActuator::step's assignment.
  EXPECT_EQ(plant::slew_toward(3000.0, 3040.0, 50.0), 3040.0);
  EXPECT_EQ(plant::slew_toward(3000.0, 2990.0, 50.0), 2990.0);
  // Out of reach: bounded move toward the command.
  EXPECT_EQ(plant::slew_toward(3000.0, 4000.0, 50.0), 3050.0);
  EXPECT_EQ(plant::slew_toward(3000.0, 2000.0, 50.0), 2950.0);
}

// -------------------------------------------------- N = 1 vs Server::step

/// A junction limit the load square wave below crosses both ways, so the
/// over-limit seconds are a live quantity, not a constant zero.
constexpr double kOracleLimit = 74.5;

/// Drive one Server by Server::step and a twin through an N = 1 batch the
/// way RackBatchStepper does: step_all per substep, the sensor samples it
/// reports, one write_back per period.  The plant is compared at every
/// substep (from the batch arrays), the whole Server at every period
/// boundary.  Returns the number of sensor samples the batch reported.
long expect_batch_matches_server_step(double dt, long substeps,
                                      const SensorChainParams& sensor,
                                      long periods) {
  ServerParams params;
  params.sensor = sensor;
  Rng rng_a(7);
  Rng rng_b(7);
  Server scalar(params, 2000.0, rng_a);
  Server batched(params, 2000.0, rng_b);
  scalar.reset_accounting(kOracleLimit);
  batched.reset_accounting(kOracleLimit);

  ServerBatch batch;
  EXPECT_EQ(batch.add_server(batched), 0u);
  EXPECT_EQ(batch.size(), 1u);

  long samples = 0;
  for (long period = 0; period < periods; ++period) {
    // Exercise all regimes: load square wave, fan commands that slew for
    // several substeps, an inlet retarget mid-run (plenum coupling).
    const double u = (period / 7) % 2 == 0 ? 0.25 : 0.85;
    const double cmd = (period % 40) < 20 ? 2500.0 : 7000.0;
    scalar.command_fan(cmd);
    batched.command_fan(cmd);
    if (period == periods / 2) {
      scalar.set_inlet_temperature(45.5);
      batched.set_inlet_temperature(45.5);
    }
    batch.set_inputs(0, batched.cpu_power_now(u), batched.fan_speed_commanded(),
                     batched.inlet_temperature());
    for (long s = 0; s < substeps; ++s) {
      scalar.step(u, dt);
      if (batch.step_all(dt)) {
        for (unsigned k = batch.samples_due(0); k > 0; --k) {
          batched.sample_sensor(batch.junction_celsius(0));
          ++samples;
        }
      }
      EXPECT_EQ(scalar.true_junction(), batch.junction_celsius(0))
          << "period " << period << " substep " << s;
      EXPECT_EQ(scalar.true_heat_sink(), batch.heat_sink_celsius(0));
      EXPECT_EQ(scalar.fan_speed_actual(), batch.fan_rpm(0));
    }
    batch.write_back(0, batched);
    SCOPED_TRACE(testing::Message() << "period " << period);
    EXPECT_EQ(scalar.true_junction(), batched.true_junction());
    EXPECT_EQ(scalar.true_heat_sink(), batched.true_heat_sink());
    EXPECT_EQ(scalar.fan_speed_actual(), batched.fan_speed_actual());
    EXPECT_EQ(scalar.sensor_phase(), batched.sensor_phase());
    EXPECT_EQ(scalar.measured_temp(), batched.measured_temp());
    EXPECT_EQ(scalar.energy().cpu_energy(), batched.energy().cpu_energy());
    EXPECT_EQ(scalar.energy().fan_energy(), batched.energy().fan_energy());
    EXPECT_EQ(scalar.energy().elapsed(), batched.energy().elapsed());
    EXPECT_EQ(scalar.junction_stats().count(), batched.junction_stats().count());
    EXPECT_EQ(scalar.junction_stats().mean(), batched.junction_stats().mean());
    EXPECT_EQ(scalar.junction_stats().max(), batched.junction_stats().max());
    EXPECT_EQ(scalar.junction_stats().min(), batched.junction_stats().min());
    EXPECT_EQ(scalar.junction_stats().m2(), batched.junction_stats().m2());
    EXPECT_EQ(scalar.over_limit_seconds(), batched.over_limit_seconds());
    if (testing::Test::HasFailure()) return samples;
  }
  // The scenario must actually exercise the over-limit accounting.
  EXPECT_GT(scalar.over_limit_seconds(), 0.0);
  EXPECT_LT(scalar.over_limit_seconds(), scalar.energy().elapsed());
  return samples;
}

TEST(ServerBatch, N1BitIdenticalToScalarServerStep) {
  // The engines' timing: 20 substeps of 0.05 s per 1 s period, one sensor
  // sample per period.
  const long samples = expect_batch_matches_server_step(
      kDt, kSubstepsPerPeriod, SensorChainParams{}, 120);
  EXPECT_GT(samples, 100);
}

TEST(ServerBatch, N1BitIdenticalWhenDtDoesNotDivideTheSamplePeriod) {
  // 0.03 s substeps against a 1 s sample period: the phase wraps between
  // substeps, at a different substep offset each time.
  const long samples =
      expect_batch_matches_server_step(0.03, 20, SensorChainParams{}, 120);
  EXPECT_GT(samples, 60);
}

TEST(ServerBatch, N1BitIdenticalWhenDtExceedsTheSamplePeriod) {
  // 0.05 s substeps against a 0.02 s sample period: every substep catches
  // up two or three samples.  Sensor noise makes each sample draw from the
  // server's RNG, so a missed or extra sample would show in the reading.
  SensorChainParams sensor;
  sensor.sample_period_s = 0.02;
  sensor.noise_stddev = 0.4;
  const long periods = 60;
  const long samples =
      expect_batch_matches_server_step(kDt, kSubstepsPerPeriod, sensor, periods);
  EXPECT_GE(samples, 2 * periods * kSubstepsPerPeriod);
}

TEST(ServerBatch, N1BitIdenticalToThermalModelStep) {
  // Saturate the slew so the batch actuator sits exactly on the command
  // from the first substep; the thermal trajectory then compares directly
  // against ServerThermalModel::step at the commanded speed.
  ServerParams params;
  params.fan.slew_rpm_per_s = 1e9;
  Rng rng(3);
  Server server(params, 3000.0, rng);
  ServerThermalModel model = ServerThermalModel::table1_defaults();
  model.settle(server.cpu_power_now(0.0), 3000.0);

  ServerBatch batch;
  batch.add_server(server);

  for (long period = 0; period < 40; ++period) {
    const double rpm = 1500.0 + 500.0 * static_cast<double>(period % 12);
    const double u = 0.1 * static_cast<double>(period % 10);
    const double p_cpu = server.cpu_power_now(u);
    batch.set_inputs(0, p_cpu, rpm, model.params().ambient_celsius);
    for (long s = 0; s < kSubstepsPerPeriod; ++s) {
      model.step(p_cpu, rpm, kDt);
      batch.step_all(kDt);
      ASSERT_EQ(model.junction(), batch.junction_celsius(0))
          << "period " << period << " substep " << s;
      ASSERT_EQ(model.heat_sink_temperature(), batch.heat_sink_celsius(0));
    }
  }
}

TEST(ServerBatch, DtChangeRefreshesTheMemoisedDecays) {
  Rng rng_a(11);
  Rng rng_b(11);
  Server scalar = Server::table1_defaults(rng_a);
  Server batched = Server::table1_defaults(rng_b);
  ServerBatch batch;
  batch.add_server(batched);
  batch.set_inputs(0, batched.cpu_power_now(0.6), 4000.0, batched.inlet_temperature());
  scalar.command_fan(4000.0);
  batched.command_fan(4000.0);

  for (double dt : {0.05, 0.05, 0.1, 0.05, 0.025}) {
    for (int s = 0; s < 10; ++s) {
      scalar.step(0.6, dt);
      if (batch.step_all(dt)) {
        for (unsigned k = batch.samples_due(0); k > 0; --k) {
          batched.sample_sensor(batch.junction_celsius(0));
        }
      }
      ASSERT_EQ(scalar.true_junction(), batch.junction_celsius(0)) << "dt " << dt;
      ASSERT_EQ(scalar.true_heat_sink(), batch.heat_sink_celsius(0));
    }
    batch.write_back(0, batched);
    EXPECT_EQ(scalar.measured_temp(), batched.measured_temp()) << "dt " << dt;
    EXPECT_EQ(scalar.sensor_phase(), batched.sensor_phase()) << "dt " << dt;
    EXPECT_EQ(scalar.energy().cpu_energy(), batched.energy().cpu_energy());
    EXPECT_EQ(scalar.junction_stats().mean(), batched.junction_stats().mean());
  }
}

TEST(ServerBatch, ValidatesInputs) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  ServerBatch batch;
  batch.add_server(server);
  EXPECT_THROW(batch.set_inputs(1, 100.0, 3000.0, 42.0), std::invalid_argument);
  EXPECT_THROW(batch.set_inputs(0, -1.0, 3000.0, 42.0), std::invalid_argument);
  EXPECT_THROW(batch.step_all(-0.01), std::invalid_argument);
}

TEST(ServerBatch, StepRangeRequiresPreparedDt) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  ServerBatch batch;
  batch.add_server(server);  // resets the dt memo
  EXPECT_THROW(batch.step_range(0, 1, kDt), std::logic_error);
  batch.prepare_dt(kDt);
  EXPECT_NO_THROW(batch.step_range(0, 1, kDt));
  EXPECT_THROW(batch.step_range(0, 2, kDt), std::invalid_argument);
}

TEST(ServerBatch, RangedStepsComposeToTheWholeBatchStep) {
  // Stepping [0, 3) and [3, n) separately must equal one step_all: lanes
  // are independent, so the split is exact, not approximate.
  Rng rng_a(5);
  Rng rng_b(5);
  std::vector<std::unique_ptr<Server>> whole_servers;
  std::vector<std::unique_ptr<Server>> split_servers;
  ServerBatch whole;
  ServerBatch split;
  for (std::size_t i = 0; i < 7; ++i) {
    whole_servers.push_back(
        std::make_unique<Server>(Server::table1_defaults(rng_a)));
    split_servers.push_back(
        std::make_unique<Server>(Server::table1_defaults(rng_b)));
    whole.add_server(*whole_servers.back());
    split.add_server(*split_servers.back());
  }
  for (std::size_t i = 0; i < 7; ++i) {
    const double cmd = 2500.0 + 700.0 * static_cast<double>(i);
    whole.set_inputs(i, 80.0, cmd, 40.0);
    split.set_inputs(i, 80.0, cmd, 40.0);
  }
  split.prepare_dt(kDt);
  for (int s = 0; s < 200; ++s) {
    whole.step_all(kDt);
    split.step_range(3, 7, kDt);  // order across disjoint ranges is free
    split.step_range(0, 3, kDt);
    for (std::size_t i = 0; i < 7; ++i) {
      ASSERT_EQ(whole.junction_celsius(i), split.junction_celsius(i)) << i;
      ASSERT_EQ(whole.heat_sink_celsius(i), split.heat_sink_celsius(i)) << i;
      ASSERT_EQ(whole.fan_rpm(i), split.fan_rpm(i)) << i;
      ASSERT_EQ(whole.fan_watts(i), split.fan_watts(i)) << i;
    }
  }
}

TEST(ServerBatch, MemoCountersSeeHitsSharedHitsAndMisses) {
  // Four identical-SKU lanes slewing in lockstep: the first moving lane in
  // a pass pays the pow/exp, the other three share it; once settled, every
  // lane is a plain hit.
  Rng rng(2);
  std::vector<std::unique_ptr<Server>> servers;
  ServerBatch batch;
  for (std::size_t i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<Server>(Server::table1_defaults(rng)));
    batch.add_server(*servers.back());
  }
  for (std::size_t i = 0; i < 4; ++i) batch.set_inputs(i, 80.0, 5000.0, 40.0);
  batch.prepare_dt(kDt);

  // Telemetry is opt-in: the default must leave the counters untouched.
  batch.step_range(0, 4, kDt);
  EXPECT_EQ(batch.memo_hits() + batch.memo_shared_hits() + batch.memo_misses(),
            0u);
  batch.set_memo_telemetry(true);
  batch.reset_memo_counters();

  batch.step_range(0, 4, kDt);  // all four lanes still slewing to 5000 rpm
  EXPECT_EQ(batch.memo_misses(), 1u);
  EXPECT_EQ(batch.memo_shared_hits(), 3u);
  EXPECT_EQ(batch.memo_hits(), 0u);

  for (int s = 0; s < 2000; ++s) batch.step_all(kDt);  // settle on 5000 rpm
  const std::uint64_t misses_settled = batch.memo_misses();
  const std::uint64_t hits_before = batch.memo_hits();
  batch.step_all(kDt);
  EXPECT_EQ(batch.memo_misses(), misses_settled);  // no new transcendentals
  EXPECT_EQ(batch.memo_hits(), hits_before + 4);
}

TEST(ServerBatch, CommandIsClampedIntoTheFanEnvelope) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  ServerBatch batch;
  batch.add_server(server);
  // Commands outside [min, max] behave exactly like FanActuator::command.
  batch.set_inputs(0, 100.0, 20000.0, 42.0);
  for (int s = 0; s < 400; ++s) batch.step_all(kDt);
  EXPECT_EQ(batch.fan_rpm(0), server.params().fan.max_rpm);
  batch.set_inputs(0, 100.0, 0.0, 42.0);
  for (int s = 0; s < 400; ++s) batch.step_all(kDt);
  EXPECT_EQ(batch.fan_rpm(0), server.params().fan.min_rpm);
}

// ------------------------------------ step_period vs step_range vs scalar

void expect_same_server(const Server& a, const Server& b) {
  EXPECT_EQ(a.true_junction(), b.true_junction());
  EXPECT_EQ(a.true_heat_sink(), b.true_heat_sink());
  EXPECT_EQ(a.fan_speed_actual(), b.fan_speed_actual());
  EXPECT_EQ(a.sensor_phase(), b.sensor_phase());
  EXPECT_EQ(a.measured_temp(), b.measured_temp());
  EXPECT_EQ(a.energy().cpu_energy(), b.energy().cpu_energy());
  EXPECT_EQ(a.energy().fan_energy(), b.energy().fan_energy());
  EXPECT_EQ(a.energy().elapsed(), b.energy().elapsed());
  EXPECT_EQ(a.junction_stats().count(), b.junction_stats().count());
  EXPECT_EQ(a.junction_stats().mean(), b.junction_stats().mean());
  EXPECT_EQ(a.junction_stats().m2(), b.junction_stats().m2());
  EXPECT_EQ(a.junction_stats().sum(), b.junction_stats().sum());
  EXPECT_EQ(a.junction_stats().min(), b.junction_stats().min());
  EXPECT_EQ(a.junction_stats().max(), b.junction_stats().max());
  EXPECT_EQ(a.over_limit_seconds(), b.over_limit_seconds());
}

/// Three identical fleets of servers, one per stepping path: a batch
/// driven by step_period plus the sample replay (what RackBatchStepper
/// does), a twin batch driven by step_range once per substep plus its
/// samples_due, and scalar Server::step.  Slot i of every fleet draws from
/// its own Rng, seeded alike, so with a noisy sensor a sample taken out of
/// order, missed or doubled shows in the readings.
class PeriodRig {
 public:
  PeriodRig(std::size_t n, const SensorChainParams& sensor, double dt,
            long substeps)
      : dt_(dt), substeps_(substeps) {
    ServerParams params;
    params.sensor = sensor;
    for (std::size_t i = 0; i < n; ++i) {
      for (Fleet* f : {&period_, &range_, &scalar_}) {
        f->rngs.push_back(std::make_unique<Rng>(100 + i));
        f->servers.push_back(
            std::make_unique<Server>(params, 2000.0, *f->rngs.back()));
        f->servers.back()->reset_accounting(kOracleLimit);
        f->batch.add_server(*f->servers.back());
        f->batch.set_memo_telemetry(true);
      }
      active_.push_back(1);
    }
    period_.batch.prepare_period(dt, substeps);
    range_.batch.prepare_dt(dt);
  }

  std::size_t size() const { return active_.size(); }
  ServerBatch& period_batch() { return period_.batch; }
  const Server& scalar(std::size_t i) const { return *scalar_.servers[i]; }

  /// Lane i has finished: from now on the batches still step it (as the
  /// engines do for a done session inside a chunk) but its Servers are
  /// neither sampled nor written back, and the scalar twin stands still.
  void deactivate(std::size_t i) { active_[i] = 0; }

  /// One control period's inputs for lane i, gathered by every path.
  void set_inputs(std::size_t i, double u, double cmd_rpm) {
    for (Fleet* f : {&period_, &range_}) {
      Server& server = *f->servers[i];
      server.command_fan(cmd_rpm);
      f->batch.set_inputs(i, server.cpu_power_now(u),
                          server.fan_speed_commanded(),
                          server.inlet_temperature());
    }
    scalar_.servers[i]->command_fan(cmd_rpm);
    u_.resize(size());
    u_[i] = u;
  }

  /// Whether every lane of [lo, hi) starts this period on its command
  /// (the batch's settled test, read through the public accessors).
  bool on_command(std::size_t lo, std::size_t hi) const {
    for (std::size_t i = lo; i < hi; ++i) {
      if (period_.batch.fan_rpm(i) != period_.servers[i]->fan_speed_commanded()) {
        return false;
      }
    }
    return true;
  }

  /// Step lanes [lo, hi) through one period on every path, then compare.
  void step(std::size_t lo, std::size_t hi) {
    period_.batch.step_period(lo, hi, dt_, substeps_);
    std::vector<std::vector<double>> range_samples(size());
    for (long s = 0; s < substeps_; ++s) {
      if (!range_.batch.step_range(lo, hi, dt_)) continue;
      for (std::size_t i = lo; i < hi; ++i) {
        for (unsigned k = range_.batch.samples_due(i); k > 0; --k) {
          range_samples[i].push_back(range_.batch.junction_celsius(i));
        }
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      SCOPED_TRACE(testing::Message() << "lane " << i);
      const std::span<const double> samples = period_.batch.period_samples(i);
      EXPECT_EQ(std::vector<double>(samples.begin(), samples.end()),
                range_samples[i]);
      samples_ += static_cast<long>(samples.size());
      EXPECT_EQ(period_.batch.fan_rpm(i), range_.batch.fan_rpm(i));
      EXPECT_EQ(period_.batch.heat_sink_celsius(i), range_.batch.heat_sink_celsius(i));
      EXPECT_EQ(period_.batch.junction_celsius(i), range_.batch.junction_celsius(i));
      EXPECT_EQ(period_.batch.fan_watts(i), range_.batch.fan_watts(i));
      if (active_[i]) {
        for (const double tj : samples) period_.servers[i]->sample_sensor(tj);
        for (const double tj : range_samples[i]) range_.servers[i]->sample_sensor(tj);
        period_.batch.write_back(i, *period_.servers[i]);
        range_.batch.write_back(i, *range_.servers[i]);
        for (long s = 0; s < substeps_; ++s) scalar_.servers[i]->step(u_[i], dt_);
        expect_same_server(*period_.servers[i], *range_.servers[i]);
        expect_same_server(*period_.servers[i], *scalar_.servers[i]);
      } else {
        // Everything write_back would hand over, compared on copies.
        Server from_period = *period_.servers[i];
        Server from_range = *range_.servers[i];
        period_.batch.write_back(i, from_period);
        range_.batch.write_back(i, from_range);
        expect_same_server(from_period, from_range);
      }
    }
    EXPECT_EQ(period_.batch.memo_hits(), range_.batch.memo_hits());
    EXPECT_EQ(period_.batch.memo_shared_hits(), range_.batch.memo_shared_hits());
    EXPECT_EQ(period_.batch.memo_misses(), range_.batch.memo_misses());
  }

  long samples() const { return samples_; }

 private:
  struct Fleet {
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<std::unique_ptr<Server>> servers;
    ServerBatch batch;
  };
  double dt_;
  long substeps_;
  Fleet period_;
  Fleet range_;
  Fleet scalar_;
  std::vector<char> active_;
  std::vector<double> u_;
  long samples_ = 0;
};

/// Drive an 8-lane rig through settled, slewing and mixed periods, with
/// whole, split and partial ranges and two lanes that finish early.
/// Returns how many periods started with the stepped range on command.
long drive_period_rig(PeriodRig& rig, long periods) {
  long settled_periods = 0;
  const std::size_t n = rig.size();
  for (long p = 0; p < periods; ++p) {
    SCOPED_TRACE(testing::Message() << "period " << p);
    // Periods [0, 5): the fans' initial speed, so every lane is on its
    // command from the start but the memo is still cold.  [5, 40):
    // constant commands, so every lane settles and stays settled.
    // [40, 60): every lane's command flips each period — all slewing.
    // From 60: odd lanes flip, even lanes hold — mixed chunks.
    const long block = p < 40 ? 0 : p < 60 ? 1 : 2;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = (p / 7 + static_cast<long>(i)) % 2 == 0 ? 0.25 : 0.85;
      const bool flips = block == 1 || (block == 2 && i % 2 == 1);
      const double base =
          p < 5 ? 2000.0 : 2500.0 + 250.0 * static_cast<double>(i);
      rig.set_inputs(i, u, flips && p % 2 == 1 ? 7000.0 : base);
    }
    if (p == 70) rig.deactivate(2);
    if (p == 80) rig.deactivate(n - 1);
    // Whole range, a split into two chunks, and a partial range that
    // leaves the edge lanes idle for the period.
    switch (p % 3) {
      case 0:
        settled_periods += rig.on_command(0, n) ? 1 : 0;
        rig.step(0, n);
        break;
      case 1:
        settled_periods += rig.on_command(0, 3) ? 1 : 0;
        rig.step(3, n);
        rig.step(0, 3);
        break;
      default:
        settled_periods += rig.on_command(1, n - 1) ? 1 : 0;
        rig.step(1, n - 1);
        break;
    }
    if (testing::Test::HasFailure()) break;
  }
  return settled_periods;
}

TEST(StepPeriod, BitIdenticalToStepRangeAndServerStep) {
  PeriodRig rig(8, SensorChainParams{}, kDt, kSubstepsPerPeriod);
  const long settled = drive_period_rig(rig, 100);
  EXPECT_GT(settled, 20);  // the one-pass path ran ...
  EXPECT_LT(settled, 90);  // ... and so did the per-substep one
  EXPECT_GT(rig.samples(), 500);
  // The load square wave crosses the limit, so over-limit time is live.
  EXPECT_GT(rig.scalar(0).over_limit_seconds(), 0.0);
}

TEST(StepPeriod, NoisySensorsReplayEachSlotsSamplesInOrder) {
  SensorChainParams sensor;
  sensor.noise_stddev = 0.6;
  sensor.quantize = false;  // every noise draw reaches the reading
  PeriodRig rig(8, sensor, kDt, kSubstepsPerPeriod);
  EXPECT_GT(drive_period_rig(rig, 100), 20);
}

TEST(StepPeriod, DtThatDoesNotDivideTheSamplePeriod) {
  // 0.03 s substeps, 1 s sampling: the wrap falls at a different substep
  // each period, sometimes not at all.
  PeriodRig rig(8, SensorChainParams{}, 0.03, kSubstepsPerPeriod);
  EXPECT_GT(drive_period_rig(rig, 100), 20);
  EXPECT_GT(rig.samples(), 300);
}

TEST(StepPeriod, SeveralSamplesPerSettledPeriod) {
  // 0.3 s sampling under 0.05 s substeps: still one pass per settled
  // period, with three or four instants in it, each replayed in order.
  SensorChainParams sensor;
  sensor.sample_period_s = 0.3;
  sensor.noise_stddev = 0.4;
  PeriodRig rig(8, sensor, kDt, kSubstepsPerPeriod);
  EXPECT_GT(drive_period_rig(rig, 100), 20);
  EXPECT_GT(rig.samples(), 2000);
}

TEST(StepPeriod, DtAtOrAboveTheSamplePeriodTakesSeveralSamplesPerSubstep) {
  // 0.02 s and 0.05 s sampling under 0.05 s substeps: one to three
  // instants per substep, so the settled one-pass path never applies and
  // the buffered per-substep path carries every sample, in order.
  for (const double period : {0.02, 0.05}) {
    SCOPED_TRACE(testing::Message() << "sample period " << period);
    SensorChainParams sensor;
    sensor.sample_period_s = period;
    sensor.noise_stddev = 0.4;
    PeriodRig rig(8, sensor, kDt, kSubstepsPerPeriod);
    drive_period_rig(rig, 60);
    // Every substep of every stepped lane sampled at least once.
    EXPECT_GE(rig.samples(), 60 * kSubstepsPerPeriod * 6);
  }
}

TEST(StepPeriod, MemoCountsAreExact) {
  // Four identical lanes.  Slewing in lockstep for a whole period: one
  // transcendental per substep, shared by the other three lanes.  Settled:
  // every lane-substep a plain hit.
  Rng rng(2);
  std::vector<std::unique_ptr<Server>> servers;
  ServerBatch batch;
  for (std::size_t i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<Server>(Server::table1_defaults(rng)));
    batch.add_server(*servers.back());
  }
  batch.prepare_period(kDt, kSubstepsPerPeriod);
  batch.set_memo_telemetry(true);

  // On the initial 2000 rpm command but with a cold memo: the first
  // substep computes once and shares, the rest hit.
  for (std::size_t i = 0; i < 4; ++i) batch.set_inputs(i, 80.0, 2000.0, 40.0);
  batch.step_period(0, 4, kDt, kSubstepsPerPeriod);
  EXPECT_EQ(batch.memo_misses(), 1u);
  EXPECT_EQ(batch.memo_shared_hits(), 3u);
  EXPECT_EQ(batch.memo_hits(), 76u);
  batch.reset_memo_counters();

  for (std::size_t i = 0; i < 4; ++i) batch.set_inputs(i, 80.0, 6000.0, 40.0);
  batch.step_period(0, 4, kDt, kSubstepsPerPeriod);  // 2000 -> 3000 rpm
  EXPECT_EQ(batch.memo_misses(), 20u);
  EXPECT_EQ(batch.memo_shared_hits(), 60u);
  EXPECT_EQ(batch.memo_hits(), 0u);

  for (int p = 0; p < 3; ++p) batch.step_period(0, 4, kDt, kSubstepsPerPeriod);
  ASSERT_EQ(batch.fan_rpm(0), 6000.0);  // settled on the command
  batch.reset_memo_counters();
  batch.step_period(0, 4, kDt, kSubstepsPerPeriod);
  EXPECT_EQ(batch.memo_misses(), 0u);
  EXPECT_EQ(batch.memo_shared_hits(), 0u);
  EXPECT_EQ(batch.memo_hits(), 80u);
  batch.step_period(1, 3, kDt, kSubstepsPerPeriod);  // a partial range
  EXPECT_EQ(batch.memo_hits(), 120u);
}

TEST(StepPeriod, RequiresAPreparedPeriod) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  ServerBatch batch;
  batch.add_server(server);
  EXPECT_THROW(batch.step_period(0, 1, kDt, kSubstepsPerPeriod), std::logic_error);
  batch.prepare_period(kDt, kSubstepsPerPeriod);
  EXPECT_NO_THROW(batch.step_period(0, 1, kDt, kSubstepsPerPeriod));
  EXPECT_NO_THROW(batch.step_period(0, 1, kDt, 5));  // fewer substeps fit
  EXPECT_THROW(batch.step_period(0, 1, kDt, kSubstepsPerPeriod + 1),
               std::logic_error);
  EXPECT_THROW(batch.step_period(0, 1, 0.1, kSubstepsPerPeriod), std::logic_error);
  EXPECT_THROW(batch.step_period(0, 2, kDt, kSubstepsPerPeriod),
               std::invalid_argument);
  EXPECT_THROW(batch.step_period(0, 1, -kDt, kSubstepsPerPeriod),
               std::invalid_argument);
  EXPECT_THROW(batch.prepare_period(kDt, -1), std::invalid_argument);
  // step_all re-prepares another dt: the period buffers no longer match.
  batch.step_all(0.1);
  EXPECT_THROW(batch.step_period(0, 1, kDt, kSubstepsPerPeriod), std::logic_error);
  // A new lane invalidates the buffers too.
  Server other = Server::table1_defaults(rng);
  batch.prepare_period(kDt, kSubstepsPerPeriod);
  batch.add_server(other);
  EXPECT_THROW(batch.step_period(0, 2, kDt, kSubstepsPerPeriod), std::logic_error);
  // A sample period so short that one control period would buffer ~10^7
  // samples per lane is refused up front, not allocated.
  ServerParams params;
  params.sensor.sample_period_s = 1e-7;
  params.sensor.lag_s = 0.0;
  Server fast_sampler(params, 2000.0, rng);
  ServerBatch tiny;
  tiny.add_server(fast_sampler);
  EXPECT_THROW(tiny.prepare_period(kDt, kSubstepsPerPeriod), std::invalid_argument);
  EXPECT_NO_THROW(tiny.prepare_period(kDt, 1));  // 5 * 10^5 instants fit
}

// --------------------------------------- full rack: batched vs scalar path

void expect_identical(const CoupledRackResult& a, const CoupledRackResult& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.thermal_violation_percent, b.thermal_violation_percent);
  EXPECT_EQ(a.max_junction_stats.max(), b.max_junction_stats.max());
  EXPECT_EQ(a.mean_junction_stats.mean(), b.mean_junction_stats.mean());
  EXPECT_EQ(a.coordination_rounds, b.coordination_rounds);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations) << i;
    EXPECT_EQ(a.slots[i].result.fan_energy_joules,
              b.slots[i].result.fan_energy_joules) << i;
    EXPECT_EQ(a.slots[i].result.cpu_energy_joules,
              b.slots[i].result.cpu_energy_joules) << i;
    EXPECT_EQ(a.slots[i].result.max_junction_celsius,
              b.slots[i].result.max_junction_celsius) << i;
    EXPECT_EQ(a.slots[i].result.mean_junction_celsius,
              b.slots[i].result.mean_junction_celsius) << i;
    EXPECT_EQ(a.slots[i].result.thermal_violation_percent,
              b.slots[i].result.thermal_violation_percent) << i;
    EXPECT_EQ(a.slots[i].inlet_stats.mean(), b.slots[i].inlet_stats.mean()) << i;
    EXPECT_EQ(a.slots[i].inlet_stats.max(), b.slots[i].inlet_stats.max()) << i;
    EXPECT_EQ(a.slots[i].mean_cap_limit, b.slots[i].mean_cap_limit) << i;
    EXPECT_EQ(a.slots[i].fan_override_rounds, b.slots[i].fan_override_rounds) << i;
  }
}

CoupledRackParams rack_params(const std::string& coordinator) {
  CoupledRackParams p = default_coupled_scenario(1234, 240.0);
  p.rack.num_servers = 6;
  p.coordinator = coordinator;
  return p;
}

TEST(BatchedRack, BitIdenticalToScalarPathAcross128Threads) {
  for (const char* coordinator : {"independent", "shared-fan-zone", "power-budget"}) {
    CoupledRackParams scalar_params = rack_params(coordinator);
    scalar_params.batched = false;
    const CoupledRackResult scalar =
        CoupledRackEngine(scalar_params, 1).run();
    // Junction time over the limit is live, so its EXPECT_EQ bites.
    ASSERT_GT(scalar.thermal_violation_percent, 0.0);

    for (std::size_t threads : {1u, 2u, 8u}) {
      CoupledRackParams batched_params = rack_params(coordinator);
      batched_params.batched = true;
      const CoupledRackResult batched =
          CoupledRackEngine(batched_params, threads).run();
      SCOPED_TRACE(std::string(coordinator) + " threads=" +
                   std::to_string(threads));
      expect_identical(scalar, batched);
    }
  }
}

TEST(ChunkedRack, BitIdenticalAcrossChunkSizesThreadsAndDrivers) {
  // The chunked path must reproduce BOTH references exactly: the scalar
  // one-shard-per-server path and the whole-rack batched path (chunk >= N,
  // one shard), for every chunk granularity {1, odd, auto, N} x {1, 2, 8}
  // threads.
  CoupledRackParams scalar_params = rack_params("shared-fan-zone");
  scalar_params.batched = false;
  const CoupledRackResult scalar = CoupledRackEngine(scalar_params, 1).run();

  CoupledRackParams whole_params = rack_params("shared-fan-zone");
  whole_params.batched = true;
  whole_params.chunk = whole_params.rack.num_servers;  // one whole-rack chunk
  const CoupledRackResult whole = CoupledRackEngine(whole_params, 2).run();
  expect_identical(scalar, whole);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{0} /* auto */}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      CoupledRackParams p = rack_params("shared-fan-zone");
      p.batched = true;
      p.chunk = chunk;
      const CoupledRackResult chunked = CoupledRackEngine(p, threads).run();
      SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                   " threads=" + std::to_string(threads));
      expect_identical(scalar, chunked);
      expect_identical(whole, chunked);
    }
  }
}

TEST(ChunkedRack, ScalarShardsThroughTheExecutorMatchToo) {
  // batched off: the shard unit is a slot; any thread count is
  // bit-identical to one.
  CoupledRackParams p = rack_params("power-budget");
  p.batched = false;
  const CoupledRackResult scalar = CoupledRackEngine(p, 1).run();
  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(scalar, CoupledRackEngine(p, threads).run());
  }
}

// --------------------------------------- full room: batched vs scalar path

void expect_identical(const RoomResult& a, const RoomResult& b) {
  ASSERT_EQ(a.racks.size(), b.racks.size());
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.thermal_violation_percent, b.thermal_violation_percent);
  EXPECT_EQ(a.migration_events, b.migration_events);
  for (std::size_t i = 0; i < a.racks.size(); ++i) {
    EXPECT_EQ(a.racks[i].final_demand_scale, b.racks[i].final_demand_scale) << i;
    EXPECT_EQ(a.racks[i].demand_scale_stats.mean(),
              b.racks[i].demand_scale_stats.mean()) << i;
    EXPECT_EQ(a.racks[i].ambient_offset_stats.mean(),
              b.racks[i].ambient_offset_stats.mean()) << i;
    expect_identical(a.racks[i].result, b.racks[i].result);
  }
}

TEST(BatchedRoom, BitIdenticalToScalarPathAcross128Threads) {
  RoomParams scalar_params = default_room_scenario(2, 77, 240.0);
  scalar_params.scheduler = "thermal-headroom";
  for (CoupledRackParams& rack : scalar_params.racks) rack.batched = false;
  const RoomResult scalar = RoomEngine(scalar_params, 1).run();
  ASSERT_GT(scalar.thermal_violation_percent, 0.0);

  for (std::size_t threads : {1u, 2u, 8u}) {
    RoomParams batched_params = default_room_scenario(2, 77, 240.0);
    batched_params.scheduler = "thermal-headroom";
    for (CoupledRackParams& rack : batched_params.racks) rack.batched = true;
    const RoomResult batched = RoomEngine(batched_params, threads).run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(scalar, batched);
  }
}

TEST(ChunkedRoom, BitIdenticalAcrossChunkSizesThreadsAndDrivers) {
  // References: the scalar room and the whole-rack-chunk room; the chunked
  // room must match both for chunk sizes {1, odd, auto} x {1, 2, 8}
  // threads.
  RoomParams scalar_params = default_room_scenario(2, 77, 240.0);
  scalar_params.scheduler = "thermal-headroom";
  for (CoupledRackParams& rack : scalar_params.racks) rack.batched = false;
  const RoomResult scalar = RoomEngine(scalar_params, 1).run();

  RoomParams whole_params = default_room_scenario(2, 77, 240.0);
  whole_params.scheduler = "thermal-headroom";
  for (CoupledRackParams& rack : whole_params.racks) {
    rack.batched = true;
    rack.chunk = rack.rack.num_servers;  // one whole-rack chunk per rack
  }
  const RoomResult whole = RoomEngine(whole_params, 2).run();
  expect_identical(scalar, whole);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{0} /* auto */}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      RoomParams p = default_room_scenario(2, 77, 240.0);
      p.scheduler = "thermal-headroom";
      for (CoupledRackParams& rack : p.racks) {
        rack.batched = true;
        rack.chunk = chunk;
      }
      const RoomResult chunked = RoomEngine(p, threads).run();
      SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                   " threads=" + std::to_string(threads));
      expect_identical(scalar, chunked);
      expect_identical(whole, chunked);
    }
  }
}

}  // namespace
}  // namespace fsc

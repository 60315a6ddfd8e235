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
// that divide the sample period, do not, and exceed it.
//
// Every comparison below uses exact double equality (EXPECT_EQ), because
// the design guarantee is "same FP operations in the same per-slot order",
// not "small error".
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

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

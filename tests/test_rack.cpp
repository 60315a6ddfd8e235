// Rack tests: spec stamping is reproducible and slot-local, and jitter
// stays in bounds.  Running a rack is CoupledRackEngine's job (test_coord).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "rack/rack.hpp"

namespace fsc {
namespace {

RackParams small_params(std::size_t n = 4) {
  RackParams p;
  p.num_servers = n;
  p.base_seed = 1234;
  p.sim.duration_s = 120.0;
  p.sim.initial_utilization = 0.1;
  p.workload.base.duration_s = p.sim.duration_s;
  return p;
}

TEST(Rack, RejectsEmptyRackAndNegativeJitter) {
  RackParams p = small_params(0);
  EXPECT_THROW(Rack{p}, std::invalid_argument);
  p = small_params();
  p.jitter.cpu_power_fraction = -0.1;
  EXPECT_THROW(Rack{p}, std::invalid_argument);
}

TEST(Rack, StampsRequestedNumberOfSpecs) {
  const Rack rack(small_params(6));
  EXPECT_EQ(rack.size(), 6u);
  for (std::size_t i = 0; i < rack.size(); ++i) {
    EXPECT_EQ(rack.server(i).index, i);
  }
}

TEST(Rack, SpecsAreReproducible) {
  const Rack a(small_params());
  const Rack b(small_params());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.server(i).seed, b.server(i).seed);
    EXPECT_EQ(a.server(i).server.thermal.params().ambient_celsius,
              b.server(i).server.thermal.params().ambient_celsius);
    EXPECT_EQ(a.server(i).workload.base.phase_s, b.server(i).workload.base.phase_s);
  }
}

TEST(Rack, SlotSpecIndependentOfRackSize) {
  // Server i's spec depends only on (base seed, i), not on how many other
  // servers exist — growing a rack never reshuffles existing machines.
  const Rack small(small_params(2));
  const Rack large(small_params(8));
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small.server(i).seed, large.server(i).seed);
    EXPECT_EQ(small.server(i).server.thermal.params().ambient_celsius,
              large.server(i).server.thermal.params().ambient_celsius);
  }
}

TEST(Rack, ServersAreHeterogeneousWithinBounds) {
  RackParams p = small_params(16);
  const Rack rack(p);
  const double nominal_ambient = p.server.thermal.params().ambient_celsius;
  const double nominal_dyn = p.server.cpu_power.dynamic_power();
  bool any_differs = false;
  for (const RackServerSpec& spec : rack.servers()) {
    const double ambient = spec.server.thermal.params().ambient_celsius;
    EXPECT_LE(std::fabs(ambient - nominal_ambient),
              p.jitter.ambient_delta_celsius + 1e-12);
    const double dyn_ratio = spec.server.cpu_power.dynamic_power() / nominal_dyn;
    EXPECT_LE(std::fabs(dyn_ratio - 1.0), p.jitter.cpu_power_fraction + 1e-12);
    EXPECT_GE(spec.workload.base.phase_s, 0.0);
    EXPECT_LE(spec.workload.base.phase_s,
              p.jitter.workload_phase_fraction * p.workload.base.period_s);
    if (ambient != nominal_ambient) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Rack, ZeroJitterReproducesTheTemplateExactly) {
  RackParams p = small_params();
  p.jitter = RackJitter{0.0, 0.0, 0.0, 0.0, 0.0};
  const Rack rack(p);
  for (const RackServerSpec& spec : rack.servers()) {
    EXPECT_EQ(spec.server.thermal.params().ambient_celsius,
              p.server.thermal.params().ambient_celsius);
    EXPECT_EQ(spec.server.cpu_power.dynamic_power(),
              p.server.cpu_power.dynamic_power());
    EXPECT_EQ(spec.workload.base.phase_s, 0.0);
    EXPECT_EQ(spec.workload.base.high, p.workload.base.high);
  }
}

}  // namespace
}  // namespace fsc

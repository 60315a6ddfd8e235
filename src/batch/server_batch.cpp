#include "batch/server_batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "batch/plant_kernel.hpp"
#include "power/energy_meter.hpp"
#include "sim/server.hpp"
#include "util/statistics.hpp"
#include "util/units.hpp"

namespace fsc {

std::size_t ServerBatch::add_server(const Server& server) {
  const ServerParams& p = server.params();
  const HeatSinkModel& hs = p.thermal.heat_sink();
  const ThermalParams& tp = p.thermal.params();

  heat_sink_.push_back(server.true_heat_sink());
  junction_.push_back(server.true_junction());
  fan_actual_.push_back(server.fan_speed_actual());
  fan_cmd_.push_back(server.fan_speed_commanded());
  cpu_watts_.push_back(p.cpu_power.idle_power());
  fan_watts_.push_back(0.0);
  ambient_.push_back(server.inlet_temperature());

  r_base_.push_back(hs.r_base());
  r_coeff_.push_back(hs.r_coeff());
  r_exp_.push_back(hs.r_exp());
  hs_capacitance_.push_back(hs.capacitance());
  r_die_.push_back(tp.die_resistance_kpw);
  tau_die_.push_back(tp.die_time_constant_s);
  fan_min_.push_back(p.fan.min_rpm);
  fan_max_.push_back(p.fan.max_rpm);
  fan_slew_.push_back(p.fan.slew_rpm_per_s);
  fan_pmax_.push_back(p.fan_power.power_at_max());
  fan_smax_.push_back(p.fan_power.max_speed());
  limit_.push_back(server.thermal_limit_celsius());
  sample_period_.push_back(server.sensor_sample_period());

  const EnergyMeter& energy = server.energy();
  const RunningStats& tj = server.junction_stats();
  cpu_joules_.push_back(energy.cpu_energy());
  fan_joules_.push_back(energy.fan_energy());
  elapsed_.push_back(energy.elapsed());
  tj_count_.push_back(static_cast<double>(tj.count()));
  tj_mean_.push_back(tj.mean());
  tj_m2_.push_back(tj.m2());
  tj_sum_.push_back(tj.sum());
  tj_min_.push_back(tj.min());
  tj_max_.push_back(tj.max());
  over_limit_s_.push_back(server.over_limit_seconds());
  phase_.push_back(server.sensor_phase());
  samples_due_.push_back(0);
  hs_steady_.push_back(0.0);
  die_rise_.push_back(0.0);
  period_sample_count_.push_back(0);

  memo_rpm_.push_back(std::numeric_limits<double>::quiet_NaN());
  r_hs_.push_back(0.0);
  hs_decay_.push_back(0.0);
  die_decay_.push_back(0.0);
  last_dt_ = -1.0;  // new lane: force a full transcendental refresh
  period_dt_ = -1.0;  // ... and a re-sized sample buffer
  return size() - 1;
}

void ServerBatch::set_inputs(std::size_t i, double cpu_watts,
                             double fan_cmd_rpm, double inlet_celsius) {
  require(i < size(), "ServerBatch::set_inputs: slot index out of range");
  require(cpu_watts >= 0.0, "ServerBatch::set_inputs: power must be >= 0");
  cpu_watts_[i] = cpu_watts;
  fan_cmd_[i] = clamp(fan_cmd_rpm, fan_min_[i], fan_max_[i]);
  ambient_[i] = inlet_celsius;
}

void ServerBatch::refresh_dt(double dt) {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    die_decay_[i] = plant::rc_decay(dt, tau_die_[i]);
    // The heat-sink decay also depends on dt; invalidate the speed memo so
    // pass 2 recomputes it per lane.
    memo_rpm_[i] = std::numeric_limits<double>::quiet_NaN();
  }
  last_dt_ = dt;
}

void ServerBatch::prepare_dt(double dt) {
  require(dt >= 0.0, "ServerBatch::prepare_dt: dt must be >= 0");
  if (dt != last_dt_) refresh_dt(dt);
}

void ServerBatch::write_back(std::size_t i, Server& server) const {
  server.adopt_batch_state(
      fan_actual_[i], heat_sink_[i], junction_[i], phase_[i],
      EnergyMeter(cpu_joules_[i], fan_joules_[i], elapsed_[i]),
      RunningStats::from_state(static_cast<std::size_t>(tj_count_[i]),
                               tj_mean_[i], tj_m2_[i], tj_sum_[i], tj_min_[i],
                               tj_max_[i]),
      over_limit_s_[i]);
}

bool ServerBatch::step_all(double dt) {
  require(dt >= 0.0, "ServerBatch::step_all: dt must be >= 0");
  if (size() == 0) return false;
  prepare_dt(dt);
  return step_range(0, size(), dt);
}

bool ServerBatch::step_range(std::size_t lo, std::size_t hi, double dt) {
  // Validate dt before the sentinel comparison: dt = -1.0 would otherwise
  // collide with the "never prepared" last_dt_ marker and sail past the
  // guard below.
  require(dt >= 0.0, "ServerBatch::step_range: dt must be >= 0");
  require(lo <= hi && hi <= size(),
          "ServerBatch::step_range: lane range out of bounds");
  if (dt != last_dt_) {
    // Refreshing here would race with a concurrently stepping sibling
    // chunk, so a missing prepare_dt is a driver bug, not a recoverable
    // input error.
    throw std::logic_error(
        "ServerBatch::step_range: prepare_dt(dt) must run before ranged "
        "stepping");
  }
  return step_lanes(lo, hi, dt);
}

void ServerBatch::prepare_period(double dt, long substeps) {
  require(dt >= 0.0, "ServerBatch::prepare_period: dt must be >= 0");
  require(substeps >= 0, "ServerBatch::prepare_period: substeps must be >= 0");
  // A period of `substeps` substeps passes at most floor(substeps * dt /
  // period) + 1 sampling instants in exact arithmetic (the phase starts
  // below the period and ends at or above zero); one more covers the
  // rounding of the phase updates, whose accumulated error is far below a
  // period.
  double per_lane = 0.0;
  for (const double period : sample_period_) {
    per_lane = std::max(
        per_lane, std::floor(static_cast<double>(substeps) * dt / period) + 2.0);
  }
  constexpr double kMaxSamplesPerLane = 1 << 20;
  require(per_lane <= kMaxSamplesPerLane,
          "ServerBatch::prepare_period: sample period too short for the "
          "control period (more than 2^20 sampling instants per period)");
  sample_stride_ = static_cast<std::size_t>(per_lane);
  period_samples_.assign(size() * sample_stride_, 0.0);
  junction_history_.assign(
      substeps <= kMaxSettledSubsteps
          ? size() * static_cast<std::size_t>(substeps)
          : 0,
      0.0);
  period_dt_ = dt;
  period_substeps_ = substeps;
  prepare_dt(dt);
}

void ServerBatch::step_period(std::size_t lo, std::size_t hi, double dt,
                              long substeps) {
  require(dt >= 0.0, "ServerBatch::step_period: dt must be >= 0");
  require(substeps >= 0, "ServerBatch::step_period: substeps must be >= 0");
  require(lo <= hi && hi <= size(),
          "ServerBatch::step_period: lane range out of bounds");
  if (dt != last_dt_ || dt != period_dt_ || substeps > period_substeps_) {
    // As in step_range: the memo refresh and the buffer sizing touch every
    // lane, so they belong to the single-threaded set-up, not to a chunk.
    throw std::logic_error(
        "ServerBatch::step_period: prepare_period(dt, substeps) must run "
        "before period stepping");
  }
  unsigned* __restrict count = period_sample_count_.data();
  for (std::size_t i = lo; i < hi; ++i) count[i] = 0;
  if (lo == hi || substeps == 0) return;

  if (substeps <= kMaxSettledSubsteps && settled(lo, hi, dt)) {
    step_settled_period(lo, hi, dt, substeps);
    return;
  }
  // Some lane slews (or may sample more than once per substep): the
  // per-substep body, buffering each instant's junction value.
  double* __restrict out = period_samples_.data();
  const unsigned* __restrict due = samples_due_.data();
  const double* __restrict t_j = junction_.data();
  for (long s = 0; s < substeps; ++s) {
    if (!step_lanes(lo, hi, dt)) continue;
    for (std::size_t i = lo; i < hi; ++i) {
      for (unsigned k = due[i]; k > 0; --k) {
        if (count[i] == sample_stride_) {
          throw std::logic_error(
              "ServerBatch::step_period: sample buffer overflow");
        }
        out[i * sample_stride_ + count[i]++] = t_j[i];
      }
    }
  }
}

bool ServerBatch::settled(std::size_t lo, std::size_t hi, double dt) const {
  // Settled: slewing leaves the fan where it is (so every substep of the
  // period sees the same speed, fan power and memoised Rhs/decay), the memo
  // holds that speed, and the sampling phase wraps at most once per
  // substep (see wrap_schedule).
  bool ok = true;
  for (std::size_t i = lo; i < hi; ++i) {
    const double act = fan_actual_[i];
    const double period = sample_period_[i];
    ok &= (plant::slew_toward(act, fan_cmd_[i], fan_slew_[i] * dt) == act) &
          (memo_rpm_[i] == act) & (dt < period) & (phase_[i] < period);
  }
  return ok;
}

namespace {

/// `x` when `keep`, +0.0 otherwise — a mask, not a branch.  Subtracting it
/// is bit-identical to `keep ? y - x : y` (y - +0.0 == y for every y).
inline double masked(bool keep, double x) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) &
                               (std::uint64_t{0} - std::uint64_t{keep}));
}

/// The sampling instants of one settled period — bit s is set when
/// substep s wrapped the phase — and the phase after its last substep.
struct WrapSchedule {
  std::uint64_t wraps = 0;
  double phase = 0.0;
};

/// SensorChain::observe's phase loop over `substeps` substeps of `dt`,
/// branch-free, for phase < period and dt < period.  Then each sum wraps
/// at most once: both terms are at most pred(period), the largest double
/// below it, so the sum is at most 2 * pred(period) — itself a double,
/// hence never rounded up to 2 * period — and the one subtraction is exact
/// (Sterbenz) and leaves the phase below the period again.
WrapSchedule wrap_schedule(double phase, double period, double dt,
                           long substeps) noexcept {
  WrapSchedule w;
  for (long s = 0; s < substeps; ++s) {
    phase += dt;
    const bool wrap = phase >= period;
    phase -= masked(wrap, period);
    w.wraps |= std::uint64_t{wrap} << s;
  }
  w.phase = phase;
  return w;
}

/// The plant and junction-accounting pass of a settled period over lanes
/// [lo, hi): step_range's pass 3 for `substeps` substeps, term for term,
/// with the period's constant terms precomputed.  Lanes inner, so the
/// lanes' dependency chains overlap, and a free function so every array is
/// a restrict parameter: the lane loop is plain SoA arithmetic the
/// compiler vectorizes.  Lane i's junction value after substep s goes to
/// history[s * stride + i].
///
/// The over-limit time adds `tj > limit ? dt : +0.0` where step_range
/// selects between `over + dt` and `over`: the same value for every
/// `over` but -0.0, which the accumulator never holds (it starts at +0.0
/// and only grows by dt >= 0).  The conditional add is what lets the loop
/// vectorize.
void settled_plant_pass(std::size_t lo, std::size_t hi, long substeps,
                        double dt, double* __restrict t_hs,
                        double* __restrict t_j,
                        const double* __restrict hs_steady,
                        const double* __restrict hs_decay,
                        const double* __restrict die_rise,
                        const double* __restrict die_decay,
                        double* __restrict n, double* __restrict mean,
                        double* __restrict m2, double* __restrict sum,
                        double* __restrict lo_tj, double* __restrict hi_tj,
                        double* __restrict over,
                        const double* __restrict limit,
                        double* __restrict history, std::size_t stride) {
  for (long s = 0; s < substeps; ++s) {
    double* __restrict row = history + static_cast<std::size_t>(s) * stride;
    for (std::size_t i = lo; i < hi; ++i) {
      const double hs = plant::rc_relax(t_hs[i], hs_steady[i], hs_decay[i]);
      t_hs[i] = hs;
      const double tj = plant::rc_relax(t_j[i], hs + die_rise[i], die_decay[i]);
      t_j[i] = tj;

      n[i] += 1.0;
      sum[i] += tj;
      const double delta = tj - mean[i];
      mean[i] += delta / n[i];
      m2[i] += delta * (tj - mean[i]);
      lo_tj[i] = tj < lo_tj[i] ? tj : lo_tj[i];
      hi_tj[i] = hi_tj[i] < tj ? tj : hi_tj[i];

      over[i] += tj > limit[i] ? dt : 0.0;
      row[i] = tj;
    }
  }
}

}  // namespace

void ServerBatch::step_settled_period(std::size_t lo, std::size_t hi,
                                      double dt, long substeps) {
  // The period's constant terms: each is the value step_range's pass 3
  // recomputes at every substep from inputs that do not move while the
  // lane is settled.
  for (std::size_t i = lo; i < hi; ++i) {
    hs_steady_[i] = ambient_[i] + r_hs_[i] * cpu_watts_[i];  // Eqn. 3
    die_rise_[i] = r_die_[i] * cpu_watts_[i];
  }
  const std::size_t stride = size();
  settled_plant_pass(lo, hi, substeps, dt, heat_sink_.data(), junction_.data(),
                     hs_steady_.data(), hs_decay_.data(), die_rise_.data(),
                     die_decay_.data(), tj_count_.data(), tj_mean_.data(),
                     tj_m2_.data(), tj_sum_.data(), tj_min_.data(),
                     tj_max_.data(), over_limit_s_.data(), limit_.data(),
                     junction_history_.data(), stride);

  // The quantities that never feed back into the plant, per lane in
  // registers in the scalar order: the energy integrals and the sampling
  // phase.  Lanes whose phase and sample period match the previous
  // schedule's (a rack sampled in lockstep) reuse it.
  unsigned* __restrict count = period_sample_count_.data();
  double* __restrict out = period_samples_.data();
  const double* __restrict history = junction_history_.data();
  WrapSchedule wraps;
  std::uint64_t wraps_phase = 0;   // bit pattern of the phase it started at
  std::uint64_t wraps_period = 0;  // ... and of its sample period
  bool have_wraps = false;
  for (std::size_t i = lo; i < hi; ++i) {
    const double fan_w = plant::fan_power(fan_pmax_[i], fan_smax_[i],
                                          fan_actual_[i]);
    fan_watts_[i] = fan_w;
    const double cpu_step = cpu_watts_[i] * dt;
    const double fan_step = fan_w * dt;
    double cpu_j = cpu_joules_[i];
    double fan_j = fan_joules_[i];
    double elapsed = elapsed_[i];
    for (long s = 0; s < substeps; ++s) {
      cpu_j += cpu_step;
      fan_j += fan_step;
      elapsed += dt;
    }
    cpu_joules_[i] = cpu_j;
    fan_joules_[i] = fan_j;
    elapsed_[i] = elapsed;

    const std::uint64_t phase_bits = std::bit_cast<std::uint64_t>(phase_[i]);
    const std::uint64_t period_bits =
        std::bit_cast<std::uint64_t>(sample_period_[i]);
    if (!have_wraps || phase_bits != wraps_phase || period_bits != wraps_period) {
      wraps = wrap_schedule(phase_[i], sample_period_[i], dt, substeps);
      wraps_phase = phase_bits;
      wraps_period = period_bits;
      have_wraps = true;
    }
    phase_[i] = wraps.phase;
    double* lane_out = out + i * sample_stride_;
    unsigned n = 0;
    for (std::uint64_t bits = wraps.wraps; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<std::size_t>(std::countr_zero(bits));
      lane_out[n++] = history[s * stride + i];
    }
    count[i] = n;
  }
  if (memo_telemetry_) {
    // Every lane-substep of a settled period is a full memo hit.
    memo_hits_c_->add(static_cast<std::uint64_t>(hi - lo) *
                          static_cast<std::uint64_t>(substeps),
                      memo_slot_salt_ + lo);
  }
}

bool ServerBatch::step_lanes(std::size_t lo, std::size_t hi, double dt) {
  if (lo == hi) return false;

  double* __restrict act = fan_actual_.data();
  const double* __restrict cmd = fan_cmd_.data();
  const double* __restrict slew = fan_slew_.data();

  // Pass 1 — actuator slew: one select per lane, no control flow.
  for (std::size_t i = lo; i < hi; ++i) {
    act[i] = plant::slew_toward(act[i], cmd[i], slew[i] * dt);
  }

  // Pass 2 — refresh memoised transcendentals for lanes whose speed moved
  // (slewing fans); settled lanes — the steady state — skip the pow/exp
  // entirely, which is where the batched speedup comes from.  Lanes that
  // do move often move in lockstep (a rack of identical SKUs slewing to
  // the same zone command): the rolling share below reuses the value just
  // computed for the previous miss whenever this lane's speed *and* every
  // coefficient feeding the pow/exp match it — bit-identical by
  // construction, since equal inputs give equal outputs — so a lockstep
  // slew pays for one transcendental per chunk instead of one per lane.
  {
    double* __restrict memo = memo_rpm_.data();
    double* __restrict r_hs = r_hs_.data();
    double* __restrict hs_decay = hs_decay_.data();
    const double* __restrict r_base = r_base_.data();
    const double* __restrict r_coeff = r_coeff_.data();
    const double* __restrict r_exp = r_exp_.data();
    const double* __restrict cap = hs_capacitance_.data();
    std::uint64_t misses = 0;
    std::uint64_t shared = 0;
    std::size_t src = hi;  // lane of the last real recompute; hi = none yet
    for (std::size_t i = lo; i < hi; ++i) {
      if (act[i] == memo[i]) continue;  // settled lane: full hit
      if (src != hi && act[i] == act[src] && r_base[i] == r_base[src] &&
          r_coeff[i] == r_coeff[src] && r_exp[i] == r_exp[src] &&
          cap[i] == cap[src]) {
        memo[i] = act[i];
        r_hs[i] = r_hs[src];
        hs_decay[i] = hs_decay[src];
        ++shared;
        continue;
      }
      memo[i] = act[i];
      r_hs[i] = plant::heat_sink_resistance(r_base[i], r_coeff[i], r_exp[i],
                                            act[i]);
      hs_decay[i] = plant::rc_decay(dt, r_hs[i] * cap[i]);
      src = i;
      ++misses;
    }
    if (memo_telemetry_) {
      const std::uint64_t lanes = static_cast<std::uint64_t>(hi - lo);
      memo_hits_c_->add(lanes - misses - shared, memo_slot_salt_ + lo);
      memo_shared_hits_c_->add(shared, memo_slot_salt_ + lo);
      memo_misses_c_->add(misses, memo_slot_salt_ + lo);
    }
  }

  // Pass 3 — branch-free SoA plant update, same per-lane operation order
  // as Server::step: fan power at the new speed, then heat-sink node, then
  // die node (paper Eqns. 2-3); then the substep's accounting, each
  // quantity with its scalar class's exact expressions
  // (EnergyMeter::accumulate, RunningStats::add — std::min/std::max
  // spelled as their selects — and the over-limit test).
  {
    double* __restrict t_hs = heat_sink_.data();
    double* __restrict t_j = junction_.data();
    double* __restrict fan_w = fan_watts_.data();
    double* __restrict cpu_j = cpu_joules_.data();
    double* __restrict fan_j = fan_joules_.data();
    double* __restrict elapsed = elapsed_.data();
    double* __restrict n = tj_count_.data();
    double* __restrict mean = tj_mean_.data();
    double* __restrict m2 = tj_m2_.data();
    double* __restrict sum = tj_sum_.data();
    double* __restrict lo_tj = tj_min_.data();
    double* __restrict hi_tj = tj_max_.data();
    double* __restrict over = over_limit_s_.data();
    const double* __restrict p_cpu = cpu_watts_.data();
    const double* __restrict ambient = ambient_.data();
    const double* __restrict r_hs = r_hs_.data();
    const double* __restrict hs_decay = hs_decay_.data();
    const double* __restrict die_decay = die_decay_.data();
    const double* __restrict r_die = r_die_.data();
    const double* __restrict pmax = fan_pmax_.data();
    const double* __restrict smax = fan_smax_.data();
    const double* __restrict limit = limit_.data();
    for (std::size_t i = lo; i < hi; ++i) {
      fan_w[i] = plant::fan_power(pmax[i], smax[i], act[i]);
      const double hs_ss = ambient[i] + r_hs[i] * p_cpu[i];  // Eqn. 3
      t_hs[i] = plant::rc_relax(t_hs[i], hs_ss, hs_decay[i]);
      const double die_ss = t_hs[i] + r_die[i] * p_cpu[i];
      const double tj = plant::rc_relax(t_j[i], die_ss, die_decay[i]);
      t_j[i] = tj;

      cpu_j[i] += p_cpu[i] * dt;
      fan_j[i] += fan_w[i] * dt;
      elapsed[i] += dt;

      n[i] += 1.0;
      sum[i] += tj;
      const double delta = tj - mean[i];
      mean[i] += delta / n[i];
      m2[i] += delta * (tj - mean[i]);
      lo_tj[i] = tj < lo_tj[i] ? tj : lo_tj[i];
      hi_tj[i] = hi_tj[i] < tj ? tj : hi_tj[i];

      over[i] = tj > limit[i] ? over[i] + dt : over[i];
    }
  }

  // Pass 4 — sensor sampling phase (SensorChain::observe's loop).  Apart
  // from the catch-up loop for dt > sample period, this is one add and one
  // compare per lane; the samples themselves are the driver's.
  bool any_due = false;
  {
    double* __restrict phase = phase_.data();
    unsigned* __restrict due = samples_due_.data();
    const double* __restrict period = sample_period_.data();
    for (std::size_t i = lo; i < hi; ++i) {
      double ph = phase[i] + dt;
      unsigned k = 0;
      while (ph >= period[i]) {
        ph -= period[i];
        ++k;
      }
      phase[i] = ph;
      due[i] = k;
      any_due = any_due || k != 0;
    }
  }
  return any_due;
}

}  // namespace fsc

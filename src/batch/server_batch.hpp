// Structure-of-arrays batched server-plant kernel: the hot path of the
// whole simulator (actuator slew + fan power + two-node thermal update for
// every server, every 0.05 s physics substep) stepped for N servers by one
// branch-free loop instead of N virtual-ish per-object calls.
//
// Data layout: one flat double array per quantity (heat-sink temperature,
// junction temperature, actual fan speed, ...) indexed by slot, plus one
// array per closed-form coefficient (Rhs power-law terms, capacitance, die
// resistance/time-constant, fan power-law and slew limits) gathered once
// from each Server at add_server().  Per-control-period inputs (CPU power,
// fan command, inlet temperature) are gathered once per period via
// set_inputs(); step_period() then advances a lane range through the whole
// period (step_all(dt) / step_range() advance one substep).
//
// Bit-identity with the scalar path (Server::step) is by construction, not
// by tolerance:
//
//   * every expression is the same inline function from
//     batch/plant_kernel.hpp that the scalar model classes call;
//   * the per-lane operation ORDER matches Server::step exactly
//     (actuator, then fan power, then heat-sink node, then die node);
//   * the transcendentals (std::pow in Rhs, std::exp in the node decays)
//     are deterministic functions of their inputs, so memoising them
//     across substeps — the key speedup: once a fan settles, its Rhs and
//     decay factor are constant until the next command — reproduces the
//     recomputed values bit for bit.
//
// The kernel also carries each server's per-substep accounting, with
// Server::step's exact operation order per quantity: the energy integrals
// (CPU joules, fan joules, elapsed seconds), the junction-temperature
// Welford state of RunningStats::add, the seconds spent above the thermal
// limit, and the sensor's sampling phase (`phase += dt; while (phase >=
// period) phase -= period`).  So a substep touches no Server at all;
// write_back() hands everything to the Server once per control period.
//
// The four passes of step_range keep the transcendental refresh (branchy,
// usually a no-op) and the sampling-phase loop out of the main update
// loop, so pass 1 (slew select) and pass 3 (multiply-add chains plus the
// accounting) stay straight-line per-lane arithmetic and selects.
//
// step_period is the period-granular entry.  When every lane of its range
// starts the period settled — fan on its command, transcendental memo
// valid, dt below the sample period — nothing that feeds a substep changes
// for the whole period: the fan power, the heat-sink steady state
// `ambient + r_hs * P`, the die rise `r_die * P` and the energy increments
// `P * dt` and `fan_w * dt` are the values step_range would recompute at
// every substep, so they are computed once.  The period then runs as one
// plant pass (substeps outer, lanes inner) that also records each
// substep's junction value; the quantities that feed nothing back — the
// energy integrals and the sampling phase — follow per lane in registers,
// the phase branch-free (at most one wrap per substep when dt < period)
// and shared by lanes that sample in lockstep, and the sampling instants
// pick their junction values from the record.  Any other range runs
// step_range's per-substep body.  Either way each quantity sees the same
// FP operations in the same order, so the results are step_range's, bit
// for bit.
//
// What is NOT here: the sensor's sample itself (noise, delay line, ADC)
// and the per-slot RNG stay in the Server — they are stateful, sometimes
// random, and needed only at the ~1-in-20 substeps where a sampling
// instant falls.  step_range reports those instants (samples_due);
// step_period buffers the junction value at each one (period_samples), and
// the driver (batch/rack_stepper.hpp) replays them, in order, through
// Server::sample_sensor.  Nothing reads the sensor inside a period, and
// nothing else draws from a slot's RNG between its period's substeps, so
// replaying a lane's samples after its substeps is the same call sequence
// as taking them between substeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"

namespace fsc {

class Server;

/// SoA plant state + coefficients for N servers, advanced in lockstep.
class ServerBatch {
 public:
  /// Append `server`'s plant: closed-form coefficients plus the current
  /// actuator/thermal state, sampling phase and accounting (energy,
  /// junction statistics, time over its thermal limit).  Returns the slot
  /// index.  The server should already be settled at its initial operating
  /// point (the engines construct their Sessions first, then gather).
  std::size_t add_server(const Server& server);

  std::size_t size() const noexcept { return junction_.size(); }

  /// Per-control-period input gather for one slot: the (constant within
  /// the period) CPU power, the commanded fan speed, and the inlet air
  /// temperature.  The command is clamped into the slot's fan envelope
  /// exactly like FanActuator::command.  Throws std::invalid_argument on a
  /// bad index or negative power.
  void set_inputs(std::size_t i, double cpu_watts, double fan_cmd_rpm,
                  double inlet_celsius);

  /// Advance every slot by one physics substep of `dt` seconds; returns
  /// step_range()'s sampling-instant flag.  Throws std::invalid_argument
  /// when dt < 0.  Refreshes the dt-dependent decay memos on a dt change,
  /// so it must only be called single-threaded (the whole-batch path);
  /// concurrent chunk stepping goes through prepare_dt() + step_range().
  bool step_all(double dt);

  /// Refresh the dt-dependent decay memos for `dt` (no-op when `dt` is
  /// already prepared).  Must be called — single-threaded — before any
  /// step_range() wave, because the refresh touches every lane.  Throws
  /// std::invalid_argument when dt < 0.
  void prepare_dt(double dt);

  /// Advance only lanes [lo, hi) by one substep of `dt` seconds: plant,
  /// accounting and sampling phase.  Returns true when some lane in the
  /// range passed a sensor sampling instant; samples_due() says which, and
  /// how many.  Lanes are fully independent, so disjoint ranges may step
  /// concurrently — this is the chunk-parallel entry used by
  /// RackBatchStepper.  Requires dt >= 0 and lo <= hi <= size()
  /// (std::invalid_argument) and prepare_dt(dt) to have run (throws
  /// std::logic_error otherwise).
  bool step_range(std::size_t lo, std::size_t hi, double dt);

  /// Size the per-lane sample buffer step_period() fills for periods of up
  /// to `substeps` substeps of `dt` seconds, then prepare_dt(dt).  Must
  /// run — single-threaded — after the last add_server() and before any
  /// step_period() wave.  Throws std::invalid_argument when dt < 0,
  /// substeps < 0, or a lane's sample period is so short that one period
  /// of `substeps` substeps could pass more than 2^20 sampling instants.
  void prepare_period(double dt, long substeps);

  /// Advance lanes [lo, hi) through one control period: `substeps`
  /// substeps of `dt` seconds on the inputs of the last set_inputs().
  /// Plant, accounting and memo tallies end exactly as after `substeps`
  /// calls of step_range(lo, hi, dt); instead of samples_due() (left
  /// unspecified), the junction value at every sampling instant the lanes
  /// passed is buffered for period_samples().  Disjoint ranges may step
  /// concurrently.  Requires lo <= hi <= size(), dt >= 0 and substeps >= 0
  /// (std::invalid_argument), and prepare_period() for this dt and at
  /// least this many substeps (std::logic_error otherwise).
  void step_period(std::size_t lo, std::size_t hi, double dt, long substeps);

  /// The junction temperatures lane `i` had at the sensor sampling
  /// instants of its last step_period(), oldest first: the driver owes one
  /// Server::sample_sensor per value, in this order.
  std::span<const double> period_samples(std::size_t i) const noexcept {
    return {period_samples_.data() + i * sample_stride_,
            period_sample_count_[i]};
  }

  /// Sensor sampling instants lane `i` passed in its last step: the
  /// driver owes that many Server::sample_sensor(junction_celsius(i))
  /// calls (more than one only when dt exceeds the sample period).
  unsigned samples_due(std::size_t i) const noexcept { return samples_due_[i]; }

  /// Hand lane `i`'s plant state, sampling phase and accounting to
  /// `server` (Server::adopt_batch_state) — the once-per-period write-back
  /// that leaves the Server as if Server::step had advanced it.  `server`
  /// must be the one lane `i` was gathered from; a lane must not be
  /// written back once its server has stepped on its own.
  void write_back(std::size_t i, Server& server) const;

  /// Memoisation telemetry over all step_all/step_range lanes processed
  /// since the last reset: a *hit* skipped the pow/exp entirely (fan speed
  /// unchanged), a *shared hit* reused the value just computed for an
  /// identical-coefficient lane at the same speed (lockstep slews), a
  /// *miss* paid for the transcendentals.  OFF by default — the engines'
  /// hot chunk loop must not bounce a shared counter cache line between
  /// threads — and exact when enabled (relaxed atomics, every lane counted
  /// once); enable before stepping via set_memo_telemetry(true).
  void set_memo_telemetry(bool on) noexcept { memo_telemetry_ = on; }
  bool memo_telemetry() const noexcept { return memo_telemetry_; }
  /// Route the memo tallies into `registry`'s shared "batch.memo_hit" /
  /// "batch.memo_shared_hit" / "batch.memo_miss" counters — one source of
  /// truth across every batch attached to the same registry — and enable
  /// counting.  Attribution is by LANE RANGE (slot = slot_salt + lo), never
  /// by thread, so the per-slot breakdown is schedule-independent;
  /// `slot_salt` offsets this batch so different racks land on different
  /// counter slots.  Call before stepping (single-threaded).
  void attach_memo_counters(obs::MetricsRegistry& registry,
                            std::size_t slot_salt = 0) {
    memo_hits_c_ = &registry.counter("batch.memo_hit");
    memo_shared_hits_c_ = &registry.counter("batch.memo_shared_hit");
    memo_misses_c_ = &registry.counter("batch.memo_miss");
    memo_slot_salt_ = slot_salt;
    memo_telemetry_ = true;
  }
  std::uint64_t memo_hits() const noexcept { return memo_hits_c_->value(); }
  std::uint64_t memo_shared_hits() const noexcept {
    return memo_shared_hits_c_->value();
  }
  std::uint64_t memo_misses() const noexcept { return memo_misses_c_->value(); }
  void reset_memo_counters() noexcept {
    memo_hits_c_->reset();
    memo_shared_hits_c_->reset();
    memo_misses_c_->reset();
  }

  /// Per-slot outputs after the last step (or the gathered initial state
  /// before the first).
  double fan_rpm(std::size_t i) const noexcept { return fan_actual_[i]; }
  double heat_sink_celsius(std::size_t i) const noexcept { return heat_sink_[i]; }
  double junction_celsius(std::size_t i) const noexcept { return junction_[i]; }
  double cpu_watts(std::size_t i) const noexcept { return cpu_watts_[i]; }
  double fan_watts(std::size_t i) const noexcept { return fan_watts_[i]; }

 private:
  void refresh_dt(double dt);
  /// step_range's body over [lo, hi), inputs already validated.
  bool step_lanes(std::size_t lo, std::size_t hi, double dt);
  /// True when every lane in [lo, hi) is settled for a whole period of dt
  /// substeps (see step_period).
  bool settled(std::size_t lo, std::size_t hi, double dt) const;
  /// step_period's one-pass body for a settled range.
  void step_settled_period(std::size_t lo, std::size_t hi, double dt,
                           long substeps);

  // State (SoA, one lane per slot).
  std::vector<double> heat_sink_;
  std::vector<double> junction_;
  std::vector<double> fan_actual_;
  std::vector<double> fan_cmd_;
  std::vector<double> cpu_watts_;   ///< per-period input
  std::vector<double> fan_watts_;   ///< per-substep output
  std::vector<double> ambient_;     ///< per-period input

  // Closed-form coefficients (constant after add_server).
  std::vector<double> r_base_;
  std::vector<double> r_coeff_;
  std::vector<double> r_exp_;
  std::vector<double> hs_capacitance_;
  std::vector<double> r_die_;
  std::vector<double> tau_die_;
  std::vector<double> fan_min_;
  std::vector<double> fan_max_;
  std::vector<double> fan_slew_;
  std::vector<double> fan_pmax_;
  std::vector<double> fan_smax_;
  std::vector<double> limit_;          ///< thermal limit, degC
  std::vector<double> sample_period_;  ///< sensor sampling period, s

  // Accounting (SoA mirror of EnergyMeter, RunningStats and the Server's
  // over-limit seconds; the count is kept as a double, exact below 2^53).
  std::vector<double> cpu_joules_;
  std::vector<double> fan_joules_;
  std::vector<double> elapsed_;
  std::vector<double> tj_count_;
  std::vector<double> tj_mean_;
  std::vector<double> tj_m2_;
  std::vector<double> tj_sum_;
  std::vector<double> tj_min_;
  std::vector<double> tj_max_;
  std::vector<double> over_limit_s_;
  std::vector<double> phase_;           ///< seconds since the last sample
  std::vector<unsigned> samples_due_;   ///< instants passed in the last step

  // step_period's per-period terms of a settled lane (scratch, per lane).
  std::vector<double> hs_steady_;  ///< ambient + r_hs * P
  std::vector<double> die_rise_;   ///< r_die * P
  /// Longest period the settled pass takes: its sampling schedule is one
  /// bit per substep.
  static constexpr long kMaxSettledSubsteps = 64;
  /// Lane i's junction value after substep s of the settled pass, at
  /// [s * size() + i] — where the sampling instants read from.
  std::vector<double> junction_history_;

  // step_period's sample buffer: lane i's junction values at its sampling
  // instants live at [i * sample_stride_, + period_sample_count_[i]).
  std::vector<double> period_samples_;
  std::vector<unsigned> period_sample_count_;
  std::size_t sample_stride_ = 0;
  double period_dt_ = -1.0;      ///< dt prepare_period() sized for
  long period_substeps_ = -1;    ///< substeps prepare_period() sized for

  // Memoised transcendentals: valid while the lane's fan speed (and dt)
  // stay put.  memo_rpm_ = NaN marks "recompute".
  std::vector<double> memo_rpm_;
  std::vector<double> r_hs_;
  std::vector<double> hs_decay_;
  std::vector<double> die_decay_;
  double last_dt_ = -1.0;  ///< sentinel: never matches a (>= 0) step dt

  // Memo telemetry (see memo_hits()): obs::Counter cells so concurrent
  // chunk ranges account without a lock, gated off by default to keep the
  // hot loop free of shared-line RMWs.  The tallies land either in the
  // batch's own single-slot counters (the default; exact, private) or in a
  // registry's shared per-shard-slot counters (attach_memo_counters).
  bool memo_telemetry_ = false;
  std::size_t memo_slot_salt_ = 0;
  obs::Counter own_memo_hits_;
  obs::Counter own_memo_shared_hits_;
  obs::Counter own_memo_misses_;
  obs::Counter* memo_hits_c_ = &own_memo_hits_;
  obs::Counter* memo_shared_hits_c_ = &own_memo_shared_hits_;
  obs::Counter* memo_misses_c_ = &own_memo_misses_;
};

}  // namespace fsc

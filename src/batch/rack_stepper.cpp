#include "batch/rack_stepper.hpp"

#include <algorithm>
#include <utility>

#include "sim/server.hpp"
#include "util/units.hpp"
#include "workload/workload_table.hpp"

namespace fsc {

void RackBatchStepper::add_slot(SimulationEngine::Session& session,
                                Server& server) {
  if (!slots_.empty()) {
    const SimulationParams& first = slots_.front().session->params();
    require(session.params().physics_dt_s == first.physics_dt_s &&
                session.physics_per_period() ==
                    slots_.front().session->physics_per_period(),
            "RackBatchStepper: all slots must share the physics timing");
  }
  slots_.push_back(Slot{&session, &server});
  active_.push_back(0);
  scalar_.push_back(0);
  batch_.add_server(server);
}

void RackBatchStepper::force_scalar(std::size_t slot) {
  require(slot < slots_.size(),
          "RackBatchStepper::force_scalar: slot index out of range");
  scalar_[slot] = 1;
  any_scalar_ = true;
}

void RackBatchStepper::set_workload_table(const WorkloadTable* table) {
  require(table == nullptr || table->lanes() == slots_.size(),
          "RackBatchStepper::set_workload_table: table must hold one lane "
          "per registered slot");
  table_ = table;
}

void RackBatchStepper::prepare() {
  if (slots_.empty()) return;
  const SimulationEngine::Session& first = *slots_.front().session;
  batch_.prepare_period(first.params().physics_dt_s, first.physics_per_period());
  if (table_ != nullptr) demand_buf_.resize(slots_.size());
}

void RackBatchStepper::advance_chunk_periods(std::size_t chunk, long periods) {
  require(chunk < num_chunks(),
          "RackBatchStepper::advance_chunk_periods: chunk index out of range");
  const std::size_t lanes = chunk_lanes();
  const std::size_t lo = chunk * lanes;
  const std::size_t hi = std::min(slots_.size(), lo + lanes);
  advance_range_periods(lo, hi, periods);
}

void RackBatchStepper::advance_range_periods(std::size_t lo, std::size_t hi,
                                             long periods) {
  if (any_scalar_) {
    // Some lane somewhere is fault-forced onto the scalar path; take the
    // masked variant.  Until the first force_scalar() call this branch is
    // never reached and the body below is exactly the pre-fault stepping
    // code (the empty-FaultPlan bit-identity contract, test_fault).
    advance_range_periods_masked(lo, hi, periods);
    return;
  }
  const double dt = slots_.front().session->params().physics_dt_s;
  const long substeps = slots_.front().session->physics_per_period();

  for (long p = 0; p < periods; ++p) {
    // Phase 1 — per-slot control decisions, then the once-per-period input
    // gather into the SoA kernel.  With a workload table attached, the
    // range's demand is resolved FIRST in one branch-light gather loop
    // (lane clocks agree — all sessions share the timing and advance
    // together) and injected into begin_period, replacing one virtual
    // demand call per slot per period.
    const bool gather = table_ != nullptr;
    if (gather) {
      table_->fill_demand(slots_[lo].session->time_s(), lo, hi,
                          demand_buf_.data());
    }
    bool any_active = false;
    for (std::size_t i = lo; i < hi; ++i) {
      Slot& slot = slots_[i];
      active_[i] = (gather ? slot.session->begin_period(demand_buf_[i])
                           : slot.session->begin_period())
                       ? 1
                       : 0;
      if (!active_[i]) continue;
      any_active = true;
      batch_.set_inputs(i,
                        slot.server->cpu_power_now(slot.session->period_executed()),
                        slot.server->fan_speed_commanded(),
                        slot.server->inlet_temperature());
    }
    if (!any_active) return;  // all sessions in this range are done

    // Phase 2 — batched physics: the whole period over the range in one
    // kernel call (plant + accounting), then the sensor samples of the
    // sampling instants it passed, replayed in order.
    batch_.step_period(lo, hi, dt, substeps);
    replay_samples(lo, hi);

    // Phase 3 — write each slot's state back once, then close its period.
    finish_range_period(lo, hi, substeps);
  }
}

void RackBatchStepper::replay_samples(std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    if (!active_[i]) continue;
    for (const double tj : batch_.period_samples(i)) {
      slots_[i].server->sample_sensor(tj);
    }
  }
}

void RackBatchStepper::finish_range_period(std::size_t lo, std::size_t hi,
                                           long substeps) {
  for (std::size_t i = lo; i < hi; ++i) {
    if (!active_[i]) continue;
    Slot& slot = slots_[i];
    batch_.write_back(i, *slot.server);
    slot.session->note_substeps(substeps);
    slot.session->finish_period();
  }
}

void RackBatchStepper::advance_range_periods_masked(std::size_t lo,
                                                    std::size_t hi,
                                                    long periods) {
  const double dt = slots_.front().session->params().physics_dt_s;
  const long substeps = slots_.front().session->physics_per_period();

  // Maximal runs of non-forced lanes inside [lo, hi): the SoA kernel steps
  // each run contiguously, never touching a forced lane's (stale) batch
  // state.  The mask only changes at coordination barriers, so one
  // segmentation serves every period of this call.
  std::vector<std::pair<std::size_t, std::size_t>> segments;
  for (std::size_t i = lo; i < hi;) {
    if (scalar_[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < hi && !scalar_[j]) ++j;
    segments.emplace_back(i, j);
    i = j;
  }

  for (long p = 0; p < periods; ++p) {
    // Forced lanes first: one whole period through the scalar reference
    // path (slots never interact inside a period, so relative order
    // against the batched lanes is free).
    bool any_forced_active = false;
    for (std::size_t i = lo; i < hi; ++i) {
      if (!scalar_[i]) continue;
      active_[i] = 0;
      if (slots_[i].session->done()) continue;
      slots_[i].session->step_period();
      any_forced_active = true;
    }

    // Batched lanes: the same three phases as the unmasked path, over the
    // non-forced sub-ranges.
    bool any_batched_active = false;
    for (std::size_t i = lo; i < hi; ++i) {
      if (scalar_[i]) continue;
      Slot& slot = slots_[i];
      active_[i] = slot.session->begin_period() ? 1 : 0;
      if (!active_[i]) continue;
      any_batched_active = true;
      batch_.set_inputs(i,
                        slot.server->cpu_power_now(slot.session->period_executed()),
                        slot.server->fan_speed_commanded(),
                        slot.server->inlet_temperature());
    }
    if (!any_batched_active && !any_forced_active) return;  // range is done

    if (any_batched_active) {
      // Forced lanes have active_ = 0, so neither the samples nor the
      // write-back ever touch them from their stale batch state.
      for (const auto& [a, b] : segments) {
        batch_.step_period(a, b, dt, substeps);
        replay_samples(a, b);
      }
      finish_range_period(lo, hi, substeps);
    }
  }
}

}  // namespace fsc

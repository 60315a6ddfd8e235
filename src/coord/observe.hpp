// Shared barrier-time observation gathering.  The per-slot gather lives
// here (and the per-rack aggregation in room/scheduler.hpp's
// aggregate_rack_observation) so both lockstep engines and the tests read
// the plant through one code path.
#pragma once

#include <cstddef>

#include "coord/coordinator.hpp"
#include "sim/engine.hpp"

namespace fsc {

class Server;

/// Build slot `index`'s SlotObservation at barrier time `time_s` from its
/// Server + Session, then reset the session's observation window (the
/// snapshot consumes the windowed demand/executed means).
SlotObservation collect_slot_observation(std::size_t index, double time_s,
                                         const Server& server,
                                         SimulationEngine::Session& session);

}  // namespace fsc

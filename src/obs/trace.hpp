// Span tracing to Chrome/Perfetto trace-event JSON.
//
// Recording model: each recording thread owns a private ring of
// fixed-size TraceEvents, registered with the recorder on that thread's
// first event.  Recording is therefore lock-free after first contact — no
// shared ring, no cross-thread write contention, and a full ring evicts
// that thread's OLDEST events (the tail of a long run wins, and
// dropped_events() reports the loss).  The engines only record from
// stable worker threads and the barrier thread, so the per-thread rings
// double as Perfetto "tracks".
//
// A ring's storage grows on demand, one fixed block of events at a time,
// up to its capacity; blocks never move, so growth copies nothing.  A
// large capacity therefore costs only the events actually recorded, and
// a thread's first event pays for one small block — not for zeroing the
// whole ring in the middle of the work it is timing.
//
// Timestamps are absolute steady-clock nanoseconds (monotonic_ns());
// write_json() rebases them onto the recorder's construction instant so
// the trace starts near t=0 and emits the standard
// {"traceEvents": [...]} envelope — load the file directly in
// https://ui.perfetto.dev or chrome://tracing.
//
// Event names/categories are `const char*` by design (no per-event string
// traffic); dynamic names (coordinator/scheduler registry keys) go through
// intern(), which stores one stable copy per distinct string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fsc::obs {

/// Absolute steady-clock nanoseconds (the one clock every obs timestamp
/// uses; defined in trace.cpp to keep <chrono> out of hot headers).
std::int64_t monotonic_ns() noexcept;

/// One fixed-size recorded event.  `dur_ns` < 0 marks an instant ("i")
/// event, >= 0 a complete span ("X").  `round` < 0 omits the arg.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t ts_ns = 0;   ///< absolute monotonic_ns() at span begin
  std::int64_t dur_ns = 0;  ///< span length, or < 0 for an instant
  std::int64_t round = -1;
  std::uint32_t rack = 0;
  std::uint32_t shard = 0;
};

/// Collects TraceEvents from any number of threads and serializes them as
/// Chrome trace-event JSON.  complete()/instant() are safe to call
/// concurrently; write_json() must run after the recorded work has
/// quiesced (the engines' run() has returned).
class TraceRecorder {
 public:
  /// `per_thread_capacity` events (0 means 1) are retained per recording
  /// thread; when a thread overflows, its oldest events are evicted and
  /// counted in dropped_events().  The default holds a multi-hour room day
  /// run with room to spare (4 events/round x ~2880 rounds/day << 64 Ki).
  /// Storage is allocated in blocks as events arrive (see above), so the
  /// capacity is a bound, not an up-front cost.
  explicit TraceRecorder(std::size_t per_thread_capacity = std::size_t{1}
                                                           << 16);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Record a complete span [begin_ns, end_ns] (absolute monotonic_ns()
  /// values) on the calling thread's track.
  void complete(const char* name, const char* cat, std::int64_t begin_ns,
                std::int64_t end_ns, std::uint32_t rack = 0,
                std::uint32_t shard = 0, std::int64_t round = -1);
  /// Record an instant event (now) on the calling thread's track.
  void instant(const char* name, const char* cat, std::uint32_t rack = 0,
               std::uint32_t shard = 0, std::int64_t round = -1);

  /// Store one stable copy of `s` and return it — for event names that are
  /// only known at runtime (policy registry keys).  Takes the registry
  /// mutex; intern once at session setup, not per event.
  const char* intern(std::string_view s);

  /// Events currently retained / evicted-by-overflow, across all threads.
  std::size_t recorded_events() const;
  std::uint64_t dropped_events() const;

  /// Serialize as {"traceEvents": [...]} (plus "otherData": manifest when
  /// `manifest_json` is a non-empty JSON object).  Timestamps are rebased
  /// to the recorder's construction instant and emitted in Chrome's
  /// microsecond unit.  Threads appear as tids in registration order.
  void write_json(std::ostream& os, const std::string& manifest_json = "") const;
  /// write_json to `path`; false (with a note on stderr) when unwritable.
  bool write_json_file(const std::string& path,
                       const std::string& manifest_json = "") const;

 private:
  /// One thread's ring: `capacity` slots in blocks of kBlockEvents,
  /// allocated as the first lap reaches them.
  struct ThreadLog {
    static constexpr std::size_t kBlockEvents = 1024;

    explicit ThreadLog(std::size_t capacity) : capacity(capacity) {}
    /// Append `ev`; when full, the oldest event is evicted and counted.
    void push(const TraceEvent& ev);
    /// Event `i` counted from the oldest retained one.
    const TraceEvent& at(std::size_t i) const;

    std::size_t capacity;
    std::size_t head = 0;  ///< slot of the oldest retained event
    std::size_t size = 0;  ///< events retained
    std::vector<std::unique_ptr<TraceEvent[]>> blocks;
    std::uint64_t dropped = 0;
  };

  ThreadLog& local_log();

  const std::uint64_t id_;        ///< process-unique, keys the TLS cache
  const std::size_t capacity_;
  const std::int64_t epoch_ns_;   ///< construction instant (rebase origin)
  mutable std::mutex mu_;         ///< guards logs_ registration + interned_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<std::unique_ptr<std::string>> interned_;
};

}  // namespace fsc::obs

// In-memory span log for traced benchmark runs.
//
// Every span is kept twice: in a per-track vector the analysis reads back
// (obs::TraceRecorder has no read-back surface), and in an
// obs::TraceRecorder so the run can be written as one Perfetto JSON.  A
// track is one executor participant; each track is appended to by exactly
// one thread, and the driving thread only reads the log after the
// executor's barrier, so the log needs no lock.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis.hpp"
#include "obs/obs.hpp"

namespace perfbench {

class SpanLog {
 public:
  SpanLog(fsc::obs::TraceRecorder& recorder, std::size_t tracks)
      : recorder_(recorder), tracks_(tracks) {}

  /// Record [begin, end] on `track` (must be the calling thread's track).
  void add(const char* name, const char* cat, std::int64_t begin_ns,
           std::int64_t end_ns, std::uint32_t track, std::int64_t round = -1) {
    tracks_[track].push_back(Span{name, begin_ns, end_ns, track});
    recorder_.complete(name, cat, begin_ns, end_ns, 0, track, round);
  }

  std::vector<Span> all() const {
    std::vector<Span> out;
    for (const auto& t : tracks_) out.insert(out.end(), t.begin(), t.end());
    return out;
  }

 private:
  fsc::obs::TraceRecorder& recorder_;
  std::vector<std::vector<Span>> tracks_;
};

}  // namespace perfbench

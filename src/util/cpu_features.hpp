// Runtime CPU vector-ISA detection, recorded as host provenance: the run
// manifest (obs/manifest.hpp) and the bench trajectory headers print the
// probe line, so every committed BENCH_*.json and CLI report says which
// vector unit produced its numbers.  Nothing in the simulator dispatches
// on it; the plant kernel is plain C++ the compiler vectorizes for the
// build's baseline ISA.
//
// Detection is cpuid-based on x86 (leaf 1 for SSE2/FMA/OSXSAVE, leaf 7 for
// AVX2, plus the XGETBV check that the OS actually saves the YMM state —
// without it an AVX2 cpuid bit is a lie on pre-AVX kernels).  On AArch64
// NEON is architecturally mandatory, so no auxv probe is needed; every
// other platform reports scalar-only.  The probe runs once
// and is cached (it is a handful of serializing instructions, not free).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fsc {

/// What the *host* can execute, independent of what this binary compiled.
struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
  bool fma = false;     ///< FMA3 (x86) / fused multiply-add (NEON baseline)
  bool avx512f = false; ///< reported for the provenance line only
  bool neon = false;
};

/// The cached host probe (thread-safe: C++ static init).
const CpuFeatures& cpu_features() noexcept;

/// One-line human-readable summary, e.g. "x86-64: sse2 avx2 fma avx512f" or
/// "aarch64: neon" or "scalar-only" — printed by every bench and stamped into
/// every run manifest, so results record the host's vector ISA.
std::string cpu_features_line();

/// NUMA topology of the host, for topology-aware worker-group placement
/// (util/hierarchical_executor.hpp): a room's worker group wants a
/// contiguous core range on one node so its SoA state stays in-socket.
struct CpuTopology {
  /// Logical CPU ids grouped by NUMA node, in node order.  Never empty:
  /// when the platform exposes no node information (non-Linux, or /sys
  /// unavailable) there is exactly one node listing every logical CPU,
  /// and `numa_detected` is false.
  std::vector<std::vector<int>> nodes;
  std::size_t logical_cpus = 1;  ///< total across nodes (>= 1)
  bool numa_detected = false;    ///< true when real node boundaries were read
};

/// The cached topology probe (thread-safe: C++ static init).  Linux reads
/// /sys/devices/system/node/node*/cpulist; everywhere else (and on any
/// parse failure) it degrades to one node covering hardware_concurrency().
const CpuTopology& cpu_topology() noexcept;

/// One-line summary, e.g. "2 NUMA nodes: 0-15, 16-31" or
/// "1 node (no NUMA info): 4 cpus" — printed by the facility bench header.
std::string cpu_topology_line();

}  // namespace fsc

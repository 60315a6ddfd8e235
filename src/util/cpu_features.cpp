#include "util/cpu_features.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define FSC_CPU_X86 1
#endif

namespace fsc {

namespace {

#if defined(FSC_CPU_X86)

/// XGETBV(0): which register states the OS restores on context switch.
/// Bits 1 (XMM) and 2 (YMM) must both be set before AVX2 results are
/// trustworthy; bits 5-7 (opmask/ZMM) gate AVX-512 the same way.
unsigned long long xcr0() {
  unsigned int eax = 0;
  unsigned int edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<unsigned long long>(edx) << 32) | eax;
}

CpuFeatures probe() {
  CpuFeatures f;
  unsigned int eax = 0;
  unsigned int ebx = 0;
  unsigned int ecx = 0;
  unsigned int edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.sse2 = (edx & (1u << 26)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool cpu_fma = (ecx & (1u << 12)) != 0;
  const bool cpu_avx = (ecx & (1u << 28)) != 0;

  const unsigned long long x = osxsave ? xcr0() : 0;
  const bool ymm_ok = (x & 0x6) == 0x6;         // XMM + YMM saved
  const bool zmm_ok = ymm_ok && (x & 0xe0) == 0xe0;  // + opmask/ZMM

  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = cpu_avx && ymm_ok && (ebx & (1u << 5)) != 0;
    f.avx512f = zmm_ok && (ebx & (1u << 16)) != 0;
  }
  f.fma = cpu_fma && f.avx2;  // reported only alongside usable AVX2
  return f;
}

#elif defined(__aarch64__)

CpuFeatures probe() {
  // NEON (incl. fused multiply-add) is mandatory in AArch64; an
  // auxv AT_HWCAP probe would only re-confirm it.
  CpuFeatures f;
  f.neon = true;
  f.fma = true;
  return f;
}

#else

CpuFeatures probe() { return CpuFeatures{}; }

#endif

/// Parses the kernel's cpulist format ("0-3,8-11,15") into cpu ids.
/// Returns an empty vector on any malformed input.
std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream in(text);
  std::string range;
  while (std::getline(in, range, ',')) {
    // Trim trailing whitespace/newline from the last token.
    while (!range.empty() &&
           (range.back() == '\n' || range.back() == ' ' || range.back() == '\r'))
      range.pop_back();
    if (range.empty()) continue;
    int lo = -1;
    int hi = -1;
    if (std::sscanf(range.c_str(), "%d-%d", &lo, &hi) == 2) {
      if (lo < 0 || hi < lo) return {};
      for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    } else if (std::sscanf(range.c_str(), "%d", &lo) == 1) {
      if (lo < 0) return {};
      cpus.push_back(lo);
    } else {
      return {};
    }
  }
  return cpus;
}

/// One node covering hardware_concurrency() — the portable fallback.
CpuTopology flat_topology() {
  CpuTopology t;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  t.nodes.emplace_back();
  for (unsigned c = 0; c < hw; ++c) t.nodes.front().push_back(static_cast<int>(c));
  t.logical_cpus = hw;
  t.numa_detected = false;
  return t;
}

CpuTopology probe_topology() {
#if defined(__linux__)
  CpuTopology t;
  for (int node = 0; node < 1024; ++node) {
    const std::string path = "/sys/devices/system/node/node" +
                             std::to_string(node) + "/cpulist";
    std::ifstream in(path);
    if (!in.is_open()) break;  // nodes are numbered densely from 0
    std::string text;
    std::getline(in, text);
    std::vector<int> cpus = parse_cpulist(text);
    if (cpus.empty()) continue;  // memory-only node: no CPUs to place on
    t.nodes.push_back(std::move(cpus));
  }
  if (t.nodes.empty()) return flat_topology();
  t.logical_cpus = 0;
  for (const auto& n : t.nodes) t.logical_cpus += n.size();
  t.numa_detected = t.nodes.size() > 1;
  return t;
#else
  return flat_topology();
#endif
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = probe();
  return features;
}

std::string cpu_features_line() {
  const CpuFeatures& f = cpu_features();
  std::string line;
#if defined(FSC_CPU_X86)
  line = "x86-64:";
#elif defined(__aarch64__)
  line = "aarch64:";
#else
  line = "unknown-arch:";
#endif
  if (f.sse2) line += " sse2";
  if (f.avx2) line += " avx2";
  if (f.fma) line += " fma";
  if (f.avx512f) line += " avx512f";
  if (f.neon) line += " neon";
  if (!f.sse2 && !f.avx2 && !f.neon) line += " scalar-only";
  return line;
}

const CpuTopology& cpu_topology() noexcept {
  static const CpuTopology topology = probe_topology();
  return topology;
}

std::string cpu_topology_line() {
  const CpuTopology& t = cpu_topology();
  std::string line;
  if (!t.numa_detected) {
    line = "1 node (no NUMA info): ";
    line += std::to_string(t.logical_cpus);
    line += " cpus";
    return line;
  }
  line = std::to_string(t.nodes.size());
  line += " NUMA nodes:";
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    const auto& n = t.nodes[i];
    line += (i == 0 ? " " : ", ");
    line += std::to_string(n.front());
    if (n.size() > 1) {
      line += "-";
      line += std::to_string(n.back());
    }
  }
  return line;
}

}  // namespace fsc

// Persistent-worker lockstep executor: the one round driver of the
// rack/room lockstep loops.
//
// The lockstep engines run a fresh wave of shards every coordination
// round — thousands of rounds per run.  A general task queue would pay a
// heap-allocated task, a queue mutex and a future per shard per round, and
// that submit storm plus futex traffic swamps the actual physics once the
// work is chunked finely enough to scale.
//
// The LockstepExecutor instead uses the classic DAQ-style persistent-worker
// design: workers are spawned once and park on an atomic *epoch* counter;
// each run(count, fn) pre-assigns every participant a contiguous shard of
// [0, count), bumps the epoch to release the workers, processes the
// caller's own shard on the calling thread, and spins/waits on an atomic
// arrival counter until the wave is done.  In steady state a round is:
// one epoch increment, N shard loops, N arrival decrements — zero
// allocations, zero futures, zero mutexes, and no system call.
//
// Waiting is spin-then-park on both sides.  A worker that finished its
// shard spins on the epoch for kSpinBudgetNs of wall time before it parks
// on the futex, so back-to-back rounds (the barrier's serial work is
// usually shorter than that) neither pay the wake-up latency nor a wake
// system call: the caller notifies only when some worker actually parked,
// and a worker notifies the caller only when the caller parked.  The
// budget is wall time, not an iteration count, because a `pause` costs
// anywhere from ~10 to ~140 cycles depending on the CPU.  One millisecond
// covers the serial barrier work of the engines' rounds (a few hundred
// microseconds for a 256-server room) while bounding what an idle team
// burns; OpenMP runtimes spin far longer by default.
//
// Determinism: shard assignment is a pure function of (count, size()), so
// which participant executes which index never depends on scheduling.  The
// engines only hand the executor index-disjoint work (batch chunks, slot
// sessions), so results are bit-identical for any thread count.
//
// Exceptions: a shard that throws aborts the remainder of that
// participant's shard span (other participants run to completion); run()
// rethrows the first captured exception in participant order.  The
// executor stays usable afterwards.
//
// Not supported: nested run() calls from inside a shard, and concurrent
// run() calls from different threads (one lockstep driver owns the
// executor).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace fsc {

/// Fixed team of `threads` participants (the calling thread plus
/// `threads - 1` persistent workers) executing pre-assigned shards of an
/// index space per epoch.
class LockstepExecutor {
 public:
  /// Wall time a waiting participant spins before it parks on the futex.
  static constexpr std::int64_t kSpinBudgetNs = 1'000'000;

  /// Spawn `threads - 1` persistent workers (the caller is participant 0).
  /// Throws std::invalid_argument when `threads` is 0.
  explicit LockstepExecutor(std::size_t threads)
      : threads_(threads), errors_(threads) {
    if (threads_ == 0) {
      throw std::invalid_argument("LockstepExecutor: thread count must be > 0");
    }
    workers_.reserve(threads_ - 1);
    for (std::size_t p = 1; p < threads_; ++p) {
      workers_.emplace_back([this, p] { worker_loop(p); });
    }
  }

  /// Releases the workers with a final epoch bump and joins them.
  ~LockstepExecutor() {
    stopping_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  LockstepExecutor(const LockstepExecutor&) = delete;
  LockstepExecutor& operator=(const LockstepExecutor&) = delete;

  /// Total participants (calling thread included).
  std::size_t size() const noexcept { return threads_; }

  /// Workers currently parked on the futex (spin budget exhausted) — for
  /// tests and diagnostics; racy by nature.
  std::size_t parked_workers() const noexcept {
    return parked_.load(std::memory_order_relaxed);
  }

  /// Execute fn(i) for every i in [0, count), partitioned into contiguous
  /// per-participant shards, and block until the whole wave is done.  `fn`
  /// must be safe to invoke concurrently for distinct indices.  Rethrows
  /// the first shard exception (participant order) after the barrier.
  template <typename F>
  void run(std::size_t count, F&& fn) {
    static_assert(std::is_invocable_v<F&, std::size_t>,
                  "LockstepExecutor::run: fn must accept a shard index");
    if (count == 0) return;
    if (threads_ == 1 || count == 1) {
      // Inline fast path: nothing to fan out (also keeps a 1-thread
      // executor free of any cross-thread machinery).
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    invoke_ = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
    ctx_ = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
    count_ = count;
    pending_.store(threads_ - 1, std::memory_order_relaxed);
    // The epoch bump publishes invoke_/ctx_/count_; the workers' acquire
    // loads of the epoch pick them up.  It is seq_cst, like a parking
    // worker's parked_ increment and epoch re-check, so either that worker
    // sees the new epoch or this load sees it parked (no lost wake-up).
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) epoch_.notify_all();

    run_shard(0);  // the caller is participant 0

    // Arrival barrier: spin, then park.  The workers' decrements make all
    // shard writes visible here.
    if (!spin_until([this] {
          return pending_.load(std::memory_order_acquire) == 0;
        })) {
      caller_parked_.store(true, std::memory_order_seq_cst);
      for (;;) {
        const std::size_t left = pending_.load(std::memory_order_seq_cst);
        if (left == 0) break;
        pending_.wait(left, std::memory_order_acquire);
      }
      caller_parked_.store(false, std::memory_order_relaxed);
    }
    rethrow_first_error();
  }

 private:
  /// Spin until `done()` holds or kSpinBudgetNs of wall time pass; returns
  /// the last `done()`.  Every 16th pause also reads the clock and yields,
  /// so an oversubscribed host (more participants than cores) hands the
  /// core to a thread that still has work instead of burning it.
  template <typename Done>
  static bool spin_until(Done done) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(kSpinBudgetNs);
    for (unsigned spin = 1;; ++spin) {
      if (done()) return true;
      cpu_relax();
      if (spin % 16 == 0) {
        if (std::chrono::steady_clock::now() >= deadline) return done();
        std::this_thread::yield();
      }
    }
  }

  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Contiguous shard of participant p over `count_` indices:
  /// [count*p/P, count*(p+1)/P) — balanced to within one index.
  void run_shard(std::size_t p) noexcept {
    const std::size_t lo = count_ * p / threads_;
    const std::size_t hi = count_ * (p + 1) / threads_;
    try {
      for (std::size_t i = lo; i < hi; ++i) invoke_(ctx_, i);
    } catch (...) {
      errors_[p] = std::current_exception();
    }
  }

  void rethrow_first_error() {
    for (std::size_t p = 0; p < threads_; ++p) {
      if (errors_[p]) {
        const std::exception_ptr first = errors_[p];
        for (std::size_t q = 0; q < threads_; ++q) errors_[q] = nullptr;
        std::rethrow_exception(first);
      }
    }
  }

  void worker_loop(std::size_t p) {
    std::uint64_t seen = 0;
    for (;;) {
      if (!spin_until([this, seen] {
            return epoch_.load(std::memory_order_acquire) != seen;
          })) {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        // wait() may return spuriously; re-check the epoch each time.
        while (epoch_.load(std::memory_order_seq_cst) == seen) {
          epoch_.wait(seen, std::memory_order_acquire);
        }
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
      seen = epoch_.load(std::memory_order_acquire);
      if (stopping_.load(std::memory_order_acquire)) return;
      run_shard(p);
      // seq_cst against the caller's caller_parked_ store and pending_
      // re-check, as for the epoch above.
      if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
          caller_parked_.load(std::memory_order_seq_cst)) {
        pending_.notify_one();
      }
    }
  }

  std::size_t threads_;
  std::vector<std::thread> workers_;

  // Per-epoch job (published by the epoch bump's release ordering).
  void (*invoke_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::size_t count_ = 0;
  std::vector<std::exception_ptr> errors_;  ///< one slot per participant

  // The two hot atomics live on their own cache lines so the workers'
  // arrival decrements never bounce the epoch line mid-round.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::size_t> pending_{0};
  std::atomic<bool> caller_parked_{false};  ///< caller waits on pending_
  alignas(64) std::atomic<std::size_t> parked_{0};  ///< workers on epoch_
  std::atomic<bool> stopping_{false};
};

}  // namespace fsc

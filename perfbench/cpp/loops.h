// Load generators: a closed loop (each client sends its next operation only
// after the previous one completed) and a paced open loop (operations are
// due on a fixed schedule whether or not earlier ones finished).
#ifndef PERFBENCH_LOOPS_H_
#define PERFBENCH_LOOPS_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The phase's measuring window and the operations done inside it, failed
  /// or not (failures are reported through `failed`, so a fix that turns a
  /// failure into a success does not move the rate). An operation running
  /// across the window's end counts by the share of its time inside it, so
  /// the rate does not jump by whole operations with where the end fell; a
  /// closed loop's last round may run past the window and is attempted but
  /// counts only that share.
  double seconds = 0.0;
  double done_in_window = 0.0;
  /// Per-operation latency; open loops time it from the due time.
  std::vector<double> latencies_ms;
  /// Open loops: how late each operation was sent relative to its due time.
  std::vector<double> late_ms;

  double OpsPerSecond() const {
    return seconds > 0.0 ? done_in_window / seconds : 0.0;
  }
};

/// One operation: (client thread, round, index within the round) -> success.
using ClosedOp = std::function<bool(size_t thread, uint64_t round, size_t index)>;

/// Runs whole rounds of `round_size` operations from `threads` client
/// threads. A new round starts only while fewer than `seconds` have passed,
/// so every run attempts whole rounds.
PhaseResult RunClosedLoop(size_t threads, double seconds, size_t round_size,
                          const ClosedOp& op);

/// One paced operation: (sender thread, operation index) -> success.
using OpenOp = std::function<bool(size_t sender, size_t index)>;

/// Sends operation i at due_s[i] seconds after the phase starts, from
/// `senders` independent client threads (each sends the next due operation
/// as soon as it is free). Latency counts from the due time, so a stall
/// shows in every operation queued behind it.
PhaseResult RunOpenLoop(size_t senders, const std::vector<double>& due_s,
                        const OpenOp& op);

/// Poisson arrival times at `rate` per second for `count` operations.
std::vector<double> PoissonSchedule(double rate, size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LOOPS_H_

// The benchmark's workloads. Each one builds its inputs from the seed, makes
// the program ready to answer (Setup), drives it (ClosedLoop / OpenLoop),
// checks every answer it recorded (Check), and in the traced run measures
// its layers from outside (Layers).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "common.h"
#include "loops.h"
#include "trace.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and makes the program ready to answer. False (with
  /// the reason in `report`) aborts the run without a result.
  virtual bool Setup(const RunOptions& options, RunReport* report) = 0;

  /// The closed-loop phase; spans go to `tracer` (may be disabled).
  virtual PhaseResult ClosedLoop(double seconds, Tracer* tracer) = 0;

  /// Length in seconds of the paced open-loop phase (0 = none). It sends a
  /// fixed number of requests, so the tail percentile it supports does not
  /// depend on the run length; the closed loop gets the rest of the run.
  virtual double OpenLoopSeconds() const { return 0.0; }
  virtual PhaseResult OpenLoop(Tracer* /*tracer*/) { return {}; }

  /// Percentile op_tail_ms reports; the run checks that at least ten
  /// samples lie beyond it.
  virtual double TailPercentile() const = 0;

  /// Peak resident memory in MB of everything the workload runs.
  virtual double PeakMemoryMb() { return PeakRssMb(); }

  /// Checks every answer recorded so far.
  virtual void Check(RunReport* report) = 0;

  /// Per-layer metrics, timed around calls into the library's public
  /// functions.
  virtual void Layers(Tracer* tracer, RunReport* report) = 0;

  /// Stops every server and process and removes temporary files.
  virtual void Teardown(RunReport* report) = 0;
};

std::unique_ptr<Workload> MakeAlignPaper();
std::unique_ptr<Workload> MakeServeMixed();
std::unique_ptr<Workload> MakeFleetRouted();
std::unique_ptr<Workload> MakeSparseIndex();

/// Kills every registered child process that is still alive and reaps it
/// (async-signal-safe; used by the signal handler). Clears the registry.
void KillRegisteredChildren();
/// Registers a child the signal handler must not leave behind (held as a
/// pidfd, so it is never confused with a later process of the same pid);
/// pid 0 clears the slot.
void RegisterChild(int slot, int pid);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Benchmark program: runs one workload from a seed and prints every metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
// the workload's closed loop untraced and then traced (the difference is the
// tracing overhead), then measures every layer's metrics from the
// benchmark's own spans around calls into the library. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "la/kernels/dispatch.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"align-paper", "serve-mixed", "fleet-routed",
                                  "sparse-index"};

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "align-paper") return MakeAlignPaper();
  if (name == "serve-mixed") return MakeServeMixed();
  if (name == "fleet-routed") return MakeFleetRouted();
  if (name == "sparse-index") return MakeSparseIndex();
  return nullptr;
}

void OnSignal(int sig) {
  KillRegisteredChildren();
  _exit(128 + sig);
}

std::string HostJson() {
  std::ostringstream out;
  out << "{\"cores\": " << std::thread::hardware_concurrency()
      << ", \"kernel_tier\": \""
      << entmatcher::KernelTierName(entmatcher::ActiveKernelTier())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}";
  return out.str();
}

std::string ResultJson(const RunReport& report) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << metric.value << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int Usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR\nworkloads:";
  for (const char* w : kWorkloads) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// `wanted` when at least ten of `n` samples lie beyond it, else the highest
/// percentile of the usual ladder that has ten beyond it.
double TailPercentileWithTenBeyond(size_t n, double wanted) {
  auto ten_beyond = [n](double pct) { return static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0; };
  if (ten_beyond(wanted)) return wanted;
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    if (pct < wanted && ten_beyond(pct)) return pct;
  }
  return 50.0;
}

/// Untraced run: the end-to-end metrics.
bool RunEndToEnd(Workload* w, const RunOptions& options, RunReport* report) {
  if (!w->Setup(options, report)) return false;
  report->Set("setup_s", SecondsSince(ProcessStart()), "s");
  Tracer off(false);
  const double open_s = w->OpenLoopSeconds();
  const PhaseResult closed = w->ClosedLoop(std::max(1.0, options.seconds - open_s), &off);
  PhaseResult open;
  if (open_s > 0.0) open = w->OpenLoop(&off);
  report->Set("peak_rss_mb", w->PeakMemoryMb(), "MB");
  report->attempted = closed.attempted + open.attempted;
  report->failed = closed.failed + open.failed;
  report->Set("ops_per_s", closed.OpsPerSecond(), "1/s");
  const std::vector<double>& latencies =
      open_s > 0.0 ? open.latencies_ms : closed.latencies_ms;
  const double tail_pct = TailPercentileWithTenBeyond(latencies.size(), w->TailPercentile());
  report->Set("op_p50_ms", Median(latencies), "ms");
  report->Set("op_tail_ms", Quantile(latencies, tail_pct / 100.0), "ms");
  std::cout << "latency samples " << latencies.size() << ", tail is p" << tail_pct << "\n";
  w->Check(report);
  w->Teardown(report);
  return true;
}

/// Traced run: tracing overhead on the workload, then every layer's metrics.
bool RunTraced(Workload* w, const RunOptions& options, RunReport* report) {
  Tracer tracer(true);
  if (!w->Setup(options, report)) return false;
  Tracer off(false);
  const PhaseResult untraced = w->ClosedLoop(options.seconds / 2.0, &off);
  const PhaseResult traced = w->ClosedLoop(options.seconds / 2.0, &tracer);
  report->attempted += untraced.attempted + traced.attempted;
  report->failed += untraced.failed + traced.failed;
  report->Set("trace.ops_per_s_untraced", untraced.OpsPerSecond(), "1/s");
  report->Set("trace.ops_per_s_traced", traced.OpsPerSecond(), "1/s");
  report->Set("trace.ops_per_s_delta", traced.OpsPerSecond() - untraced.OpsPerSecond(), "1/s");
  w->Layers(&tracer, report);
  w->Check(report);
  w->Teardown(report);
  // Layers the workload does not exercise are measured on the inputs of the
  // workload that does, so every traced run reports every layer metric; the
  // answers those measurements produce are checked like the workload's own.
  for (const char* other : kWorkloads) {
    if (options.workload == other) continue;
    std::unique_ptr<Workload> layer = Make(other);
    RunOptions sub = options;
    sub.workdir = options.workdir + "/" + other;
    std::filesystem::create_directories(sub.workdir);
    if (!layer->Setup(sub, report)) return false;
    layer->Layers(&tracer, report);
    layer->Check(report);
    layer->Teardown(report);
  }
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count");
  std::filesystem::create_directories("perfbench-out");
  const std::string path = "perfbench-out/trace-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  if (!tracer.WriteJson(path)) std::cerr << "cannot write " << path << "\n";
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ProcessStart();
  RunOptions options;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
      have_workdir = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_workdir || options.seconds <= 0.0) return Usage();
  std::unique_ptr<Workload> workload = Make(options.workload);
  if (workload == nullptr) return Usage();

  signal(SIGPIPE, SIG_IGN);
  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);
  signal(SIGHUP, OnSignal);
  std::filesystem::create_directories(options.workdir);
  // Client threads supply the parallelism; every kernel runs on one thread.
  entmatcher::SetNumThreads(1);

  std::cout << "host " << HostJson() << "\n";
  RunReport report;
  const bool ran = options.trace ? RunTraced(workload.get(), options, &report)
                                 : RunEndToEnd(workload.get(), options, &report);
  RemoveTree(options.workdir);
  for (const std::string& failure : report.check_failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  if (!ran) {
    std::cerr << "run aborted\n";
    return 1;
  }
  std::cout << ResultJson(report) << std::endl;
  return 0;
}

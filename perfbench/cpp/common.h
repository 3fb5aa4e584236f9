// Shared plumbing of the benchmark program: run options, the result record
// every workload fills, and small helpers (clocks, memory, seeded inputs).
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "la/matrix.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // required: --seconds
  bool trace = false;
  /// Scratch directory for sockets and on-disk stores; relative to the
  /// working directory so unix socket paths stay short.
  std::string workdir;
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the operation ledger, the output checks, and the
/// metrics by name.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check (the run reports correct=false).
  void Fail(const std::string& what) {
    correct = false;
    check_failures.push_back(what);
  }
  /// Folds a checker's verdict in: empty = passed.
  void Check(const std::string& what, const std::string& verdict) {
    if (!verdict.empty()) Fail(what + ": " + verdict);
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Start of the process (set first thing in main); setup_s counts from here.
Clock::time_point ProcessStart();

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

/// Peak resident set of a live child process in MB (0 when unreadable).
double ChildPeakRssMb(int pid);

/// A rows x dim matrix of seeded Gaussian values, L2-normalised rows.
entmatcher::Matrix GaussianRows(size_t rows, size_t dim, uint64_t seed);

/// `base` plus `scale` * seeded Gaussian noise, rows re-normalised.
entmatcher::Matrix Perturb(const entmatcher::Matrix& base, double scale,
                           uint64_t seed);

/// Removes `path` recursively (best effort; used on every exit path).
void RemoveTree(const std::string& path);

/// FNV-1a over the bytes of a vector of 32-bit values.
uint64_t HashValues(const std::vector<int32_t>& values);

/// The first answer per key, and how many later answers differed from it
/// (a deterministic pipeline gives the same answer every time).
template <typename Key>
class FirstAnswers {
 public:
  struct Entry {
    std::vector<int32_t> first;
    uint64_t hash = 0;
    uint64_t mismatches = 0;
  };

  void Record(const Key& key, const std::vector<int32_t>& answer) {
    const uint64_t h = HashValues(answer);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      it->second.first = answer;
      it->second.hash = h;
    } else if (it->second.hash != h) {
      ++it->second.mismatches;
    }
  }

  std::map<Key, Entry> Entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

#include "loops.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "common.h"
#include "common/rng.h"

namespace perfbench {

PhaseResult RunClosedLoop(size_t threads, double seconds, size_t round_size,
                          const ClosedOp& op) {
  std::mutex mu;
  uint64_t next = 0;       // global index of the next operation to hand out
  uint64_t completed = 0;  // operations finished
  uint64_t failed = 0;
  double done_in_window = 0.0;
  bool stopping = false;
  std::vector<double> latencies;

  const Clock::time_point start = Clock::now();
  auto client = [&](size_t thread) {
    std::vector<double> mine;
    uint64_t my_failed = 0;
    for (;;) {
      uint64_t g;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (stopping) break;
        if (next % round_size == 0) {
          if (SecondsSince(start) >= seconds) {
            stopping = true;
            break;
          }
        }
        g = next++;
      }
      const Clock::time_point t0 = Clock::now();
      const bool ok = op(thread, g / round_size, static_cast<size_t>(g % round_size));
      const Clock::time_point t1 = Clock::now();
      mine.push_back(MillisBetween(t0, t1));
      if (!ok) ++my_failed;
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
      const double begin_ms = MillisBetween(start, t0);
      const double end_ms = MillisBetween(start, t1);
      const double window_ms = seconds * 1e3;
      if (end_ms <= window_ms) {
        done_in_window += 1.0;
      } else if (begin_ms < window_ms) {
        done_in_window += (window_ms - begin_ms) / (end_ms - begin_ms);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    latencies.insert(latencies.end(), mine.begin(), mine.end());
    failed += my_failed;
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(client, t);
  for (std::thread& th : pool) th.join();

  PhaseResult result;
  result.seconds = seconds;
  result.attempted = completed;
  result.failed = failed;
  result.done_in_window = done_in_window;
  result.latencies_ms = std::move(latencies);
  return result;
}

PhaseResult RunOpenLoop(size_t senders, const std::vector<double>& due_s,
                        const OpenOp& op) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  PhaseResult result;
  const Clock::time_point start = Clock::now();
  auto sender = [&](size_t id) {
    std::vector<double> latencies, late;
    uint64_t failed = 0;
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= due_s.size()) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s[i]));
      std::this_thread::sleep_until(due);
      late.push_back(MillisBetween(due, Clock::now()));
      const bool ok = op(id, i);
      latencies.push_back(MillisBetween(due, Clock::now()));
      if (!ok) ++failed;
    }
    std::lock_guard<std::mutex> lock(mu);
    result.latencies_ms.insert(result.latencies_ms.end(), latencies.begin(), latencies.end());
    result.late_ms.insert(result.late_ms.end(), late.begin(), late.end());
    result.failed += failed;
  };
  std::vector<std::thread> pool;
  for (size_t s = 0; s < senders; ++s) pool.emplace_back(sender, s);
  for (std::thread& th : pool) th.join();
  result.seconds = SecondsSince(start);
  result.attempted = due_s.size();
  result.done_in_window = static_cast<double>(result.attempted);
  return result;
}

std::vector<double> PoissonSchedule(double rate, size_t count, uint64_t seed) {
  entmatcher::Rng rng(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    due[i] = t;
    t += -std::log(1.0 - rng.NextDouble()) / rate;
  }
  return due;
}

}  // namespace perfbench

// What the socket workloads (serve-mixed, fleet-routed) share: the wire
// operations they send and a ledger of every answer. Afterwards every
// distinct answer must equal a solo MatchEngine run made in this process for
// the snapshot version the answer names; DInf and DInf top-k solo answers
// are in turn checked against the benchmark's own brute force. The ledger
// keeps a hash per answer, not the answer, so the benchmark's bookkeeping
// stays out of the peak-memory metric.
#ifndef PERFBENCH_WIRE_MIX_H_
#define PERFBENCH_WIRE_MIX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.h"
#include "la/matrix.h"
#include "matching/types.h"
#include "serve/protocol.h"

namespace perfbench {

/// One client request: match or top-k of a preset on a named pair.
struct WireOp {
  std::string pair;
  bool topk = false;
  entmatcher::AlgorithmPreset algorithm = entmatcher::AlgorithmPreset::kDInf;
  size_t k = 0;

  entmatcher::WireRequest ToRequest() const;
};

/// The embeddings of one published snapshot version of a pair.
struct PairVersion {
  entmatcher::Matrix source;
  entmatcher::Matrix target;
};

/// Finds the embeddings of (pair, version); null when never published.
using VersionLookup =
    std::function<const PairVersion*(const std::string& pair, uint64_t version)>;

class AnswerLedger {
 public:
  /// Records one successful answer. Every answer to the same (operation,
  /// version) must be identical (the pipeline is deterministic).
  void Record(const WireOp& op, uint64_t version,
              const std::vector<int32_t>& values);

  /// Checks every distinct answer; failures go to `report`.
  void Check(const VersionLookup& lookup, RunReport* report) const;

  /// The first recorded (request, response) payload pairs, as the wire
  /// carries them (for timing the protocol codec on real messages).
  std::vector<std::pair<std::string, std::string>> SampleMessages() const;

 private:
  // (pair, version, topk, algorithm, k): one version's answers sit together.
  using Key = std::tuple<std::string, uint64_t, bool, int, size_t>;
  struct Entry {
    WireOp op;
    uint64_t hash = 0;
    uint64_t mismatches = 0;
  };
  static constexpr size_t kSampleLimit = 64;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;  // guarded by mu_
  std::vector<std::pair<std::string, std::string>> samples_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_MIX_H_

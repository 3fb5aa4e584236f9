#include "wire_mix.h"

#include <algorithm>
#include <memory>

#include "checks.h"
#include "la/topk.h"
#include "matching/engine.h"

namespace perfbench {

using namespace entmatcher;

namespace {

constexpr double kScoreTol = 1e-5;

/// References for one (pair, version): one solo engine per preset, its
/// answers memoised, and the exact cosine for the brute-force checks, all
/// built on first use.
class VersionReference {
 public:
  explicit VersionReference(const PairVersion& pair) : pair_(pair) {}

  /// The solo answer to `op`; `verdict` receives a failure to compute it or
  /// a brute-force violation.
  std::vector<int32_t> Solo(const WireOp& op, std::string* verdict) {
    const auto key = std::make_tuple(op.topk, static_cast<int>(op.algorithm), op.k);
    auto memo = answers_.find(key);
    if (memo != answers_.end()) {
      *verdict = memo->second.second;
      return memo->second.first;
    }
    std::vector<int32_t> answer = Compute(op, verdict);
    if (verdict->empty() && op.algorithm == AlgorithmPreset::kDInf) {
      if (!exact_) exact_ = std::make_unique<ExactScores>(ExactCosine(pair_.source, pair_.target, 1));
      *verdict = op.topk ? CheckRowTopK(*exact_, answer, std::min(op.k, pair_.target.rows()), kScoreTol)
                         : CheckRowArgmax(*exact_, answer, kScoreTol);
      if (!verdict->empty()) *verdict = "brute force: " + *verdict;
    }
    answers_.emplace(key, std::make_pair(answer, *verdict));
    return answer;
  }

 private:
  std::vector<int32_t> Compute(const WireOp& op, std::string* verdict) {
    const int key = static_cast<int>(op.algorithm);
    auto it = engines_.find(key);
    if (it == engines_.end()) {
      Result<MatchEngine> engine = MatchEngine::Create(
          Matrix(pair_.source), Matrix(pair_.target), MakePreset(op.algorithm));
      if (!engine.ok()) {
        *verdict = "solo engine: " + engine.status().ToString();
        return {};
      }
      it = engines_.emplace(key, std::make_unique<MatchEngine>(std::move(*engine))).first;
    }
    if (!op.topk) {
      Result<Assignment> answer = it->second->Match();
      if (!answer.ok()) {
        *verdict = "solo match: " + answer.status().ToString();
        return {};
      }
      return answer->target_of_source;
    }
    auto scores = scores_.find(key);
    if (scores == scores_.end()) {
      Result<Matrix> made = it->second->TransformedScores(MakePreset(op.algorithm));
      if (!made.ok()) {
        *verdict = "solo scores: " + made.status().ToString();
        return {};
      }
      scores = scores_.emplace(key, std::move(*made)).first;
    }
    const std::vector<uint32_t> top = RowTopKIndices(scores->second, op.k);
    return std::vector<int32_t>(top.begin(), top.end());
  }

  const PairVersion& pair_;
  std::unique_ptr<ExactScores> exact_;
  std::map<int, std::unique_ptr<MatchEngine>> engines_;
  std::map<int, Matrix> scores_;  // transformed scores per preset
  std::map<std::tuple<bool, int, size_t>, std::pair<std::vector<int32_t>, std::string>> answers_;
};

std::string Describe(const WireOp& op, uint64_t version) {
  return std::string(op.topk ? "topk " : "match ") +
         PresetName(op.algorithm) + (op.topk ? " k=" + std::to_string(op.k) : "") +
         " pair=" + op.pair + " v" + std::to_string(version);
}

}  // namespace

WireRequest WireOp::ToRequest() const {
  WireRequest request;
  request.verb = topk ? WireRequest::Verb::kTopK : WireRequest::Verb::kMatch;
  request.algorithm = algorithm;
  request.k = k;
  request.pair = pair;
  return request;
}

void AnswerLedger::Record(const WireOp& op, uint64_t version,
                          const std::vector<int32_t>& values) {
  const uint64_t h = HashValues(values);
  const Key key{op.pair, version, op.topk, static_cast<int>(op.algorithm), op.k};
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) {
    it->second.op = op;
    it->second.hash = h;
    if (samples_.size() < kSampleLimit) {
      samples_.emplace_back(EncodeRequest(op.ToRequest()), EncodeValuesResponse(values, version));
    }
  } else if (it->second.hash != h) {
    ++it->second.mismatches;
  }
}

void AnswerLedger::Check(const VersionLookup& lookup, RunReport* report) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<VersionReference> reference;
  std::string current_pair;
  uint64_t current_version = 0;
  for (const auto& [key, entry] : entries_) {
    const uint64_t version = std::get<1>(key);
    const std::string what = Describe(entry.op, version);
    if (entry.mismatches > 0) {
      report->Fail(what + ": " + std::to_string(entry.mismatches) +
                   " repeated answers differ from the first");
    }
    if (!reference || entry.op.pair != current_pair || version != current_version) {
      const PairVersion* pair = lookup(entry.op.pair, version);
      if (pair == nullptr) {
        reference.reset();
        report->Fail(what + ": answer names an unpublished version");
        continue;
      }
      reference = std::make_unique<VersionReference>(*pair);
      current_pair = entry.op.pair;
      current_version = version;
    }
    std::string verdict;
    const std::vector<int32_t> solo = reference->Solo(entry.op, &verdict);
    if (verdict.empty() && HashValues(solo) != entry.hash) {
      verdict = "differs from the solo engine answer";
    }
    report->Check(what, verdict);
  }
}

std::vector<std::pair<std::string, std::string>> AnswerLedger::SampleMessages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

}  // namespace perfbench

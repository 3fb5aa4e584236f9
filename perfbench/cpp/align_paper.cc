// align-paper: the paper's own task. One DBP15K-shaped pair (D-Z, RREA
// structural embeddings, 2100 x 2100 x 384) is aligned in turn by all nine
// presets, each in its own warm MatchEngine over one shared snapshot (RL runs
// through RunMatching: it needs KG context). Dense kernels, score transforms
// and the decision matchers do the work; serve, fleet and index are idle.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "checks.h"
#include "datagen/benchmarks.h"
#include "embedding/provider.h"
#include "eval/metrics.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "matching/engine.h"
#include "matching/pipeline.h"
#include "matching/rl_matcher.h"
#include "matching/transforms.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace entmatcher;

constexpr size_t kClients = 4;
constexpr size_t kTopK = 10;
// Paper Table 4: no matcher falls below the DInf baseline; allow this much.
constexpr double kF1Margin = 0.05;
constexpr double kScoreTol = 1e-5;

// Longest first, so each round packs well onto the client threads.
const AlgorithmPreset kRound[] = {
    AlgorithmPreset::kRl,       AlgorithmPreset::kStableMatch,
    AlgorithmPreset::kRinf,     AlgorithmPreset::kHungarian,
    AlgorithmPreset::kSinkhorn, AlgorithmPreset::kRinfPb,
    AlgorithmPreset::kRinfWr,   AlgorithmPreset::kCsls,
    AlgorithmPreset::kDInf};
constexpr size_t kRoundSize = sizeof(kRound) / sizeof(kRound[0]);

std::string MetricKey(AlgorithmPreset p) {
  switch (p) {
    case AlgorithmPreset::kDInf: return "dinf";
    case AlgorithmPreset::kCsls: return "csls";
    case AlgorithmPreset::kRinf: return "rinf";
    case AlgorithmPreset::kRinfWr: return "rinf_wr";
    case AlgorithmPreset::kRinfPb: return "rinf_pb";
    case AlgorithmPreset::kSinkhorn: return "sinkhorn";
    case AlgorithmPreset::kHungarian: return "hungarian";
    case AlgorithmPreset::kStableMatch: return "smat";
    case AlgorithmPreset::kRl: return "rl";
  }
  return "unknown";
}

class AlignPaper : public Workload {
 public:
  bool Setup(const RunOptions& options, RunReport* report) override {
    // The pair is the repository's D-Z; the seed drives the RREA embeddings.
    Result<KgPairDataset> dataset = GenerateDataset("D-Z");
    if (!dataset.ok()) return Abort(report, dataset.status().ToString());
    dataset_ = std::make_unique<KgPairDataset>(std::move(*dataset));
    Result<EmbeddingPair> embeddings = ComputeEmbeddings(
        *dataset_, EmbeddingSetting::kRreaStruct, options.seed);
    if (!embeddings.ok()) return Abort(report, embeddings.status().ToString());
    embeddings_ = std::make_unique<EmbeddingPair>(std::move(*embeddings));
    source_ = ExtractRows(embeddings_->source, dataset_->test_source_entities);
    target_ = ExtractRows(embeddings_->target, dataset_->test_target_entities);
    auto snapshot = PairSnapshot::Build(Matrix(source_), Matrix(target_));
    if (!snapshot.ok()) return Abort(report, snapshot.status().ToString());
    snapshot_ = *snapshot;
    for (AlgorithmPreset p : kRound) {
      if (p == AlgorithmPreset::kRl) continue;
      auto engine = MatchEngine::Over(snapshot_, MakePreset(p));
      if (!engine.ok()) return Abort(report, engine.status().ToString());
      engines_[p] = std::make_unique<MatchEngine>(std::move(*engine));
    }
    // Warm every engine's arena once, in parallel. RL keeps no state
    // between queries (RunMatching builds it afresh), so it needs none.
    std::vector<std::thread> warm;
    std::mutex mu;
    bool ok = true;
    for (size_t t = 0; t < kClients; ++t) {
      warm.emplace_back([&, t] {
        for (size_t i = t; i < kRoundSize; i += kClients) {
          if (kRound[i] == AlgorithmPreset::kRl) continue;
          if (!RunPreset(kRound[i], nullptr).ok()) {
            std::lock_guard<std::mutex> lock(mu);
            ok = false;
          }
        }
      });
    }
    for (std::thread& th : warm) th.join();
    if (!ok) return Abort(report, "warm-up query failed");
    return true;
  }

  double TailPercentile() const override { return 75.0; }

  PhaseResult ClosedLoop(double seconds, Tracer* tracer) override {
    return RunClosedLoop(
        kClients, seconds, kRoundSize,
        [&](size_t, uint64_t, size_t index) {
          const AlgorithmPreset p = kRound[index];
          Tracer::Span span(tracer, "op.align." + MetricKey(p));
          Result<Assignment> answer = RunPreset(p, nullptr);
          if (!answer.ok()) return false;
          answers_.Record(p, answer->target_of_source);
          // RL decodes with exclusiveness as a soft reward feature, so its
          // answer can give one target to two sources; such an answer is a
          // failed operation (a 1-to-1 matcher must never reuse a target).
          return p != AlgorithmPreset::kRl ||
                 CheckNoReusedTarget(answer->target_of_source).empty();
        });
  }

  void Check(RunReport* report) override {
    std::map<AlgorithmPreset, std::vector<int32_t>> answers;
    for (const auto& [p, rec] : answers_.Entries()) {
      if (rec.mismatches > 0) {
        report->Fail(std::string(PresetName(p)) + ": " + std::to_string(rec.mismatches) +
                     " repeated answers differ from the first");
      }
      answers[p] = rec.first;
    }
    if (answers.size() != kRoundSize) {
      report->Fail("align-paper: not every preset answered");
      return;
    }
    const ExactScores exact = ExactCosine(source_, target_, kClients);
    report->Check("DInf row maxima",
                  CheckRowArgmax(exact, answers[AlgorithmPreset::kDInf], kScoreTol));
    Result<Matrix> similarity = ComputeSimilarity(source_, target_, SimilarityMetric::kCosine);
    if (!similarity.ok()) {
      report->Fail("ComputeSimilarity: " + similarity.status().ToString());
    } else {
      std::vector<uint32_t> top = RowTopKIndices(*similarity, kTopK);
      report->Check("top-k entries",
                    CheckRowTopK(exact, std::vector<int32_t>(top.begin(), top.end()),
                                 kTopK, kScoreTol));
    }
    // RL answers that reuse a target are already counted as failed
    // operations by the closed loop.
    for (AlgorithmPreset p : {AlgorithmPreset::kHungarian,
                              AlgorithmPreset::kStableMatch}) {
      report->Check(std::string(PresetName(p)) + " 1-to-1",
                    CheckNoReusedTarget(answers[p]));
    }
    const std::vector<int32_t>& hungarian = answers[AlgorithmPreset::kHungarian];
    const double best = AssignmentTotal(exact, hungarian);
    for (const auto& [p, a] : answers) {
      if (!CheckNoReusedTarget(a).empty()) continue;
      const double total = AssignmentTotal(exact, a);
      if (total > best + 1e-3) {
        report->Fail(std::string("Hungarian total ") + std::to_string(best) +
                     " below " + PresetName(p) + "'s " + std::to_string(total));
      }
    }
    report->Check("Hungarian 2-swap", CheckNoImprovingSwap(exact, hungarian, kScoreTol));
    report->Check("SMat blocking pairs",
                  CheckNoBlockingPair(exact, answers[AlgorithmPreset::kStableMatch], kScoreTol));
    Result<Matrix> sinkhorn =
        engines_[AlgorithmPreset::kSinkhorn]->TransformedScores(MakePreset(AlgorithmPreset::kSinkhorn));
    if (!sinkhorn.ok()) {
      report->Fail("Sinkhorn scores: " + sinkhorn.status().ToString());
    } else {
      report->Check("Sinkhorn marginal", CheckColumnSumsOne(*sinkhorn, 1e-3));
    }
    const double dinf_f1 = F1Of(answers[AlgorithmPreset::kDInf]).f1;
    for (const auto& [p, a] : answers) {
      const F1Count mine = F1Of(a);
      Assignment assignment;
      assignment.target_of_source = a;
      const EvalMetrics eval = EvaluatePredictions(
          AssignmentToPairs(*dataset_, assignment), dataset_->split.test);
      if (std::abs(mine.f1 - eval.f1) > 1e-12) {
        report->Fail(std::string(PresetName(p)) + " F1 " + std::to_string(mine.f1) +
                     " disagrees with eval's " + std::to_string(eval.f1));
      }
      if (mine.f1 < dinf_f1 - kF1Margin) {
        report->Fail(std::string(PresetName(p)) + " F1 " + std::to_string(mine.f1) +
                     " below DInf's " + std::to_string(dinf_f1) + " by more than the margin");
      }
    }
  }

  void Layers(Tracer* tracer, RunReport* report) override {
    const double n = static_cast<double>(source_.rows());
    const double m = static_cast<double>(target_.rows());
    const double d = static_cast<double>(source_.cols());
    Matrix similarity;
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Span span(tracer, "la.similarity");
      Result<Matrix> s = ComputeSimilarity(source_, target_, SimilarityMetric::kCosine);
      if (!s.ok()) return report->Fail("ComputeSimilarity: " + s.status().ToString());
      similarity = std::move(*s);
    }
    const double sim = tracer->MedianSelfMs("la.similarity");
    report->Set("la.similarity_ms", sim, "ms");
    report->Set("la.similarity_gflops", 2.0 * n * m * d / (sim * 1e6), "GFLOP/s");

    for (AlgorithmPreset p : {AlgorithmPreset::kCsls, AlgorithmPreset::kRinf,
                              AlgorithmPreset::kRinfWr, AlgorithmPreset::kRinfPb,
                              AlgorithmPreset::kSinkhorn}) {
      const std::string name = "matching.transform." + MetricKey(p);
      Workspace workspace;
      for (int rep = 0; rep < 2; ++rep) {
        Matrix scores = similarity;
        Tracer::Span span(tracer, name);
        const Status st = ApplyScoreTransformInPlace(&scores, MakePreset(p), &workspace);
        if (!st.ok()) return report->Fail("transform: " + st.ToString());
      }
      report->Set("matching.transform_ms." + MetricKey(p), tracer->MedianSelfMs(name), "ms");
    }

    const std::pair<const char*, MatcherKind> decisions[] = {
        {"greedy", MatcherKind::kGreedy},
        {"hungarian", MatcherKind::kHungarian},
        {"gale_shapley", MatcherKind::kGaleShapley}};
    for (const auto& [key, kind] : decisions) {
      const std::string name = std::string("matching.decision.") + key;
      MatchOptions options;
      options.matcher = kind;
      Workspace workspace;
      for (int rep = 0; rep < 2; ++rep) {
        Tracer::Span span(tracer, name);
        Result<Assignment> a = MatchScores(similarity, options, &workspace);
        if (!a.ok()) return report->Fail("decision: " + a.status().ToString());
      }
      report->Set(std::string("matching.decision_ms.") + key, tracer->MedianSelfMs(name), "ms");
    }
    {
      Tracer::Span span(tracer, "matching.decision.rl");
      Result<Assignment> a = RlMatch(*dataset_, *embeddings_, similarity,
                                     MakePreset(AlgorithmPreset::kRl).rl);
      if (!a.ok()) return report->Fail("RL decision: " + a.status().ToString());
    }
    report->Set("matching.decision_ms.rl", tracer->MedianSelfMs("matching.decision.rl"), "ms");

    size_t high_water = 0;
    for (AlgorithmPreset p : kRound) {
      const std::string name = "matching.preset." + MetricKey(p);
      for (int rep = 0; rep < 2; ++rep) {
        Tracer::Span span(tracer, name);
        Result<Assignment> a = RunPreset(p, &high_water);
        if (!a.ok()) return report->Fail("preset: " + a.status().ToString());
        answers_.Record(p, a->target_of_source);
      }
      report->Set("matching.preset_ms." + MetricKey(p), tracer->MedianSelfMs(name), "ms");
    }
    report->Set("la.workspace_high_water_mb", static_cast<double>(high_water) / (1 << 20), "MB");
  }

  void Teardown(RunReport*) override {
    engines_.clear();
    snapshot_.reset();
  }

 private:
  static bool Abort(RunReport* report, const std::string& why) {
    report->Fail("align-paper setup: " + why);
    return false;
  }

  Result<Assignment> RunPreset(AlgorithmPreset p, size_t* high_water) {
    if (p == AlgorithmPreset::kRl) {
      EM_ASSIGN_OR_RETURN(MatchRun run, RunMatching(*dataset_, *embeddings_, MakePreset(p)));
      return run.assignment;
    }
    // An engine serves one query at a time; the next round's query of the
    // same preset waits for this round's.
    std::lock_guard<std::mutex> lock(engine_mu_[static_cast<size_t>(p)]);
    MatchEngine& engine = *engines_.at(p);
    Result<Assignment> answer = engine.Match();
    if (high_water != nullptr) {
      *high_water = std::max(*high_water, engine.workspace().high_water_bytes());
    }
    return answer;
  }

  F1Count F1Of(const std::vector<int32_t>& a) const {
    return CountF1(a, dataset_->test_source_entities,
                   dataset_->test_target_entities, dataset_->split.test);
  }

  std::unique_ptr<KgPairDataset> dataset_;
  std::unique_ptr<EmbeddingPair> embeddings_;
  Matrix source_;
  Matrix target_;
  std::shared_ptr<const PairSnapshot> snapshot_;
  std::map<AlgorithmPreset, std::unique_ptr<MatchEngine>> engines_;
  std::mutex engine_mu_[kRoundSize];  // indexed by AlgorithmPreset
  FirstAnswers<AlgorithmPreset> answers_;
};

}  // namespace

std::unique_ptr<Workload> MakeAlignPaper() { return std::make_unique<AlignPaper>(); }

}  // namespace perfbench

// sparse-index: a synthetic clustered pair (SynthEmbfPair, 20000 x 20000 x
// 64) written as EMBF and opened through MmapStore. A dense 20000 x 20000
// score matrix (1.6 GB) does not fit the 256 MB workspace budget, so the pair
// is matched through an HNSW CandidateIndex with sparse transforms (none,
// CSLS, RInf, RInf-wr) and the greedy, greedy-1to1 and mutual-best matchers.
// Index probe and rerank, sparse transforms and sparse matchers do the work;
// the dense kernels and the server do none. The HNSW build is in setup.
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "checks.h"
#include "common/rng.h"
#include "datagen/embf_synth.h"
#include "index/candidate_index.h"
#include "la/mmap_store.h"
#include "la/similarity.h"
#include "matching/engine.h"
#include "matching/sparse_matchers.h"
#include "matching/sparse_transforms.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace entmatcher;

constexpr size_t kClients = 4;
constexpr size_t kRows = 20000;
constexpr size_t kDim = 64;
constexpr size_t kCandidates = 16;
constexpr size_t kEf = 32;
constexpr size_t kBudgetBytes = 256u << 20;
constexpr size_t kSampleRows = 64;
// Floors for the synthetic pair (noise 0.05 << spread 0.25).
constexpr double kRecallFloor = 0.95;
constexpr double kAccuracyFloor = 0.95;

const ScoreTransformKind kTransforms[] = {ScoreTransformKind::kNone, ScoreTransformKind::kCsls,
                                          ScoreTransformKind::kRinf, ScoreTransformKind::kRinfWr};
const MatcherKind kMatchers[] = {MatcherKind::kGreedy, MatcherKind::kGreedyOneToOne,
                                 MatcherKind::kMutualBest};
constexpr size_t kRoundSize = 12;

SparseScores CopyOf(const SparseScores& s) {
  SparseScores copy = SparseScores::CreateOwned(s.rows(), s.cols(), s.nnz());
  std::memcpy(copy.values(), s.values(), s.nnz() * sizeof(float));
  std::memcpy(copy.col_indices(), s.col_indices(), s.nnz() * sizeof(uint32_t));
  copy.mutable_row_offsets() = s.row_offsets();
  return copy;
}

class SparseIndex : public Workload {
 public:
  bool Setup(const RunOptions& options, RunReport* report) override {
    workdir_ = options.workdir;
    src_path_ = workdir_ + "/src.embf";
    tgt_path_ = workdir_ + "/tgt.embf";
    EmbfSynthOptions synth;
    synth.rows = kRows;
    synth.dim = kDim;
    synth.clusters = kRows / 64;
    synth.seed = options.seed;
    if (Status st = SynthEmbfPair(synth, src_path_, tgt_path_); !st.ok()) return Abort(report, st.ToString());
    Result<MmapStore> src = MmapStore::Open(src_path_);
    Result<MmapStore> tgt = MmapStore::Open(tgt_path_);
    if (!src.ok() || !tgt.ok()) return Abort(report, "cannot map the EMBF pair");
    source_ = std::make_unique<MmapStore>(std::move(*src));
    target_ = std::make_unique<MmapStore>(std::move(*tgt));
    CandidateIndexOptions index_options;
    index_options.backend = CandidateBackendKind::kHnsw;
    index_options.hnsw_max_links = 16;
    index_options.hnsw_ef_construction = 64;
    index_options.seed = options.seed;
    const Clock::time_point t0 = Clock::now();
    Result<CandidateIndex> index = CandidateIndex::Build(target_->AsMatrix(), index_options);
    build_s_ = SecondsSince(t0);
    if (!index.ok()) return Abort(report, index.status().ToString());
    index_ = std::make_shared<const CandidateIndex>(std::move(*index));
    auto snapshot = PairSnapshot::Build(source_->AsMatrix(), target_->AsMatrix());
    if (!snapshot.ok()) return Abort(report, snapshot.status().ToString());
    snapshot_ = (*snapshot)->WithIndex(index_);
    MatchOptions base;
    base.workspace_budget_bytes = kBudgetBytes;
    for (size_t c = 0; c < kClients; ++c) {
      auto engine = MatchEngine::Over(snapshot_, base);
      if (!engine.ok()) return Abort(report, engine.status().ToString());
      engines_.push_back(std::make_unique<MatchEngine>(std::move(*engine)));
    }
    // Warm-up: every combination once, its answer checked with the rest.
    std::vector<std::thread> warm;
    std::atomic<bool> ok{true};
    for (size_t c = 0; c < kClients; ++c) {
      warm.emplace_back([&, c] {
        for (size_t index = c; index < kRoundSize; index += kClients) {
          Result<Assignment> a = engines_[c]->Match(OptionsAt(index));
          if (!a.ok()) {
            ok = false;
            return;
          }
          answers_.Record(index, a->target_of_source);
        }
      });
    }
    for (std::thread& th : warm) th.join();
    if (!ok) return Abort(report, "warm-up query failed");
    return true;
  }

  double TailPercentile() const override { return 75.0; }

  PhaseResult ClosedLoop(double seconds, Tracer* tracer) override {
    return RunClosedLoop(kClients, seconds, kRoundSize,
                         [&](size_t thread, uint64_t, size_t index) {
                           Tracer::Span span(tracer, "op.sparse.query");
                           Result<Assignment> a = engines_[thread]->Match(OptionsAt(index));
                           if (!a.ok()) return false;
                           answers_.Record(index, a->target_of_source);
                           return true;
                         });
  }

  void Check(RunReport* report) override {
    const auto answers = answers_.Entries();
    for (const auto& [index, rec] : answers) {
      const std::string what = "sparse combo " + std::to_string(index);
      if (rec.mismatches > 0) report->Fail(what + ": repeated answers differ from the first");
      const double accuracy = IdentityAccuracy(rec.first);
      if (accuracy < kAccuracyFloor) {
        report->Fail(what + ": identity accuracy " + std::to_string(accuracy) + " below the floor");
      }
      if (OptionsAt(index).matcher != MatcherKind::kGreedy) {
        report->Check(what + " 1-to-1", CheckNoReusedTarget(rec.first));
      }
    }
    if (answers.size() != kRoundSize) report->Fail("sparse-index: not every combination answered");
    Result<SparseScores> sparse = ProbeAll();
    if (!sparse.ok()) return report->Fail("probe: " + sparse.status().ToString());
    const std::vector<size_t> rows = SampleRows();
    const Matrix source = source_->AsMatrix();
    const Matrix target = target_->AsMatrix();
    report->Check("sparse entries", CheckSparseEntries(*sparse, source, target, rows, 1e-5));
    const double recall = RecallAtC(*sparse, source, target, rows);
    if (recall < kRecallFloor) {
      report->Fail("HNSW recall@c " + std::to_string(recall) + " below the floor");
    }
    // The dense path must be refused up front by the workspace budget.
    MatchOptions dense;
    Result<Assignment> refused = engines_[0]->Match(dense);
    if (refused.ok() || refused.status().code() != StatusCode::kResourceExhausted) {
      report->Fail("a dense query was not refused by the workspace budget");
    }
  }

  void Layers(Tracer* tracer, RunReport* report) override {
    for (int rep = 0; rep < 5; ++rep) {
      for (const std::string& path : {src_path_, tgt_path_}) {
        Tracer::Span span(tracer, "la.mmap_open");
        Result<MmapStore> store = MmapStore::Open(path);
        if (!store.ok()) return report->Fail("MmapStore::Open: " + store.status().ToString());
      }
    }
    report->Set("la.mmap_open_ms", tracer->MedianSelfMs("la.mmap_open"), "ms");
    report->Set("index.build_s", build_s_, "s");

    Result<SparseScores> sparse = Status::Internal("no probe ran");
    for (int rep = 0; rep < 2; ++rep) {
      Tracer::Span span(tracer, "index.probe");
      sparse = ProbeAll();
      if (!sparse.ok()) return report->Fail("probe: " + sparse.status().ToString());
    }
    report->Set("index.probe_ms", tracer->MedianSelfMs("index.probe"), "ms");
    report->Set("index.candidates_per_row", static_cast<double>(sparse->nnz()) / kRows, "count");
    report->Set("index.recall_at_c",
                RecallAtC(*sparse, source_->AsMatrix(), target_->AsMatrix(), SampleRows()), "ratio");

    const std::pair<const char*, ScoreTransformKind> transforms[] = {
        {"csls", ScoreTransformKind::kCsls}, {"rinf", ScoreTransformKind::kRinf}};
    for (const auto& [key, kind] : transforms) {
      const std::string name = std::string("matching.sparse_transform.") + key;
      MatchOptions options;
      options.transform = kind;
      Workspace workspace;
      for (int rep = 0; rep < 2; ++rep) {
        SparseScores copy = CopyOf(*sparse);
        Tracer::Span span(tracer, name);
        const Status st = ApplySparseScoreTransformInPlace(&copy, options, &workspace);
        if (!st.ok()) return report->Fail("sparse transform: " + st.ToString());
      }
      report->Set(std::string("matching.sparse_transform_ms.") + key, tracer->MedianSelfMs(name), "ms");
    }
    const std::pair<const char*, MatcherKind> matchers[] = {
        {"greedy", MatcherKind::kGreedy},
        {"greedy_1to1", MatcherKind::kGreedyOneToOne},
        {"mutual_best", MatcherKind::kMutualBest}};
    for (const auto& [key, kind] : matchers) {
      const std::string name = std::string("matching.sparse_decision.") + key;
      MatchOptions options;
      options.matcher = kind;
      for (int rep = 0; rep < 2; ++rep) {
        Tracer::Span span(tracer, name);
        Result<Assignment> a = MatchSparseScores(*sparse, options);
        if (!a.ok()) return report->Fail("sparse decision: " + a.status().ToString());
      }
      report->Set(std::string("matching.sparse_decision_ms.") + key, tracer->MedianSelfMs(name), "ms");
    }
  }

  void Teardown(RunReport*) override {
    engines_.clear();
    snapshot_.reset();
    index_.reset();
    source_.reset();
    target_.reset();
    RemoveTree(src_path_);
    RemoveTree(tgt_path_);
  }

 private:
  static bool Abort(RunReport* report, const std::string& why) {
    report->Fail("sparse-index setup: " + why);
    return false;
  }

  MatchOptions OptionsAt(size_t index) const {
    MatchOptions o;
    o.workspace_budget_bytes = kBudgetBytes;
    o.transform = kTransforms[index / 3];
    o.matcher = kMatchers[index % 3];
    o.candidate_index = snapshot_->index();
    o.num_candidates = kCandidates;
    o.index_ef = kEf;
    return o;
  }

  Result<SparseScores> ProbeAll() const {
    const Matrix source = source_->AsMatrix();
    const Matrix target = target_->AsMatrix();
    const SimilarityCache& cache = snapshot_->EnsureCache(SimilarityMetric::kCosine);
    SparseScores out = SparseScores::CreateOwned(kRows, kRows, kRows * kCandidates);
    ProbeParams params;
    params.ef_search = kEf;
    EM_RETURN_NOT_OK(index_->FillSparseScores(source, target, SimilarityMetric::kCosine, cache,
                                              kCandidates, params, &out));
    return out;
  }

  std::vector<size_t> SampleRows() const {
    std::vector<size_t> rows;
    for (size_t i = 0; i < kSampleRows; ++i) rows.push_back((i * 7919 + 13) % kRows);
    return rows;
  }

  std::string workdir_, src_path_, tgt_path_;
  std::unique_ptr<MmapStore> source_;
  std::unique_ptr<MmapStore> target_;
  std::shared_ptr<const CandidateIndex> index_;
  std::shared_ptr<const PairSnapshot> snapshot_;
  std::vector<std::unique_ptr<MatchEngine>> engines_;
  double build_s_ = 0.0;
  FirstAnswers<size_t> answers_;
};

}  // namespace

std::unique_ptr<Workload> MakeSparseIndex() { return std::make_unique<SparseIndex>(); }

}  // namespace perfbench

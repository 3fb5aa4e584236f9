// The checkers must be able to fail: each test feeds a checker a correct
// answer (which it must accept) and a corrupted one (which it must reject).
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "la/sparse.h"
#include "la/topk.h"
#include "matching/engine.h"
#include "matching/pipeline.h"
#include "wire_mix.h"

namespace perfbench {
namespace {

using namespace entmatcher;

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++g_failures;
    std::cout << "FAILED: " << what << "\n";
  }
}
void Accepts(const std::string& verdict, const std::string& what) {
  Expect(verdict.empty(), what + " should accept, got: " + verdict);
}
void Rejects(const std::string& verdict, const std::string& what) {
  Expect(!verdict.empty(), what + " should reject");
}

constexpr size_t kN = 6;

std::vector<int32_t> Argmax(const ExactScores& s) {
  std::vector<int32_t> out(s.rows);
  for (size_t i = 0; i < s.rows; ++i) {
    size_t best = 0;
    for (size_t j = 1; j < s.cols; ++j) best = s.at(i, j) > s.at(i, best) ? j : best;
    out[i] = static_cast<int32_t>(best);
  }
  return out;
}

std::vector<int32_t> BestPermutation(const ExactScores& s) {
  std::vector<int32_t> perm(kN), best;
  std::iota(perm.begin(), perm.end(), 0);
  double best_total = -1e300;
  do {
    const double total = AssignmentTotal(s, perm);
    if (total > best_total) {
      best_total = total;
      best = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

/// Source-proposing deferred acceptance on the exact scores.
std::vector<int32_t> StableMatching(const ExactScores& s) {
  std::vector<int32_t> partner_of_target(kN, -1), next(kN, 0), match(kN, -1);
  std::vector<std::vector<int32_t>> prefs(kN);
  for (size_t i = 0; i < kN; ++i) {
    prefs[i].resize(kN);
    std::iota(prefs[i].begin(), prefs[i].end(), 0);
    std::sort(prefs[i].begin(), prefs[i].end(),
              [&](int32_t a, int32_t b) { return s.at(i, a) > s.at(i, b); });
  }
  std::vector<size_t> free_rows(kN);
  std::iota(free_rows.begin(), free_rows.end(), 0);
  while (!free_rows.empty()) {
    const size_t i = free_rows.back();
    free_rows.pop_back();
    const int32_t j = prefs[i][next[i]++];
    const int32_t holder = partner_of_target[j];
    if (holder < 0 || s.at(i, j) > s.at(holder, j)) {
      if (holder >= 0) {
        match[holder] = -1;
        free_rows.push_back(holder);
      }
      partner_of_target[j] = static_cast<int32_t>(i);
      match[i] = j;
    } else {
      free_rows.push_back(i);
    }
  }
  return match;
}

void TestDenseCheckers() {
  const Matrix source = GaussianRows(kN, 8, 11);
  const Matrix target = GaussianRows(kN, 8, 12);
  const ExactScores s = ExactCosine(source, target, 2);

  std::vector<int32_t> dinf = Argmax(s);
  Accepts(CheckRowArgmax(s, dinf, 1e-9), "argmax");
  std::vector<int32_t> flipped = dinf;
  flipped[2] = (flipped[2] + 1) % kN;
  Rejects(CheckRowArgmax(s, flipped, 1e-9), "argmax with a flipped choice");

  Result<Matrix> sim = ComputeSimilarity(source, target, SimilarityMetric::kCosine);
  Expect(sim.ok(), "similarity");
  const std::vector<uint32_t> top = RowTopKIndices(*sim, 3);
  std::vector<int32_t> topk(top.begin(), top.end());
  Accepts(CheckRowTopK(s, topk, 3, 1e-6), "top-k");
  std::vector<int32_t> swapped = topk;
  std::swap(swapped[3], swapped[5]);  // row 1: ranks 0 and 2 exchanged
  Rejects(CheckRowTopK(s, swapped, 3, 1e-6), "top-k with a swapped pair");

  const std::vector<int32_t> optimal = BestPermutation(s);
  Accepts(CheckNoReusedTarget(optimal), "1-to-1");
  std::vector<int32_t> reused = optimal;
  reused[0] = reused[1];
  Rejects(CheckNoReusedTarget(reused), "a reused target");
  Accepts(CheckNoImprovingSwap(s, optimal, 1e-9), "optimal assignment");
  const std::vector<int32_t> stable = StableMatching(s);
  Accepts(CheckNoBlockingPair(s, stable, 1e-9), "stable matching");

  // A diagonal-dominant pair: the identity is both optimal and the only
  // stable matching, so exchanging two rows' targets must be caught.
  ExactScores diag;
  diag.rows = diag.cols = kN;
  for (size_t i = 0; i < kN; ++i) {
    for (size_t j = 0; j < kN; ++j) diag.values.push_back(i == j ? 1.0 : 0.1 * ((i + 2 * j) % 5));
  }
  std::vector<int32_t> identity(kN);
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<int32_t> exchanged = identity;
  std::swap(exchanged[0], exchanged[1]);
  Accepts(CheckNoImprovingSwap(diag, identity, 1e-9), "optimal diagonal assignment");
  Rejects(CheckNoImprovingSwap(diag, exchanged, 1e-9), "assignment with an improving 2-swap");
  Accepts(CheckNoBlockingPair(diag, identity, 1e-9), "stable diagonal matching");
  Rejects(CheckNoBlockingPair(diag, exchanged, 1e-9), "matching with a blocking pair");

  Matrix columns(3, 2);
  for (size_t r = 0; r < 3; ++r) columns.Row(r)[0] = columns.Row(r)[1] = 1.0f / 3.0f;
  Accepts(CheckColumnSumsOne(columns, 1e-6), "normalised columns");
  columns.Row(1)[1] = 0.5f;
  Rejects(CheckColumnSumsOne(columns, 1e-6), "a column that does not sum to 1");
}

void TestF1AndIdentity() {
  AlignmentSet gold({{0, 10}, {1, 11}, {2, 12}, {3, 13}});
  const std::vector<EntityId> sources = {0, 1, 2, 3};
  const std::vector<EntityId> targets = {10, 11, 12, 13};
  Expect(CountF1({0, 1, 2, 3}, sources, targets, gold).f1 == 1.0, "perfect F1");
  Expect(CountF1({1, 0, 2, 3}, sources, targets, gold).f1 == 0.5, "half-right F1");
  Expect(IdentityAccuracy({0, 1, 2, 3}) == 1.0, "identity accuracy");
  Expect(IdentityAccuracy({0, 2, 1, 3}) == 0.5, "flipped identity accuracy");
}

void TestSparseCheckers() {
  const Matrix source = GaussianRows(4, 8, 21);
  const Matrix target = GaussianRows(5, 8, 22);
  const ExactScores s = ExactCosine(source, target, 1);
  // Complete candidate lists: every target of every row.
  SparseScores sparse = SparseScores::CreateOwned(4, 5, 20);
  std::vector<size_t>& offsets = sparse.mutable_row_offsets();
  offsets.assign(5, 0);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      sparse.values()[i * 5 + j] = static_cast<float>(s.at(i, j));
      sparse.col_indices()[i * 5 + j] = static_cast<uint32_t>(j);
    }
    offsets[i + 1] = (i + 1) * 5;
  }
  const std::vector<size_t> rows = {0, 1, 2, 3};
  Accepts(CheckSparseEntries(sparse, source, target, rows, 1e-6), "sparse entries");
  Expect(RecallAtC(sparse, source, target, rows) == 1.0, "complete lists have recall 1");
  sparse.values()[7] += 0.25f;
  Rejects(CheckSparseEntries(sparse, source, target, rows, 1e-6), "a corrupted sparse entry");
}

void TestVersionedAnswers() {
  PairVersion v1{GaussianRows(12, 8, 31), GaussianRows(14, 8, 32)};
  PairVersion v2{GaussianRows(12, 8, 33), GaussianRows(14, 8, 34)};
  const WireOp csls{"a", false, AlgorithmPreset::kCsls, 0};
  Result<Assignment> a1 = MatchEmbeddings(v1.source, v1.target, MakePreset(csls.algorithm));
  Result<Assignment> a2 = MatchEmbeddings(v2.source, v2.target, MakePreset(csls.algorithm));
  Expect(a1.ok() && a2.ok(), "solo answers");
  Expect(a1->target_of_source != a2->target_of_source, "versions answer differently");

  auto lookup = [&](const std::string&, uint64_t version) -> const PairVersion* {
    return version == 1 ? &v1 : version == 2 ? &v2 : nullptr;
  };
  {
    AnswerLedger ledger;
    ledger.Record(csls, 1, a1->target_of_source);
    ledger.Record(csls, 2, a2->target_of_source);
    RunReport report;
    ledger.Check(lookup, &report);
    Expect(report.correct, "correctly tagged answers should pass");
  }
  {
    AnswerLedger ledger;
    ledger.Record(csls, 2, a1->target_of_source);  // v1's answer tagged v2
    RunReport report;
    ledger.Check(lookup, &report);
    Expect(!report.correct, "a wrong version tag should fail");
  }
  {
    AnswerLedger ledger;
    ledger.Record(csls, 3, a1->target_of_source);  // never published
    RunReport report;
    ledger.Check(lookup, &report);
    Expect(!report.correct, "an unpublished version should fail");
  }
  {
    AnswerLedger ledger;
    std::vector<int32_t> flipped = a1->target_of_source;
    std::swap(flipped[0], flipped[1]);
    ledger.Record(csls, 1, a1->target_of_source);
    ledger.Record(csls, 1, flipped);  // a repeat that differs
    RunReport report;
    ledger.Check(lookup, &report);
    Expect(!report.correct, "a repeated answer that differs should fail");
  }
  // DInf and top-k answers through the ledger: correct ones pass, a swapped
  // top-k pair and a flipped assignment fail.
  const WireOp topk{"a", true, AlgorithmPreset::kDInf, 3};
  const WireOp dinf{"a", false, AlgorithmPreset::kDInf, 0};
  Result<Matrix> sim = ComputeSimilarity(v1.source, v1.target, SimilarityMetric::kCosine);
  const std::vector<uint32_t> top = RowTopKIndices(*sim, 3);
  const std::vector<int32_t> values(top.begin(), top.end());
  Result<Assignment> d = MatchEmbeddings(v1.source, v1.target, MakePreset(dinf.algorithm));
  Expect(sim.ok() && d.ok(), "DInf answers");
  std::vector<int32_t> swapped = values;
  std::swap(swapped[0], swapped[1]);
  std::vector<int32_t> flipped = d->target_of_source;
  flipped[4] = (flipped[4] + 1) % 14;
  const struct {
    WireOp op;
    std::vector<int32_t> answer;
    bool correct;
    const char* what;
  } cases[] = {{topk, values, true, "wire top-k"},
               {topk, swapped, false, "wire top-k with a swapped pair"},
               {dinf, d->target_of_source, true, "wire DInf match"},
               {dinf, flipped, false, "wire DInf match with a flipped assignment"}};
  for (const auto& c : cases) {
    AnswerLedger ledger;
    ledger.Record(c.op, 1, c.answer);
    RunReport report;
    ledger.Check(lookup, &report);
    Expect(report.correct == c.correct, std::string(c.what) + (c.correct ? " should pass" : " should fail"));
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestDenseCheckers();
  TestF1AndIdentity();
  TestSparseCheckers();
  TestVersionedAnswers();
  std::cout << (g_failures == 0 ? "all checker tests passed" : "checker tests FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}

// Independent output checks. Every checker recomputes what a correct answer
// must satisfy from the inputs alone (double-precision cosine, gold links,
// assignment invariants); none compares against a stored copy of an earlier
// output. Each returns an empty string when the answer passes, else a short
// description of the first violation.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kg/alignment.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace perfbench {

/// Cosine similarity of every source row against every target row, computed
/// in double precision by the benchmark itself.
struct ExactScores {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> values;
  double at(size_t i, size_t j) const { return values[i * cols + j]; }
};

ExactScores ExactCosine(const entmatcher::Matrix& source,
                        const entmatcher::Matrix& target, size_t threads);

/// choice[i]'s score must lie within `tol` of row i's true maximum.
std::string CheckRowArgmax(const ExactScores& s,
                           const std::vector<int32_t>& choice, double tol);

/// `flat` holds k entries per row (row-major). Entry r of a row must score
/// within `tol` of the row's true r-th largest score, and no row may list a
/// target twice.
std::string CheckRowTopK(const ExactScores& s, const std::vector<int32_t>& flat,
                         size_t k, double tol);

/// No target may be assigned to two sources (-1 = unmatched is allowed).
std::string CheckNoReusedTarget(const std::vector<int32_t>& assignment);

/// Sum of exact scores over matched rows.
double AssignmentTotal(const ExactScores& s,
                       const std::vector<int32_t>& assignment);

/// No exchange of targets between two matched rows may raise the total by
/// more than `tol` (a necessary condition of an optimal assignment).
std::string CheckNoImprovingSwap(const ExactScores& s,
                                 const std::vector<int32_t>& assignment,
                                 double tol);

/// Stable-marriage check with both sides ranking by score: no (i, j) where
/// i prefers j to its partner and j prefers i to its partner, each by more
/// than `tol`. Unmatched sources and targets prefer any partner.
std::string CheckNoBlockingPair(const ExactScores& s,
                                const std::vector<int32_t>& assignment,
                                double tol);

/// Every column of `m` sums to 1 within `tol`.
std::string CheckColumnSumsOne(const entmatcher::Matrix& m, double tol);

/// Precision / recall / F1 of an assignment over candidate entity lists
/// against gold links, counted by the benchmark.
struct F1Count {
  size_t correct = 0;
  size_t found = 0;
  size_t gold = 0;
  double f1 = 0.0;
};
F1Count CountF1(const std::vector<int32_t>& assignment,
                const std::vector<entmatcher::EntityId>& sources,
                const std::vector<entmatcher::EntityId>& targets,
                const entmatcher::AlignmentSet& gold);

/// Share of rows i assigned to target i (the synthetic pair's gold).
double IdentityAccuracy(const std::vector<int32_t>& assignment);

/// Each entry of the sampled rows must equal the exact cosine of its
/// (row, column) within `tol`.
std::string CheckSparseEntries(const entmatcher::SparseScores& scores,
                               const entmatcher::Matrix& source,
                               const entmatcher::Matrix& target,
                               const std::vector<size_t>& rows, double tol);

/// Mean over the sampled rows of |kept candidates ∩ exact top-c| / c, where
/// c is the row's candidate count and the exact top-c is a brute force over
/// every target.
double RecallAtC(const entmatcher::SparseScores& scores,
                 const entmatcher::Matrix& source,
                 const entmatcher::Matrix& target,
                 const std::vector<size_t>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

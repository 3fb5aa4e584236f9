#include "checks.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>
#include <unordered_set>

namespace perfbench {

using entmatcher::Matrix;

namespace {

std::string Describe(const std::string& what, size_t row, double got,
                     double want) {
  std::ostringstream out;
  out << what << " at row " << row << ": " << got << " vs " << want;
  return out.str();
}

double ExactCosineOf(const Matrix& source, const Matrix& target, size_t i,
                     size_t j) {
  const auto a = source.Row(i);
  const auto b = target.Row(j);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    dot += static_cast<double>(a[d]) * b[d];
    na += static_cast<double>(a[d]) * a[d];
    nb += static_cast<double>(b[d]) * b[d];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<double> InverseNorms(const Matrix& m) {
  std::vector<double> out(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    double sq = 0.0;
    for (float v : m.Row(r)) sq += static_cast<double>(v) * v;
    out[r] = sq > 0.0 ? 1.0 / std::sqrt(sq) : 0.0;
  }
  return out;
}

}  // namespace

ExactScores ExactCosine(const Matrix& source, const Matrix& target,
                        size_t threads) {
  ExactScores s;
  s.rows = source.rows();
  s.cols = target.rows();
  s.values.assign(s.rows * s.cols, 0.0);
  const std::vector<double> inv_s = InverseNorms(source);
  const std::vector<double> inv_t = InverseNorms(target);
  const size_t d = source.cols();
  auto body = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const float* a = source.Row(i).data();
      for (size_t j = 0; j < s.cols; ++j) {
        const float* b = target.Row(j).data();
        double dot = 0.0;
        for (size_t k = 0; k < d; ++k) dot += static_cast<double>(a[k]) * b[k];
        s.values[i * s.cols + j] = dot * inv_s[i] * inv_t[j];
      }
    }
  };
  threads = std::max<size_t>(1, std::min(threads, s.rows));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(body, s.rows * t / threads, s.rows * (t + 1) / threads);
  }
  for (std::thread& th : pool) th.join();
  return s;
}

std::string CheckRowArgmax(const ExactScores& s,
                           const std::vector<int32_t>& choice, double tol) {
  if (choice.size() != s.rows) return "answer has the wrong number of rows";
  for (size_t i = 0; i < choice.size(); ++i) {
    const size_t row = i;
    if (choice[i] < 0 || static_cast<size_t>(choice[i]) >= s.cols) {
      return Describe("choice out of range", row, choice[i], s.cols);
    }
    double best = -std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < s.cols; ++j) best = std::max(best, s.at(row, j));
    const double got = s.at(row, static_cast<size_t>(choice[i]));
    if (got < best - tol) return Describe("not the row maximum", row, got, best);
  }
  return "";
}

std::string CheckRowTopK(const ExactScores& s, const std::vector<int32_t>& flat,
                         size_t k, double tol) {
  if (k == 0 || k > s.cols || flat.size() != s.rows * k) return "payload is not rows x k";
  std::vector<double> row_scores(s.cols);
  for (size_t i = 0; i < s.rows; ++i) {
    const size_t row = i;
    for (size_t j = 0; j < s.cols; ++j) row_scores[j] = s.at(row, j);
    std::partial_sort(row_scores.begin(), row_scores.begin() + k,
                      row_scores.end(), std::greater<double>());
    std::unordered_set<int32_t> seen;
    for (size_t r = 0; r < k; ++r) {
      const int32_t j = flat[i * k + r];
      if (j < 0 || static_cast<size_t>(j) >= s.cols) {
        return Describe("top-k entry out of range", row, j, s.cols);
      }
      if (!seen.insert(j).second) return Describe("repeated top-k entry", row, j, r);
      const double got = s.at(row, static_cast<size_t>(j));
      if (std::abs(got - row_scores[r]) > tol) {
        return Describe("top-k entry off its rank", row, got, row_scores[r]);
      }
    }
  }
  return "";
}

std::string CheckNoReusedTarget(const std::vector<int32_t>& assignment) {
  std::unordered_set<int32_t> used;
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] < 0) continue;
    if (!used.insert(assignment[i]).second) {
      return Describe("target reused", i, assignment[i], assignment[i]);
    }
  }
  return "";
}

double AssignmentTotal(const ExactScores& s,
                       const std::vector<int32_t>& assignment) {
  double total = 0.0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] >= 0) total += s.at(i, static_cast<size_t>(assignment[i]));
  }
  return total;
}

std::string CheckNoImprovingSwap(const ExactScores& s,
                                 const std::vector<int32_t>& assignment,
                                 double tol) {
  const size_t n = assignment.size();
  for (size_t i = 0; i < n; ++i) {
    if (assignment[i] < 0) continue;
    const size_t ai = static_cast<size_t>(assignment[i]);
    for (size_t k = i + 1; k < n; ++k) {
      if (assignment[k] < 0) continue;
      const size_t ak = static_cast<size_t>(assignment[k]);
      const double now = s.at(i, ai) + s.at(k, ak);
      const double swapped = s.at(i, ak) + s.at(k, ai);
      if (swapped > now + tol) {
        return Describe("2-swap improves the total", i, swapped, now);
      }
    }
  }
  return "";
}

std::string CheckNoBlockingPair(const ExactScores& s,
                                const std::vector<int32_t>& assignment,
                                double tol) {
  const double none = -std::numeric_limits<double>::infinity();
  std::vector<double> source_partner(s.rows, none);
  std::vector<double> target_partner(s.cols, none);
  for (size_t i = 0; i < assignment.size() && i < s.rows; ++i) {
    if (assignment[i] < 0) continue;
    const size_t j = static_cast<size_t>(assignment[i]);
    if (j >= s.cols) return Describe("assignment out of range", i, j, s.cols);
    source_partner[i] = s.at(i, j);
    target_partner[j] = s.at(i, j);
  }
  for (size_t i = 0; i < s.rows; ++i) {
    for (size_t j = 0; j < s.cols; ++j) {
      const double v = s.at(i, j);
      if (v > source_partner[i] + tol && v > target_partner[j] + tol) {
        return Describe("blocking pair", i, v, source_partner[i]);
      }
    }
  }
  return "";
}

std::string CheckColumnSumsOne(const Matrix& m, double tol) {
  std::vector<double> sums(m.cols(), 0.0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.Row(r);
    for (size_t c = 0; c < m.cols(); ++c) sums[c] += row[c];
  }
  for (size_t c = 0; c < m.cols(); ++c) {
    if (std::abs(sums[c] - 1.0) > tol) {
      return Describe("column sum is not 1", c, sums[c], 1.0);
    }
  }
  return "";
}

F1Count CountF1(const std::vector<int32_t>& assignment,
                const std::vector<entmatcher::EntityId>& sources,
                const std::vector<entmatcher::EntityId>& targets,
                const entmatcher::AlignmentSet& gold) {
  F1Count c;
  c.gold = gold.size();
  for (size_t i = 0; i < assignment.size() && i < sources.size(); ++i) {
    if (assignment[i] < 0 || static_cast<size_t>(assignment[i]) >= targets.size()) continue;
    ++c.found;
    if (gold.Contains(sources[i], targets[static_cast<size_t>(assignment[i])])) ++c.correct;
  }
  const double p = c.found ? static_cast<double>(c.correct) / c.found : 0.0;
  const double r = c.gold ? static_cast<double>(c.correct) / c.gold : 0.0;
  c.f1 = p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
  return c;
}

double IdentityAccuracy(const std::vector<int32_t>& assignment) {
  if (assignment.empty()) return 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    hits += assignment[i] == static_cast<int32_t>(i);
  }
  return static_cast<double>(hits) / static_cast<double>(assignment.size());
}

std::string CheckSparseEntries(const entmatcher::SparseScores& scores,
                               const Matrix& source, const Matrix& target,
                               const std::vector<size_t>& rows, double tol) {
  for (size_t row : rows) {
    if (row >= scores.rows()) return Describe("sampled row out of range", row, row, scores.rows());
    const auto values = scores.RowValues(row);
    const auto cols = scores.RowCols(row);
    for (size_t e = 0; e < values.size(); ++e) {
      if (cols[e] >= target.rows()) return Describe("entry column out of range", row, cols[e], target.rows());
      if (e > 0 && cols[e] <= cols[e - 1]) return Describe("columns not ascending", row, cols[e], cols[e - 1]);
      const double want = ExactCosineOf(source, target, row, cols[e]);
      if (std::abs(values[e] - want) > tol) {
        return Describe("sparse entry off its dot product", row, values[e], want);
      }
    }
  }
  return "";
}

double RecallAtC(const entmatcher::SparseScores& scores, const Matrix& source,
                 const Matrix& target, const std::vector<size_t>& rows) {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  std::vector<std::pair<double, uint32_t>> exact(target.rows());
  for (size_t row : rows) {
    const auto cols = scores.RowCols(row);
    const size_t c = cols.size();
    if (c == 0) continue;
    for (size_t j = 0; j < target.rows(); ++j) {
      exact[j] = {ExactCosineOf(source, target, row, j), static_cast<uint32_t>(j)};
    }
    std::partial_sort(exact.begin(), exact.begin() + c, exact.end(),
                      [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first : a.second < b.second;
                      });
    std::unordered_set<uint32_t> truth;
    for (size_t r = 0; r < c; ++r) truth.insert(exact[r].second);
    size_t hit = 0;
    for (uint32_t col : cols) hit += truth.count(col);
    sum += static_cast<double>(hit) / static_cast<double>(c);
  }
  return sum / static_cast<double>(rows.size());
}

}  // namespace perfbench

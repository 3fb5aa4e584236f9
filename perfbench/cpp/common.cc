#include "common.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"

namespace perfbench {

namespace {

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void NormalizeRows(entmatcher::Matrix* m) {
  for (size_t r = 0; r < m->rows(); ++r) {
    double sq = 0.0;
    for (float v : m->Row(r)) sq += static_cast<double>(v) * v;
    const float inv = sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(sq)) : 0.0f;
    for (float& v : m->Row(r)) v *= inv;
  }
}

}  // namespace

Clock::time_point ProcessStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

double PeakRssMb() { return VmHwmMb("/proc/self/status"); }

double ChildPeakRssMb(int pid) {
  return VmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

entmatcher::Matrix GaussianRows(size_t rows, size_t dim, uint64_t seed) {
  entmatcher::Rng rng(seed);
  entmatcher::Matrix m(rows, dim);
  for (size_t r = 0; r < rows; ++r) {
    for (float& v : m.Row(r)) v = static_cast<float>(rng.NextGaussian());
  }
  NormalizeRows(&m);
  return m;
}

entmatcher::Matrix Perturb(const entmatcher::Matrix& base, double scale,
                           uint64_t seed) {
  entmatcher::Rng rng(seed);
  entmatcher::Matrix m(base.rows(), base.cols());
  for (size_t r = 0; r < base.rows(); ++r) {
    const auto in = base.Row(r);
    auto out = m.Row(r);
    for (size_t c = 0; c < in.size(); ++c) {
      out[c] = in[c] + static_cast<float>(scale * rng.NextGaussian());
    }
  }
  NormalizeRows(&m);
  return m;
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

uint64_t HashValues(const std::vector<int32_t>& values) {
  uint64_t h = 1469598103934665603ull;
  for (int32_t v : values) {
    uint32_t u = static_cast<uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace perfbench

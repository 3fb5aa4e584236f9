#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "stats.h"

namespace perfbench {

namespace {

// The calling thread's open spans, innermost last: (span id, request id).
thread_local std::vector<std::pair<uint64_t, uint64_t>> tls_open;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, std::string name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  record_.name = std::move(name);
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    record_.id = tracer_->next_id_++;
  }
  if (tls_open.empty()) {
    record_.request = record_.id;
  } else {
    record_.parent = tls_open.back().first;
    record_.request = tls_open.back().second;
  }
  tls_open.emplace_back(record_.id, record_.request);
  record_.start_ns = tracer_->NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = tracer_->NowNs();
  if (!tls_open.empty() && tls_open.back().first == record_.id) {
    tls_open.pop_back();
  }
  tracer_->Close(record_);
}

void Tracer::Close(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> spans = it->second;
      std::sort(spans.begin(), spans.end());
      int64_t cur_begin = 0, cur_end = -1;
      for (const auto& [b0, e0] : spans) {
        const int64_t b = std::max(b0, s.start_ns);
        const int64_t e = std::min(e0, s.end_ns);
        if (e <= b) continue;
        if (b > cur_end) {
          if (cur_end > cur_begin) covered += cur_end - cur_begin;
          cur_begin = b;
          cur_end = e;
        } else {
          cur_end = std::max(cur_end, e);
        }
      }
      if (cur_end > cur_begin) covered += cur_end - cur_begin;
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6);
  }
  return out;
}

double Tracer::MedianSelfMs(const std::string& name) const {
  return Median(SelfMs(name));
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

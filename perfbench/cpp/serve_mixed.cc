// serve-mixed: independent clients over the unix socket (ServeClient ->
// SocketServer -> MatchServer with two workers and the result cache on).
// Match and top-k requests on two small pairs with light presets (DInf,
// CSLS, RInf-wr) and a few RInf requests. A quarter of the requests repeat
// exactly (cache hits once computed); the rest are top-k requests cycling
// through 288 distinct answers, more than the 1.5 MB result cache holds
// (misses). Keeping the repeat share away from one half keeps the median
// latency inside one cluster (misses) instead of between two.
// A swapper publishes a new embedding version of pair "a" every second, so
// writes run beside the reads. The kernels stay small: queueing, batching,
// the cache, the wire codec and the swap path carry much of each request.
// The end-to-end metrics come from the closed loop. The paced open loop, timed
// from each request's due time, runs only in the traced run (queue wait and
// generator lateness): on a shared host its latency moves with how fast idle
// threads wake, more than with the program.
#include <atomic>
#include <condition_variable>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "index/candidate_index.h"
#include "matching/engine.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket_server.h"
#include "stats.h"
#include "wire_mix.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace entmatcher;

constexpr size_t kClients = 2;  // closed loop
constexpr size_t kSenders = 4;  // paced open loop (traced run)
constexpr size_t kServeWorkers = 2;
constexpr size_t kDim = 32;
constexpr size_t kRoundSize = 32;
constexpr double kPacedRate = 300.0;  // requests per second, open loop
constexpr size_t kPacedRounds = 31;   // 992 paced requests
constexpr double kSwapPeriodS = 1.0;
constexpr size_t kCacheBytes = 3 << 19;  // 1.5 MB
constexpr int kProbeReps = 40;

struct PairShape {
  const char* name;
  size_t rows;
  size_t cols;
};
constexpr PairShape kPairs[] = {{"a", 200, 240}, {"b", 320, 384}};

// The hot set: exact repeats, answered from the cache after the first miss
// of each snapshot version.
const WireOp kHot[] = {
    {"a", false, AlgorithmPreset::kDInf, 0},   {"a", false, AlgorithmPreset::kCsls, 0},
    {"a", false, AlgorithmPreset::kRinfWr, 0}, {"b", false, AlgorithmPreset::kDInf, 0},
    {"b", false, AlgorithmPreset::kCsls, 0},   {"b", false, AlgorithmPreset::kRinfWr, 0},
    {"b", true, AlgorithmPreset::kDInf, 10},   {"a", false, AlgorithmPreset::kRinf, 0}};
constexpr size_t kHotSize = sizeof(kHot) / sizeof(kHot[0]);

// The cold set: top-k of these presets for every k up to kColdMaxK on both
// pairs (288 requests). The cache holds a few dozen of them, so a cold
// request, coming back only after all 287 others, always misses.
const AlgorithmPreset kColdAlgorithms[] = {AlgorithmPreset::kDInf, AlgorithmPreset::kCsls,
                                           AlgorithmPreset::kRinfWr};
constexpr size_t kColdMaxK = 48;

PairVersion MakeVersion(const PairShape& shape, uint64_t seed) {
  PairVersion v;
  v.target = GaussianRows(shape.cols, kDim, seed);
  Matrix head(shape.rows, kDim);
  for (size_t r = 0; r < shape.rows; ++r) {
    std::copy(v.target.Row(r).begin(), v.target.Row(r).end(), head.Row(r).begin());
  }
  v.source = Perturb(head, 0.25, seed + 1);
  return v;
}

class ServeMixed : public Workload {
 public:
  ~ServeMixed() override { StopSwapper(); }

  bool Setup(const RunOptions& options, RunReport* report) override {
    seed_ = options.seed;
    workdir_ = options.workdir;
    for (const PairShape& shape : kPairs) {
      for (AlgorithmPreset algorithm : kColdAlgorithms) {
        for (size_t k = 1; k <= kColdMaxK; ++k) cold_.push_back({shape.name, true, algorithm, k});
      }
    }
    Rng rng(seed_);
    for (size_t i = cold_.size(); i > 1; --i) std::swap(cold_[i - 1], cold_[rng.NextDouble() * i]);
    for (size_t p = 0; p < 2; ++p) {
      versions_[kPairs[p].name][1] = MakeVersion(kPairs[p], seed_ * 1000 + p * 100);
    }
    MatchServerConfig config;
    config.serve_workers = kServeWorkers;
    config.result_cache_bytes = kCacheBytes;
    Result<std::unique_ptr<MatchServer>> server = MatchServer::Create(config);
    if (!server.ok()) return Abort(report, server.status().ToString());
    server_ = std::move(*server);
    for (const PairShape& shape : kPairs) {
      const PairVersion& v = versions_[shape.name][1];
      const Status loaded = server_->LoadPair(shape.name, Matrix(v.source), Matrix(v.target));
      if (!loaded.ok()) return Abort(report, loaded.ToString());
    }
    if (Status st = server_->Start(); !st.ok()) return Abort(report, st.ToString());
    Result<std::unique_ptr<SocketServer>> socket =
        SocketServer::Start(server_.get(), workdir_ + "/serve.sock");
    if (!socket.ok()) return Abort(report, socket.status().ToString());
    socket_ = std::move(*socket);
    for (size_t c = 0; c < kSenders; ++c) {
      Result<ServeClient> client = ServeClient::Connect(socket_->socket_path());
      if (!client.ok()) return Abort(report, client.status().ToString());
      clients_.push_back(std::make_unique<ServeClient>(std::move(*client)));
    }
    // Warm-up: every distinct request once, so no measured request pays a
    // lazy similarity cache or a first-use workspace. The cold set is warmed
    // in the loop's own order, so the entries it leaves in the cache are the
    // ones the loop reaches last, long after they are evicted.
    for (const WireOp& op : kHot) {
      if (!Send(0, op, nullptr)) return Abort(report, "warm-up request failed");
    }
    for (const WireOp& op : cold_) {
      if (!Send(0, op, nullptr)) return Abort(report, "warm-up request failed");
    }
    swapper_ = std::thread([this] { SwapLoop(); });
    return true;
  }

  // p95: under load from other processes on the host, p99 of the closed
  // loop swings about half again as much as p95 and the throughput.
  double TailPercentile() const override { return 95.0; }

  PhaseResult ClosedLoop(double seconds, Tracer* tracer) override {
    const uint64_t base = next_round_base_;
    PhaseResult result = RunClosedLoop(
        kClients, seconds, kRoundSize,
        [&](size_t thread, uint64_t round, size_t index) {
          return Send(thread, OpAt(base + round, index), tracer);
        });
    next_round_base_ += result.attempted / kRoundSize + 1;
    return result;
  }

  void Check(RunReport* report) override {
    StopSwapper();
    ledger_.Check(
        [this](const std::string& pair, uint64_t version) -> const PairVersion* {
          std::lock_guard<std::mutex> lock(versions_mu_);
          auto p = versions_.find(pair);
          if (p == versions_.end()) return nullptr;
          auto v = p->second.find(version);
          return v == p->second.end() ? nullptr : &v->second;
        },
        report);
    const ServerStatsSnapshot stats = server_->Stats();
    if (stats.submitted != stats.admitted + stats.rejected || stats.failed != 0) {
      report->Fail("serve ledger: submitted " + std::to_string(stats.submitted) +
                   " != admitted + rejected, or failed = " + std::to_string(stats.failed));
    }
  }

  void Layers(Tracer* tracer, RunReport* report) override {
    const WireOp probe{"b", false, AlgorithmPreset::kCsls, 0};
    const PairVersion* found = nullptr;
    {
      std::lock_guard<std::mutex> lock(versions_mu_);
      found = &versions_["b"][1];
    }
    const PairVersion& b = *found;
    // The same request on a solo warm engine ...
    {
      Result<MatchEngine> engine = MatchEngine::Create(Matrix(b.source), Matrix(b.target),
                                                       MakePreset(probe.algorithm));
      if (!engine.ok()) return report->Fail("solo engine: " + engine.status().ToString());
      (void)engine->Match();
      report->Set("serve.engine_ms", MedianSpanMs(tracer, "serve.engine", kProbeReps, [&] {
                    return engine->Match().ok();
                  }), "ms");
    }
    // ... through an unloaded MatchServer (cache off, so every query runs) ...
    MatchServerConfig config;
    config.serve_workers = kServeWorkers;
    Result<std::unique_ptr<MatchServer>> made = MatchServer::Create(config);
    if (!made.ok()) return report->Fail("probe server: " + made.status().ToString());
    std::unique_ptr<MatchServer> quiet = std::move(*made);
    if (!quiet->LoadPair("b", Matrix(b.source), Matrix(b.target)).ok() || !quiet->Start().ok()) {
      return report->Fail("probe server failed to start");
    }
    ServeRequest request;
    request.pair = "b";
    request.options = MakePreset(probe.algorithm);
    const double inproc = MedianSpanMs(tracer, "serve.inproc", kProbeReps, [&] {
      return quiet->Query(request).status.ok();
    });
    report->Set("serve.inproc_ms", inproc, "ms");
    // ... and through its own socket.
    {
      Result<std::unique_ptr<SocketServer>> socket =
          SocketServer::Start(quiet.get(), workdir_ + "/probe.sock");
      if (!socket.ok()) return report->Fail("probe socket: " + socket.status().ToString());
      Result<ServeClient> client = ServeClient::Connect((*socket)->socket_path());
      if (!client.ok()) return report->Fail("probe client: " + client.status().ToString());
      report->Set("serve.socket_rtt_ms", MedianSpanMs(tracer, "serve.socket_rtt", kProbeReps, [&] {
                    Result<WireResponse> r = client->Call(probe.ToRequest());
                    return r.ok() && r->status.ok();
                  }), "ms");
      (*socket)->Stop();
    }
    quiet->Shutdown();

    // A paced phase on the workload's own server, swaps running. It is a
    // measurement, not part of the run's operation count (which would make
    // the failed share of a traced run depend on its closed-loop length), so
    // a failed request here fails the run's checks.
    const PhaseResult paced = Paced(tracer);
    if (paced.failed != 0) {
      report->Fail("serve layer: " + std::to_string(paced.failed) + " paced requests failed");
    }
    report->Set("serve.queue_wait_ms", Median(paced.latencies_ms) - inproc, "ms");
    report->Set("serve.generator_late_ms", Quantile(paced.late_ms, 0.99), "ms");

    // The wire codec on the workload's own messages.
    const auto messages = ledger_.SampleMessages();
    if (!messages.empty()) {
      constexpr int kPasses = 50;
      size_t sink = 0;
      for (int pass = 0; pass < kPasses; ++pass) {
        Tracer::Span span(tracer, "serve.protocol");
        for (const auto& [req, resp] : messages) {
          Result<WireRequest> parsed = ParseRequest(req);
          if (parsed.ok()) sink += EncodeRequest(*parsed).size();
          Result<WireResponse> response = ParseResponse(resp);
          if (response.ok()) sink += response->values.size();
        }
      }
      if (sink == 0) report->Fail("protocol codec rejected every message");
      report->Set("serve.protocol_us", tracer->MedianSelfMs("serve.protocol") * 1e3 / messages.size(), "us");
    }

    const ServerStatsSnapshot stats = server_->Stats();
    // Executed queries per scores pass, from the batch-size histogram
    // (bucket i holds batches of i + 1 queries; max_batch fits in it).
    double executed = 0.0;
    for (size_t i = 0; i < stats.batch_size_hist.size(); ++i) {
      executed += static_cast<double>((i + 1) * stats.batch_size_hist[i]);
    }
    report->Set("serve.scores_passes", static_cast<double>(stats.batches), "count");
    report->Set("serve.queries_per_scores_pass", stats.batches ? executed / stats.batches : 0.0, "ratio");
    const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
    report->Set("serve.cache_lookups", lookups, "count");
    report->Set("serve.cache_hit_ratio", lookups > 0 ? stats.cache_hits / lookups : 0.0, "ratio");
    report->Set("serve.max_queue_depth", static_cast<double>(stats.max_queue_depth), "count");
    {
      std::lock_guard<std::mutex> lock(versions_mu_);
      report->Set("serve.swap_ms", Median(swap_ms_), "ms");
      report->Set("serve.swaps", static_cast<double>(swap_ms_.size()), "count");
    }
  }

  void Teardown(RunReport*) override {
    StopSwapper();
    clients_.clear();
    if (socket_) socket_->Stop();
    if (server_) server_->Shutdown();
    RemoveTree(workdir_ + "/serve.sock");
    RemoveTree(workdir_ + "/probe.sock");
  }

 private:
  static bool Abort(RunReport* report, const std::string& why) {
    report->Fail("serve-mixed setup: " + why);
    return false;
  }

  /// The paced open loop: a fixed number of requests at Poisson arrivals,
  /// each timed from when it was due.
  PhaseResult Paced(Tracer* tracer) {
    const std::vector<double> due =
        PoissonSchedule(kPacedRate, kPacedRounds * kRoundSize, seed_ * 31 + next_round_base_);
    const uint64_t base = next_round_base_;
    next_round_base_ += kPacedRounds;
    return RunOpenLoop(kSenders, due, [&](size_t sender, size_t i) {
      return Send(sender, OpAt(base + i / kRoundSize, i % kRoundSize), tracer);
    });
  }

  /// Request `index` of round `round`: every fourth slot takes the next hot
  /// request; the others walk a seeded order of all cold top-k requests, so
  /// a cold request comes back only after every other one was sent.
  WireOp OpAt(uint64_t round, size_t index) const {
    if (index % 4 == 0) return kHot[(index / 4) % kHotSize];
    const uint64_t cold = round * (kRoundSize - kRoundSize / 4) + index - index / 4 - 1;
    return cold_[cold % cold_.size()];
  }

  bool Send(size_t client, const WireOp& op, Tracer* tracer) {
    Tracer::Span span(tracer, "op.serve.request");
    Result<WireResponse> response = clients_[client]->Call(op.ToRequest());
    if (!response.ok() || !response->status.ok()) return false;
    ledger_.Record(op, response->version, response->values);
    return true;
  }


  void SwapLoop() {
    std::unique_lock<std::mutex> lock(swap_mu_);
    for (uint64_t k = 1;; ++k) {
      if (swap_cv_.wait_for(lock, std::chrono::duration<double>(kSwapPeriodS),
                            [this] { return stop_swapper_; })) {
        return;
      }
      PairVersion next = MakeVersion(kPairs[0], seed_ * 1000 + 7 * k + 1);
      const Clock::time_point t0 = Clock::now();
      Result<uint64_t> version = server_->SwapPair("a", Matrix(next.source), Matrix(next.target));
      const double ms = MillisBetween(t0, Clock::now());
      std::lock_guard<std::mutex> guard(versions_mu_);
      if (version.ok()) {
        versions_["a"][*version] = std::move(next);
        swap_ms_.push_back(ms);
      }
    }
  }

  void StopSwapper() {
    {
      std::lock_guard<std::mutex> lock(swap_mu_);
      stop_swapper_ = true;
    }
    swap_cv_.notify_all();
    if (swapper_.joinable()) swapper_.join();
  }

  uint64_t seed_ = 1;
  std::string workdir_;
  uint64_t next_round_base_ = 0;
  std::unique_ptr<MatchServer> server_;
  std::unique_ptr<SocketServer> socket_;
  std::vector<WireOp> cold_;  // seeded order of the cold set
  std::vector<std::unique_ptr<ServeClient>> clients_;
  AnswerLedger ledger_;

  std::mutex versions_mu_;
  std::map<std::string, std::map<uint64_t, PairVersion>> versions_;  // guarded
  std::vector<double> swap_ms_;                                     // guarded

  std::mutex swap_mu_;
  std::condition_variable swap_cv_;
  bool stop_swapper_ = false;  // guarded by swap_mu_
  std::thread swapper_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed() { return std::make_unique<ServeMixed>(); }

}  // namespace perfbench

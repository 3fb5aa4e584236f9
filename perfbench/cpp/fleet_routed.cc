// fleet-routed: routed match and top-k traffic through an in-process Router
// to two real entmatcher_cli shard processes (fork/exec via ShardManager),
// each with one serve worker and one kernel thread. Scatter, the per-shard
// round trip, the merge and the wire encoding of large values responses
// (top-k with scores) show here and nowhere else; so does each shard
// computing the whole pair before slicing out its rows.
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <iostream>
#include <thread>

#include "fleet/merge.h"
#include "fleet/plan.h"
#include "fleet/router.h"
#include "fleet/shard_manager.h"
#include "la/matrix_io.h"
#include "serve/client.h"
#include "stats.h"
#include "wire_mix.h"
#include "workloads.h"

namespace perfbench {

namespace {
constexpr int kMaxChildren = 8;
// pidfd + 1 of each running shard (0 = empty slot). A pidfd names one
// process, so the signal handler can never signal a pid that the kernel
// handed out again after the manager's reaper or StopAll reaped the shard.
std::atomic<int> g_children[kMaxChildren];
}  // namespace

void RegisterChild(int slot, int pid) {
  if (slot < 0 || slot >= kMaxChildren) return;
  int fd = pid > 0 ? static_cast<int>(::syscall(SYS_pidfd_open, pid, 0)) : -1;
  // Keep the pidfd only while `pid` is still an unreaped child of ours.
  siginfo_t info;
  if (fd >= 0 && ::waitid(P_PIDFD, fd, &info, WEXITED | WNOHANG | WNOWAIT) != 0) {
    ::close(fd);
    fd = -1;
  }
  const int old = g_children[slot].exchange(fd + 1) - 1;
  if (old >= 0) ::close(old);
}

void KillRegisteredChildren() {
  for (auto& child : g_children) {
    const int fd = child.exchange(0) - 1;
    if (fd < 0) continue;
    // Both calls fail harmlessly (ESRCH, ECHILD) for a shard already reaped.
    ::syscall(SYS_pidfd_send_signal, fd, SIGKILL, nullptr, 0);
    siginfo_t info;
    ::waitid(P_PIDFD, fd, &info, WEXITED);
    ::close(fd);
  }
}

namespace {

using namespace entmatcher;

constexpr int kShards = 2;
constexpr size_t kClients = 2;
constexpr size_t kSenders = 4;
constexpr size_t kRows = 640;
constexpr size_t kCols = 768;
constexpr size_t kDim = 32;
constexpr double kPacedRate = 50.0;  // requests per second, open loop
constexpr size_t kPacedRounds = 38;  // 304 paced requests: p95 has 15 beyond
constexpr int kProbeReps = 30;
constexpr size_t kTopK = 32;

const WireOp kRound[] = {
    {"p", false, AlgorithmPreset::kDInf, 0},   {"p", true, AlgorithmPreset::kDInf, kTopK},
    {"p", false, AlgorithmPreset::kCsls, 0},   {"p", true, AlgorithmPreset::kCsls, kTopK},
    {"p", false, AlgorithmPreset::kRinfWr, 0}, {"p", true, AlgorithmPreset::kDInf, 8},
    {"p", false, AlgorithmPreset::kDInf, 0},   {"p", true, AlgorithmPreset::kCsls, 8}};
constexpr size_t kRoundSize = sizeof(kRound) / sizeof(kRound[0]);

/// entmatcher_cli is built next to this binary.
std::string ShardBinary() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0) return "";
  const std::string self(buf, static_cast<size_t>(len));
  return self.substr(0, self.rfind('/')) + "/entmatcher_cli";
}

class FleetRouted : public Workload {
 public:
  ~FleetRouted() override { Stop(nullptr); }

  bool Setup(const RunOptions& options, RunReport* report) override {
    seed_ = options.seed;
    workdir_ = options.workdir;
    pair_.target = GaussianRows(kCols, kDim, seed_ * 1000 + 500);
    Matrix head(kRows, kDim);
    for (size_t r = 0; r < kRows; ++r) {
      std::copy(pair_.target.Row(r).begin(), pair_.target.Row(r).end(), head.Row(r).begin());
    }
    pair_.source = Perturb(head, 0.25, seed_ * 1000 + 501);
    const std::string src = workdir_ + "/src.emat";
    const std::string tgt = workdir_ + "/tgt.emat";
    if (!WriteMatrixBinary(pair_.source, src).ok() || !WriteMatrixBinary(pair_.target, tgt).ok()) {
      return Abort(report, "cannot write the pair under " + workdir_);
    }
    Result<ShardPlan> plan = ShardPlan::EvenSplit("p", src, tgt, "", kRows, kShards, workdir_);
    if (!plan.ok()) return Abort(report, plan.status().ToString());
    plan_ = *plan;
    const std::string plan_path = workdir_ + "/plan.json";
    if (!plan_.Save(plan_path).ok()) return Abort(report, "cannot save the plan");
    const std::string cli = ShardBinary();
    if (::access(cli.c_str(), X_OK) != 0) return Abort(report, "no shard binary at " + cli);
    ShardCommand command = ShardCommand::SelfServe(plan_path, cli);
    command.argv.push_back("--serve-workers=1");
    command.argv.push_back("--threads=1");
    manager_ = std::make_unique<ShardManager>();
    if (Status st = manager_->Start(plan_, command); !st.ok()) return Abort(report, st.ToString());
    int slot = 0;
    for (const ShardProcessStatus& s : manager_->Status_()) RegisterChild(slot++, s.pid);
    if (Status st = WaitReady(); !st.ok()) return Abort(report, st.ToString());
    Result<std::unique_ptr<Router>> router = Router::Create(plan_, RouterConfig());
    if (!router.ok()) return Abort(report, router.status().ToString());
    router_ = std::move(*router);
    for (const WireOp& op : kRound) {
      if (!Send(op, nullptr)) return Abort(report, "warm-up request failed");
    }
    return true;
  }

  double TailPercentile() const override { return 95.0; }

  PhaseResult ClosedLoop(double seconds, Tracer* tracer) override {
    return RunClosedLoop(kClients, seconds, kRoundSize,
                         [&](size_t, uint64_t, size_t index) {
                           return Send(kRound[index], tracer);
                         });
  }

  double OpenLoopSeconds() const override { return kPacedRounds * kRoundSize / kPacedRate; }

  PhaseResult OpenLoop(Tracer* tracer) override {
    const size_t rounds = kPacedRounds;
    const std::vector<double> due = PoissonSchedule(kPacedRate, rounds * kRoundSize, seed_ * 37 + paced_phases_++);
    return RunOpenLoop(kSenders, due, [&](size_t, size_t i) {
      return Send(kRound[i % kRoundSize], tracer);
    });
  }

  double PeakMemoryMb() override {
    double mb = PeakRssMb();
    if (manager_) {
      for (const ShardProcessStatus& s : manager_->Status_()) {
        if (s.running) mb += ChildPeakRssMb(s.pid);
      }
    }
    return mb;
  }

  void Check(RunReport* report) override {
    ledger_.Check(
        [this](const std::string& pair, uint64_t version) -> const PairVersion* {
          return pair == "p" && version == 1 ? &pair_ : nullptr;
        },
        report);
    const RouterStatsSnapshot stats = router_->Stats();
    const uint64_t sent = sent_.load();
    if (stats.queries != sent || stats.queries != stats.ok + stats.failed + stats.degraded ||
        stats.version_mismatches != 0) {
      report->Fail("router ledger: queries " + std::to_string(stats.queries) + ", sent " +
                   std::to_string(sent) + ", ok " + std::to_string(stats.ok) + ", failed " +
                   std::to_string(stats.failed) + ", degraded " + std::to_string(stats.degraded) +
                   ", mixed-version merges " + std::to_string(stats.version_mismatches));
    }
  }

  void Layers(Tracer* tracer, RunReport* report) override {
    const WireOp probe{"p", false, AlgorithmPreset::kCsls, 0};
    const RangeSpec& range = plan_.pairs[0].ranges[0];
    const double router_ms = MedianSpanMs(tracer, "fleet.router", kProbeReps, [&] { return Send(probe, nullptr); });
    Result<ServeClient> shard = ServeClient::Connect(plan_.shards[0].socket_path);
    if (!shard.ok()) return report->Fail("shard client: " + shard.status().ToString());
    WireRequest routed = probe.ToRequest();
    routed.route = true;
    routed.row_begin = range.begin;
    routed.row_end = range.end;
    const double range_ms = MedianSpanMs(tracer, "fleet.shard_range", kProbeReps, [&] {
      Result<WireResponse> r = shard->Call(routed);
      return r.ok() && r->status.ok();
    });
    const double full_ms = MedianSpanMs(tracer, "fleet.shard_full", kProbeReps, [&] {
      Result<WireResponse> r = shard->Call(probe.ToRequest());
      return r.ok() && r->status.ok();
    });
    report->Set("fleet.router_ms", router_ms, "ms");
    report->Set("fleet.shard_range_ms", range_ms, "ms");
    report->Set("fleet.shard_full_ms", full_ms, "ms");
    report->Set("fleet.scatter_merge_ms", router_ms - range_ms, "ms");

    // Collect one routed top-k answer per range straight from its shard,
    // then time the router's merge on those parts.
    std::vector<RangePart> topk_parts, match_parts;
    double bytes = 0.0;
    for (const RangeSpec& r : plan_.pairs[0].ranges) {
      Result<ServeClient> client = ServeClient::Connect(plan_.FindShard(r.shards[0])->socket_path);
      if (!client.ok()) return report->Fail("shard client: " + client.status().ToString());
      for (bool topk : {true, false}) {
        WireOp op = topk ? WireOp{"p", true, AlgorithmPreset::kCsls, kTopK} : probe;
        WireRequest sub = op.ToRequest();
        sub.route = true;
        sub.row_begin = r.begin;
        sub.row_end = r.end;
        Result<WireResponse> answer = client->Call(sub);
        if (!answer.ok() || !answer->status.ok()) return report->Fail("routed sub-query failed");
        RangePart part{r.begin, r.end, answer->version, answer->values, answer->scores};
        if (topk) {
          bytes += static_cast<double>(EncodeValuesResponse(answer->values, answer->version, true,
                                                            r.begin, r.end, answer->scores)
                                           .size());
          topk_parts.push_back(std::move(part));
        } else {
          match_parts.push_back(std::move(part));
        }
      }
    }
    report->Set("fleet.response_bytes", bytes, "bytes");
    for (int rep = 0; rep < 200; ++rep) {
      {
        Tracer::Span span(tracer, "fleet.merge_topk");
        if (!MergeTopK(kRows, topk_parts).ok()) return report->Fail("MergeTopK refused the parts");
      }
      Tracer::Span span(tracer, "fleet.merge_assignments");
      if (!MergeAssignments(kRows, match_parts).ok()) return report->Fail("MergeAssignments refused the parts");
    }
    report->Set("fleet.merge_us", tracer->MedianSelfMs("fleet.merge_topk") * 1e3, "us");
    report->Set("fleet.merge_assignments_us", tracer->MedianSelfMs("fleet.merge_assignments") * 1e3, "us");

    const RouterStatsSnapshot stats = router_->Stats();
    report->Set("fleet.queries", static_cast<double>(stats.queries), "count");
    report->Set("fleet.subqueries_per_query",
                stats.queries ? static_cast<double>(stats.subqueries) / stats.queries : 0.0, "ratio");
  }

  void Teardown(RunReport* report) override { Stop(report); }

 private:
  static bool Abort(RunReport* report, const std::string& why) {
    report->Fail("fleet-routed setup: " + why);
    return false;
  }

  /// Waits until every shard answers `health`. ShardManager::WaitHealthy
  /// polls every 25 ms, which would quantize setup_s; this polls every 1 ms.
  Status WaitReady() {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    WireRequest health;
    health.verb = WireRequest::Verb::kHealth;
    for (const ShardSpec& shard : plan_.shards) {
      for (;;) {
        Result<ServeClient> client = ServeClient::Connect(shard.socket_path);
        if (client.ok()) {
          Result<WireResponse> answer = client->Call(health);
          if (answer.ok() && answer->status.ok()) break;
        }
        for (const ShardProcessStatus& s : manager_->Status_()) {
          if (!s.running) return Status::Internal("shard " + std::to_string(s.shard_id) + " exited during start");
        }
        if (Clock::now() > deadline) return Status::DeadlineExceeded("shards did not become healthy");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return Status::OK();
  }

  bool Send(const WireOp& op, Tracer* tracer) {
    Tracer::Span span(tracer, "op.fleet.query");
    sent_.fetch_add(1);
    Result<WireResponse> response = router_->Query(op.ToRequest());
    if (!response.ok() || !response->status.ok() || !response->coverage.empty()) return false;
    ledger_.Record(op, response->version, response->values);
    return true;
  }


  /// Stops the router and every shard; a shard that survives StopAll fails
  /// the run. Safe to call more than once.
  void Stop(RunReport* report) {
    router_.reset();
    if (!manager_) return;
    manager_->StopAll();
    // StopAll reaps every shard it stops, so one still marked running
    // survived it. A pidfd reaches only a process that still exists, so the
    // reaped shards are not signalled.
    bool survivor = false;
    for (const ShardProcessStatus& s : manager_->Status_()) {
      if (!s.running) continue;
      survivor = true;
      if (report != nullptr) report->Fail("shard " + std::to_string(s.shard_id) + " survived StopAll");
    }
    if (survivor) KillRegisteredChildren();
    manager_.reset();
    for (int slot = 0; slot < kMaxChildren; ++slot) RegisterChild(slot, 0);
    RemoveTree(workdir_ + "/src.emat");
    RemoveTree(workdir_ + "/tgt.emat");
    RemoveTree(workdir_ + "/plan.json");
    for (const ShardSpec& s : plan_.shards) RemoveTree(s.socket_path);
  }

  uint64_t seed_ = 1;
  std::string workdir_;
  PairVersion pair_;
  ShardPlan plan_;
  std::unique_ptr<ShardManager> manager_;
  std::unique_ptr<Router> router_;
  AnswerLedger ledger_;
  std::atomic<uint64_t> sent_{0};
  uint64_t paced_phases_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetRouted() { return std::make_unique<FleetRouted>(); }

}  // namespace perfbench

/// \file harness.h
/// \brief Shared machinery of vr-bench: arguments, per-run directories,
/// operation accounting, latency summaries, the span recorder and the
/// loopback server stack every workload drives.
///
/// The benchmark drives vretrieve only through its public APIs. Spans are
/// recorded in this benchmark's own code around calls into each module;
/// nothing inside the library is instrumented.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "retrieval/engine.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "util/mutex.h"

namespace vrbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
int64_t NowNs();
double SecondsSince(Clock::time_point start);

/// Client threads and connections of the closed loops: one per core of
/// the 4-core box the reference figures come from.
inline constexpr size_t kClients = 4;
/// Results requested per query; precision_at_20 reads all of them.
inline constexpr size_t kTopK = 20;
/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 3;
/// Warm reopens per run: at least kReopens, and more until
/// kReopenSeconds have passed, so a ~20 ms reopen gets ~50 samples
/// rather than 9; reopen_s reports their median.
inline constexpr int kReopens = 9;
inline constexpr double kReopenSeconds = 1.0;
/// Untimed closed loop before a timed one: server threads, connections
/// and allocator arenas settle, so the first tail window is not a
/// start-up window. Its replies are checked like the timed ones.
inline constexpr double kWarmupSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  /// Seconds-scale mode: smaller corpora, every check kept.
  bool smoke = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  /// Reference-figure knobs (README): open-loop offered rate for
  /// cold_query (0 = the closed loop), two-stage on/off for
  /// archive_by_id, pipeline workers for ingest_with_queries.
  double rate = 0.0;
  bool two_stage = true;
  size_t workers = kClients;
};

/// Prints "vr-bench: FAIL: <msg>" to stderr, removes every registered
/// run directory and exits 1 without printing a result.
[[noreturn]] void Fail(const std::string& msg);
/// Fail() unless \p status is OK.
void Check(const vr::Status& status, const std::string& what);
template <typename T>
T Take(vr::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(*result);
}

/// A fresh mkdtemp directory under the run's work directory, removed on
/// destruction and by Fail().
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Bytes of every regular file under \p dir.
uint64_t DirBytes(const std::string& dir);
/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Per-operation-type counts: attempted and failed.
class Ops {
 public:
  void Record(const std::string& type, bool failed);
  uint64_t attempted() const;
  uint64_t failed() const;
  /// {"type": {"attempted": n, "failed": m}, ...}
  std::string ToJson() const;

 private:
  mutable vr::Mutex mutex_{vr::LockLevel::kLeaf, "vrbench_ops"};
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts_
      GUARDED_BY(mutex_);
};

/// "query.<StatusCode>"; kUnavailable, kDeadlineExceeded and
/// kPartialResult count as failed, like any other non-OK code.
void RecordQuery(Ops* ops, const vr::Status& rpc, const vr::Status& status);

/// Median and the highest percentile with at least ten samples beyond
/// it (capped at p99), over latencies in ms.
struct Latency {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
Latency Summarize(std::vector<double> ms);

/// Queries per tail window of WindowTails.
inline constexpr size_t kTailWindow = 1000;
/// Tails of windows of kTailWindow replies in completion order: from
/// 2 * kTailWindow replies on, an odd number of evenly spaced windows
/// that overlap their neighbours by about half and span the run (below
/// that, one window of every reply). Each window's tail is its highest
/// percentile with at least ten samples beyond (capped at p99).
/// query_p99_ms is their median, so a host stall that hits a few
/// windows moves those windows' tails, not the run's.
std::vector<double> WindowTails(const std::vector<double>& latency_ms,
                                const std::vector<int64_t>& done_ns);
double Median(std::vector<double> values);

/// \name Span recorder.
/// One buffer per thread; spans nest through the buffer's open stack.
/// @{
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same buffer, -1 for a root
  uint64_t query_id = 0;
};

class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int32_t Begin(const char* name, uint64_t query_id);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name, uint64_t query_id)
      : buffer_(buffer),
        id_(buffer != nullptr && buffer->enabled()
                ? buffer->Begin(name, query_id)
                : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  int32_t id_;
};

/// Per span name: count, durations and self times (duration minus the
/// part its child spans cover), all in ms.
struct SpanStats {
  size_t count = 0;
  std::vector<double> duration_ms;
  double self_ms = 0.0;
};
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const TraceBuffer*>& buffers);
/// Self time per module (the span-name prefix before the first '.').
std::map<std::string, double> ModuleSelfMs(
    const std::map<std::string, SpanStats>& spans);
/// @}

/// Metrics of one run, printed in the final JSON line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  /// One "<label> <name> <value> <unit>" line per metric.
  void Print(const char* label) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Engine + RetrievalService + VrServer on an ephemeral loopback port.
class ServerStack {
 public:
  static std::unique_ptr<ServerStack> Start(const std::string& dir,
                                            const vr::EngineOptions& options);
  /// Adopts an already-open engine.
  static std::unique_ptr<ServerStack> Serve(
      std::unique_ptr<vr::RetrievalEngine> engine);
  ~ServerStack();
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  vr::RetrievalEngine* engine() { return engine_.get(); }
  uint16_t port() const { return server_->port(); }
  /// Stops the server and the service; the engine stays open.
  void StopServing();
  /// StopServing(), then hands the engine to the caller.
  std::unique_ptr<vr::RetrievalEngine> Release();

 private:
  ServerStack() = default;
  std::unique_ptr<vr::RetrievalEngine> engine_;
  std::unique_ptr<vr::RetrievalService> service_;
  std::unique_ptr<vr::VrServer> server_;
};

/// One connection per client thread. Retries and the circuit breaker
/// are off, so every failed RPC is counted instead of hidden.
std::vector<std::unique_ptr<vr::VrClient>> ConnectClients(uint16_t port,
                                                          size_t n);

/// One hit of a response, kept for the post-run oracles.
struct Hit {
  int64_t i_id = 0;
  int64_t v_id = 0;
  double score = 0.0;
};
struct Reply {
  uint32_t query = 0;  ///< index into the workload's query table
  std::vector<Hit> hits;
};

/// Sends query \p query over \p client.
using SendFn = std::function<vr::Result<vr::ServiceResponse>(
    vr::VrClient* client, uint32_t query)>;
/// Encodes the request of query \p query (the service.encode probe);
/// returns the payload size in bytes.
using EncodeFn = std::function<size_t(uint32_t query)>;
/// Picks the next query of client \p client (its seq-th request).
using PickFn = std::function<uint32_t(size_t client, uint64_t seq)>;

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<int64_t> done_ns;  ///< completion time of each latency_ms entry
  std::vector<Reply> replies;
  /// Open loop: how late each send left against its schedule. Closed
  /// loop: the client's turnaround between a reply and its next send.
  std::vector<double> lag_ms;
  std::vector<size_t> request_bytes;
  double elapsed_s = 0.0;
  std::vector<std::unique_ptr<TraceBuffer>> traces;
};

/// Closed loop: each client sends its next query when the previous one
/// returns, until \p seconds have passed.
LoopResult RunClosedLoop(std::vector<std::unique_ptr<vr::VrClient>>& clients,
                         double seconds, const PickFn& pick,
                         const SendFn& send, const EncodeFn& encode,
                         bool trace, Ops* ops);

/// Open loop: query i is due at schedule_s[i] after the start whatever
/// happened to earlier ones, on the next client that is free (at most
/// clients.size() in flight); latency runs from when it was due. A query that falls due once
/// \p stop returns true is not sent (an empty \p stop never stops).
LoopResult RunOpenLoop(std::vector<std::unique_ptr<vr::VrClient>>& clients,
                       const std::vector<double>& schedule_s,
                       const PickFn& pick, const SendFn& send,
                       const EncodeFn& encode, bool trace, Ops* ops,
                       const std::function<bool()>& stop = {});

/// Arrival times of a Poisson process of \p rate per second conditioned
/// on exactly rate * seconds arrivals in [0, seconds): sorted uniform
/// draws, so every seed offers the same load.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    uint64_t seed);

/// A stats RPC, counted as "stats_rpc".
vr::ServiceStatsSnapshot FetchStats(vr::VrClient* client, Ops* ops);

/// The run stamp: CPU count, ISA, build type, compiler, git sha, seed.
std::string StampJson(const Args& args);

}  // namespace vrbench

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "service/wire.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread.h"

namespace vrbench {

namespace {

vr::Mutex& DirRegistryMutex() {
  static vr::Mutex mutex{vr::LockLevel::kLeaf, "vrbench_dirs"};
  return mutex;
}
std::vector<std::string>& DirRegistry() {
  static std::vector<std::string> dirs;
  return dirs;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Nearest-rank percentile of a sorted sample.
double SortedPercentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Fail(const std::string& msg) {
  std::fprintf(stderr, "vr-bench: FAIL: %s\n", msg.c_str());
  std::vector<std::string> dirs;
  {
    vr::MutexLock lock(DirRegistryMutex());
    dirs = DirRegistry();
  }
  for (const std::string& dir : dirs) vr::RemoveDirRecursive(dir);
  std::fflush(stdout);
  std::fflush(stderr);
  // Server and client threads may still run; _Exit skips destructors
  // that would join or tear them down mid-request.
  std::_Exit(1);
}

void Check(const vr::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

TempDir::TempDir(const std::string& parent, const std::string& prefix) {
  std::string tmpl = parent + "/" + prefix + ".XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) Fail("mkdtemp under " + parent);
  path_ = buf.data();
  vr::MutexLock lock(DirRegistryMutex());
  DirRegistry().push_back(path_);
}

TempDir::~TempDir() {
  vr::RemoveDirRecursive(path_);
  vr::MutexLock lock(DirRegistryMutex());
  auto& dirs = DirRegistry();
  dirs.erase(std::remove(dirs.begin(), dirs.end(), path_), dirs.end());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Ops::Record(const std::string& type, bool failed) {
  vr::MutexLock lock(mutex_);
  auto& entry = counts_[type];
  ++entry.first;
  if (failed) ++entry.second;
}

uint64_t Ops::attempted() const {
  vr::MutexLock lock(mutex_);
  uint64_t n = 0;
  for (const auto& [type, c] : counts_) n += c.first;
  return n;
}

uint64_t Ops::failed() const {
  vr::MutexLock lock(mutex_);
  uint64_t n = 0;
  for (const auto& [type, c] : counts_) n += c.second;
  return n;
}

std::string Ops::ToJson() const {
  vr::MutexLock lock(mutex_);
  std::string out = "{";
  for (const auto& [type, c] : counts_) {
    if (out.size() > 1) out += ", ";
    out += vr::StringPrintf("%s: {\"attempted\": %llu, \"failed\": %llu}",
                            JsonString(type).c_str(),
                            static_cast<unsigned long long>(c.first),
                            static_cast<unsigned long long>(c.second));
  }
  return out + "}";
}

void RecordQuery(Ops* ops, const vr::Status& rpc, const vr::Status& status) {
  if (!rpc.ok()) {
    ops->Record("query.rpc_error", true);
    return;
  }
  ops->Record(std::string("query.") + vr::StatusCodeName(status.code()),
              !status.ok());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Latency Summarize(std::vector<double> ms) {
  Latency out;
  out.n = ms.size();
  if (ms.empty()) return out;
  std::sort(ms.begin(), ms.end());
  out.p50 = SortedPercentile(ms, 50.0);
  if (ms.size() < 40) {
    // Too few samples for a tail: report the median alone.
    out.tail = out.p50;
    out.tail_pct = 50.0;
    return out;
  }
  out.tail_pct =
      std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(ms.size())));
  out.tail = SortedPercentile(ms, out.tail_pct);
  return out;
}

std::vector<double> WindowTails(const std::vector<double>& latency_ms,
                                const std::vector<int64_t>& done_ns) {
  std::vector<size_t> order(latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return done_ns[a] < done_ns[b]; });
  const size_t n = order.size();
  if (n < 2 * kTailWindow) return {Summarize(latency_ms).tail};
  // An odd number of evenly spaced windows, each overlapping the next by
  // about half, from the first reply to the last.
  const size_t windows = 2 * (n / kTailWindow) - 1;
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * (n - kTailWindow) / (windows - 1);
    const size_t end = begin + kTailWindow;
    std::vector<double> window;
    for (size_t i = begin; i < end; ++i) window.push_back(latency_ms[order[i]]);
    tails.push_back(Summarize(std::move(window)).tail);
  }
  return tails;
}

int32_t TraceBuffer::Begin(const char* name, uint64_t query_id) {
  Span span;
  span.name = name;
  span.query_id = query_id;
  span.parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  open_.push_back(id);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return id;
}

void TraceBuffer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const TraceBuffer*>& buffers) {
  std::map<std::string, SpanStats> out;
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ms[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      SpanStats& stats = out[spans[i].name];
      ++stats.count;
      stats.duration_ms.push_back(dur);
      stats.self_ms += dur - child_ms[i];
    }
  }
  return out;
}

std::map<std::string, double> ModuleSelfMs(
    const std::map<std::string, SpanStats>& spans) {
  std::map<std::string, double> out;
  for (const auto& [name, stats] : spans) {
    out[name.substr(0, name.find('.'))] += stats.self_ms;
  }
  return out;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail(vr::StringPrintf("metric %s is not finite", name.c_str()));
  }
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (const auto& [name, v] : values_) {
    if (out.size() > 1) out += ", ";
    out += vr::StringPrintf("%s: {\"value\": %.17g, \"unit\": %s}",
                            JsonString(name).c_str(), v.first,
                            JsonString(v.second).c_str());
  }
  return out + "}";
}

void Metrics::Print(const char* label) const {
  for (const auto& [name, v] : values_) {
    std::printf("%-8s %-34s %16.6f %s\n", label, name.c_str(), v.first,
                v.second.c_str());
  }
}

std::unique_ptr<ServerStack> ServerStack::Start(
    const std::string& dir, const vr::EngineOptions& options) {
  return Serve(Take(vr::RetrievalEngine::Open(dir, options), "engine open"));
}

std::unique_ptr<ServerStack> ServerStack::Serve(
    std::unique_ptr<vr::RetrievalEngine> engine) {
  std::unique_ptr<ServerStack> stack(new ServerStack());
  stack->engine_ = std::move(engine);
  vr::ServiceOptions service_options;
  service_options.num_workers = kClients;
  stack->service_ = std::make_unique<vr::RetrievalService>(
      stack->engine_.get(), service_options);
  vr::ServerOptions server_options;
  server_options.port = 0;  // ephemeral: runs never collide on a port
  // Clients sit idle through set-up and oracle phases; never evict them.
  server_options.read_deadline_ms = 0;
  stack->server_ = Take(
      vr::VrServer::Start(stack->service_.get(), server_options), "server");
  return stack;
}

ServerStack::~ServerStack() {
  StopServing();
  engine_.reset();
}

void ServerStack::StopServing() {
  if (server_ != nullptr) server_->Stop();
  if (service_ != nullptr) service_->Shutdown();
}

std::unique_ptr<vr::RetrievalEngine> ServerStack::Release() {
  StopServing();
  server_.reset();
  service_.reset();
  return std::move(engine_);
}

std::vector<std::unique_ptr<vr::VrClient>> ConnectClients(uint16_t port,
                                                          size_t n) {
  vr::ClientOptions options;
  options.rpc_timeout_ms = 60000;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 0;
  std::vector<std::unique_ptr<vr::VrClient>> clients;
  for (size_t i = 0; i < n; ++i) {
    clients.push_back(
        Take(vr::VrClient::Connect("127.0.0.1", port, options), "connect"));
  }
  return clients;
}

namespace {

/// One request with its spans: encode probe, the RPC, decode probe.
void SendOne(vr::VrClient* client, uint32_t q, uint64_t qid,
              const SendFn& send, const EncodeFn& encode, TraceBuffer* trace,
              Ops* ops, LoopResult* out, int64_t* sent_ns, int64_t* done_ns) {
  ScopedSpan root(trace, "query", qid);
  if (trace->enabled()) {
    ScopedSpan span(trace, "service.encode", qid);
    out->request_bytes.push_back(encode(q));
  }
  *sent_ns = NowNs();
  vr::Result<vr::ServiceResponse> response = [&] {
    ScopedSpan span(trace, "service.rpc", qid);
    return send(client, q);
  }();
  *done_ns = NowNs();
  RecordQuery(ops, response.status(),
              response.ok() ? response->status : vr::Status::OK());
  if (!response.ok() || !response->status.ok()) return;
  Reply reply;
  reply.query = q;
  reply.hits.reserve(response->results.size());
  for (const vr::QueryResult& r : response->results) {
    reply.hits.push_back(Hit{r.i_id, r.v_id, r.score});
  }
  out->replies.push_back(std::move(reply));
  if (trace->enabled()) {
    const std::vector<uint8_t> payload = vr::EncodeQueryResponse(*response);
    ScopedSpan span(trace, "service.decode", qid);
    Check(vr::DecodeQueryResponse(payload).status(), "decode probe");
  }
}

void Merge(std::vector<LoopResult>& parts, LoopResult* out) {
  for (LoopResult& part : parts) {
    out->latency_ms.insert(out->latency_ms.end(), part.latency_ms.begin(),
                           part.latency_ms.end());
    out->done_ns.insert(out->done_ns.end(), part.done_ns.begin(),
                        part.done_ns.end());
    out->lag_ms.insert(out->lag_ms.end(), part.lag_ms.begin(),
                       part.lag_ms.end());
    out->request_bytes.insert(out->request_bytes.end(),
                              part.request_bytes.begin(),
                              part.request_bytes.end());
    for (Reply& r : part.replies) out->replies.push_back(std::move(r));
    for (auto& t : part.traces) out->traces.push_back(std::move(t));
  }
}

}  // namespace

LoopResult RunClosedLoop(std::vector<std::unique_ptr<vr::VrClient>>& clients,
                         double seconds, const PickFn& pick,
                         const SendFn& send, const EncodeFn& encode,
                         bool trace, Ops* ops) {
  std::vector<LoopResult> parts(clients.size());
  for (LoopResult& part : parts) {
    part.traces.push_back(std::make_unique<TraceBuffer>(trace));
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<vr::Thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        LoopResult& part = parts[c];
        int64_t last_done = -1;
        for (uint64_t seq = 0; Clock::now() < deadline; ++seq) {
          const uint64_t qid = (static_cast<uint64_t>(c) << 48) | seq;
          int64_t sent = 0;
          int64_t done = 0;
          SendOne(clients[c].get(), pick(c, seq), qid, send, encode,
                   part.traces[0].get(), ops, &part, &sent, &done);
          part.latency_ms.push_back(static_cast<double>(done - sent) / 1e6);
          part.done_ns.push_back(done);
          if (last_done >= 0) {
            part.lag_ms.push_back(static_cast<double>(sent - last_done) / 1e6);
          }
          last_done = done;
        }
      });
    }
    for (vr::Thread& t : threads) t.join();
  }
  LoopResult out;
  out.elapsed_s = SecondsSince(start);
  Merge(parts, &out);
  return out;
}

LoopResult RunOpenLoop(std::vector<std::unique_ptr<vr::VrClient>>& clients,
                       const std::vector<double>& schedule_s,
                       const PickFn& pick, const SendFn& send,
                       const EncodeFn& encode, bool trace, Ops* ops,
                       const std::function<bool()>& stop) {
  std::vector<LoopResult> parts(clients.size());
  for (LoopResult& part : parts) {
    part.traces.push_back(std::make_unique<TraceBuffer>(trace));
  }
  const Clock::time_point start = Clock::now();
  const int64_t start_ns = NowNs();
  std::atomic<int64_t> last_done_ns{start_ns};
  {
    std::vector<vr::Thread> threads;
    std::atomic<size_t> next{0};
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        LoopResult& part = parts[c];
        for (size_t i = next++; i < schedule_s.size(); i = next++) {
          const auto offset = std::chrono::nanoseconds(
              static_cast<int64_t>(schedule_s[i] * 1e9));
          const int64_t due_ns = start_ns + offset.count();
          std::this_thread::sleep_until(start + offset);
          if (stop && stop()) break;
          int64_t sent = 0;
          int64_t done = 0;
          SendOne(clients[c].get(), pick(c, i), i, send, encode,
                   part.traces[0].get(), ops, &part, &sent, &done);
          int64_t seen = last_done_ns.load();
          while (done > seen && !last_done_ns.compare_exchange_weak(seen, done)) {
          }
          part.latency_ms.push_back(static_cast<double>(done - due_ns) / 1e6);
          part.done_ns.push_back(done);
          part.lag_ms.push_back(
              static_cast<double>(std::max<int64_t>(0, sent - due_ns)) / 1e6);
        }
      });
    }
    for (vr::Thread& t : threads) t.join();
  }
  LoopResult out;
  // Up to the last reply: a stopped loop does not count its idle tail.
  out.elapsed_s = static_cast<double>(last_done_ns.load() - start_ns) / 1e9;
  Merge(parts, &out);
  return out;
}

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    uint64_t seed) {
  const size_t n = static_cast<size_t>(std::llround(rate * seconds));
  vr::Rng rng(seed);
  std::vector<double> times(n);
  for (double& t : times) t = rng.UniformDouble(0.0, seconds);
  std::sort(times.begin(), times.end());
  return times;
}

vr::ServiceStatsSnapshot FetchStats(vr::VrClient* client, Ops* ops) {
  vr::Result<vr::ServiceStatsSnapshot> stats = client->GetStats();
  ops->Record("stats_rpc", !stats.ok());
  return Take(std::move(stats), "stats RPC");
}

std::string StampJson(const Args& args) {
  __builtin_cpu_init();
  std::string isa;
  if (__builtin_cpu_supports("avx2")) isa += "avx2";
  if (__builtin_cpu_supports("avx512f")) isa += isa.empty() ? "avx512f" : ",avx512f";
  if (isa.empty()) isa = "none";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return vr::StringPrintf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
      "\"smoke\": %s, \"cpus\": %u, \"isa\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"git_sha\": %s, \"source_digest\": %s}",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.smoke ? "true" : "false",
      vr::Thread::HardwareConcurrency(), JsonString(isa).c_str(),
      JsonString(VRBENCH_BUILD_TYPE).c_str(), JsonString(compiler).c_str(),
      JsonString(args.git_sha).c_str(),
      JsonString(args.source_digest).c_str());
}

}  // namespace vrbench

#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "features/extractor_registry.h"
#include "index/range_finder.h"
#include "similarity/code_kernels.h"
#include "util/string_util.h"
#include "video/video_reader.h"

namespace vrbench {

namespace {

double ElapsedMs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// An all-absent column has no values; BatchDistance never reads it.
constexpr double kEmptyColumn = 0.0;

}  // namespace

std::array<std::unique_ptr<vr::FeatureExtractor>, vr::kNumFeatureKinds>
MakeExtractors(const std::vector<vr::FeatureKind>& kinds) {
  std::array<std::unique_ptr<vr::FeatureExtractor>, vr::kNumFeatureKinds> out;
  for (vr::FeatureKind kind : kinds) {
    out[static_cast<size_t>(kind)] = vr::MakeExtractor(kind);
  }
  return out;
}

Extracted ProbeExtract(vr::ExtractionPlan* plan, const vr::Image& image,
                       uint64_t qid, TraceBuffer* trace,
                       LayerSamples* samples) {
  Extracted out;
  vr::ExtractionPlan::FrameTimings timings;
  int64_t start = NowNs();
  {
    ScopedSpan span(trace, "features.bank", qid);
    out.features = Take(plan->ExtractAll(image, &timings), "ExtractAll");
  }
  samples->bank_ms.push_back(ElapsedMs(start));
  uint64_t intermediates_ns = 0;
  for (uint64_t ns : timings.intermediate_ns) intermediates_ns += ns;
  samples->intermediates_ms.push_back(static_cast<double>(intermediates_ns) /
                                      1e6);
  for (const auto& [kind, fv] : out.features) {
    samples->extractor_ms[kind].push_back(
        static_cast<double>(timings.extractor_ns[static_cast<size_t>(kind)]) /
        1e6);
  }
  start = NowNs();
  {
    ScopedSpan span(trace, "index.find_range", qid);
    out.range = vr::FindRange(plan->histogram());
  }
  samples->find_range_us.push_back(ElapsedMs(start) * 1e3);
  return out;
}

std::vector<uint32_t> ProbeLookup(const vr::RangeBucketIndex& index,
                                  const std::map<int64_t, uint32_t>& row_of,
                                  const vr::GrayRange& range, size_t total,
                                  uint64_t qid, TraceBuffer* trace,
                                  LayerSamples* samples) {
  std::vector<int64_t> ids;
  const int64_t start = NowNs();
  {
    ScopedSpan span(trace, "index.lookup", qid);
    ids = index.Lookup(range, vr::RangeLookupMode::kLineage);
  }
  samples->lookup_us.push_back(ElapsedMs(start) * 1e3);
  samples->candidate_ratio.push_back(static_cast<double>(ids.size()) /
                                     static_cast<double>(total));
  std::vector<uint32_t> rows;
  rows.reserve(ids.size());
  for (int64_t id : ids) rows.push_back(row_of.at(id));
  return rows;
}

void ProbeSimilarity(
    const std::array<std::unique_ptr<vr::FeatureExtractor>,
                     vr::kNumFeatureKinds>& extractors,
    const std::vector<vr::FeatureKind>& kinds, const vr::FeatureMatrix& matrix,
    const vr::FeatureMap& query, const std::vector<uint32_t>& candidates,
    const vr::CombinedScorer& scorer, uint64_t qid, TraceBuffer* trace,
    LayerSamples* samples) {
  const size_t n = candidates.size();
  if (n == 0) return;
  const double rows = static_cast<double>(n);

  // Coarse code scan, over the kinds that have a code kernel.
  std::vector<vr::CodeKernelQuery> prepared;
  std::vector<vr::FeatureKind> coded;
  for (vr::FeatureKind kind : kinds) {
    const vr::FeatureMatrix::Column& col = matrix.column(kind);
    const vr::FeatureVector& q = query.at(kind);
    vr::CodeKernelQuery ck;
    if (col.quantized &&
        vr::PrepareCodeKernelQuery(
            extractors[static_cast<size_t>(kind)]->code_metric(),
            q.values().data(), q.size(), col.qmin, col.qmax, &ck)) {
      prepared.push_back(std::move(ck));
      coded.push_back(kind);
    }
  }
  std::vector<double> score(n, 0.0);
  std::vector<double> slack(n, 0.0);
  std::vector<uint8_t> forced(n, 0);
  int64_t start = NowNs();
  {
    ScopedSpan span(trace, "similarity.code_scan", qid);
    for (size_t i = 0; i < coded.size(); ++i) {
      const vr::FeatureMatrix::Column& col = matrix.column(coded[i]);
      vr::CodeBatchSpan batch;
      batch.codes = col.codes.data();
      batch.stride = col.stride;
      batch.lengths = col.lengths.data();
      batch.code_sums = col.code_sums.data();
      batch.present = col.present.data();
      batch.rows = candidates.data();
      batch.count = n;
      batch.score = score.data();
      batch.slack = slack.data();
      batch.forced = forced.data();
      vr::CodeKernelBatch(prepared[i], batch);
    }
  }
  samples->code_scan_ns_per_row.push_back(ElapsedMs(start) * 1e6 / rows);

  // Exact distance columns.
  std::map<vr::FeatureKind, std::vector<double>> columns;
  for (vr::FeatureKind kind : kinds) columns[kind].resize(n);
  start = NowNs();
  {
    ScopedSpan span(trace, "similarity.exact", qid);
    for (vr::FeatureKind kind : kinds) {
      const vr::FeatureMatrix::Column& col = matrix.column(kind);
      const vr::FeatureVector& q = query.at(kind);
      extractors[static_cast<size_t>(kind)]->BatchDistance(
          q.values().data(), q.size(),
          col.values.empty() ? &kEmptyColumn : col.values.data(), col.stride,
          col.lengths.data(), candidates.data(), n, columns[kind].data());
    }
  }
  samples->exact_ns_per_row.push_back(ElapsedMs(start) * 1e6 / rows);

  start = NowNs();
  {
    ScopedSpan span(trace, "similarity.fusion", qid);
    Check(scorer.Combine(columns).status(), "Combine probe");
  }
  samples->fusion_us.push_back(ElapsedMs(start) * 1e3);
}

std::vector<vr::KeyFrame> ProbeVideo(const std::string& path,
                                     const vr::KeyFrameExtractor& detector,
                                     const vr::RetrievalEngine& engine,
                                     uint64_t qid, TraceBuffer* trace,
                                     LayerSamples* samples) {
  std::vector<vr::Image> frames;
  int64_t start = NowNs();
  {
    ScopedSpan span(trace, "video.decode", qid);
    vr::VideoReader reader;
    Check(reader.Open(path), "open " + path);
    frames = Take(reader.ReadAll(), "decode " + path);
  }
  samples->decode_ms.push_back(ElapsedMs(start));
  std::vector<vr::KeyFrame> keys;
  start = NowNs();
  {
    ScopedSpan span(trace, "keyframe.detect", qid);
    keys = Take(detector.Extract(frames), "key frames of " + path);
  }
  samples->detect_ms.push_back(ElapsedMs(start));
  start = NowNs();
  {
    ScopedSpan span(trace, "video.encode", qid);
    Check(engine.EncodeVideoBlob(frames).status(), "blob encode");
  }
  samples->encode_ms.push_back(ElapsedMs(start));
  samples->frames += frames.size();
  samples->key_frames += keys.size();
  return keys;
}

size_t CountKeyFrames(const std::string& path,
                      const vr::KeyFrameExtractor& detector) {
  vr::VideoReader reader;
  Check(reader.Open(path), "open " + path);
  const std::vector<vr::Image> frames =
      Take(reader.ReadAll(), "decode " + path);
  return Take(detector.Extract(frames), "key frames of " + path).size();
}

QueueSampler::QueueSampler(const vr::IngestPipeline* pipeline)
    : pipeline_(pipeline), thread_([this] {
        while (!stop_.load()) {
          const vr::IngestPipelineStats stats = pipeline_->GetStats();
          worker_sum_ += static_cast<double>(stats.worker_queue_depth);
          commit_sum_ += static_cast<double>(stats.commit_queue_depth);
          ++polls_;
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }) {}

QueueSampler::~QueueSampler() { Stop(); }

std::pair<double, double> QueueSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (polls_ == 0) return {0.0, 0.0};
  const double n = static_cast<double>(polls_);
  return {worker_sum_ / n, commit_sum_ / n};
}

IngestFigures IngestDelta(const vr::IngestStats& before,
                          const vr::IngestStats& after,
                          std::pair<double, double> queue_depths) {
  IngestFigures out;
  const double videos =
      static_cast<double>(after.videos_ingested - before.videos_ingested);
  const double keys =
      static_cast<double>(after.keyframes_kept - before.keyframes_kept);
  if (videos > 0) out.commit_ms_per_video = (after.commit_ms - before.commit_ms) / videos;
  if (keys > 0) out.extract_ms_per_key_frame = (after.extract_ms - before.extract_ms) / keys;
  out.worker_queue_depth = queue_depths.first;
  out.commit_queue_depth = queue_depths.second;
  return out;
}

void ReportLayers(const LayerSamples& samples, const IngestFigures& ingest,
                  const ServiceFigures& service, uint64_t store_bytes,
                  size_t key_frames,
                  const std::vector<const TraceBuffer*>& probe_traces,
                  Metrics* metrics) {
  // features
  metrics->Set("features.bank_ms", Median(samples.bank_ms), "ms");
  metrics->Set("features.intermediates_ms", Median(samples.intermediates_ms),
               "ms");
  for (int k = 0; k < vr::kNumPaperFeatureKinds; ++k) {
    const auto kind = static_cast<vr::FeatureKind>(k);
    const auto it = samples.extractor_ms.find(kind);
    metrics->Set(vr::StringPrintf("features.%s_ms", vr::FeatureKindName(kind)),
                 it == samples.extractor_ms.end() ? 0.0 : Median(it->second),
                 "ms");
  }

  // similarity
  metrics->Set("similarity.code_scan_ns_per_row",
               Median(samples.code_scan_ns_per_row), "ns");
  metrics->Set("similarity.exact_ns_per_row", Median(samples.exact_ns_per_row),
               "ns");
  metrics->Set("similarity.fusion_us", Median(samples.fusion_us), "us");

  // retrieval: engine counter deltas over the traced phase
  const vr::QueryStats& qa = service.after.query;
  const vr::QueryStats& qb = service.before.query;
  const double queries = static_cast<double>(
      (qa.image_queries + qa.id_queries) - (qb.image_queries + qb.id_queries));
  const double staged =
      static_cast<double>(qa.two_stage_queries - qb.two_stage_queries);
  const auto per = [](double value, double n) { return n > 0 ? value / n : 0.0; };
  metrics->Set("retrieval.extract_ms", per(qa.extract_ms - qb.extract_ms, queries),
               "ms");
  metrics->Set("retrieval.select_ms", per(qa.select_ms - qb.select_ms, queries),
               "ms");
  metrics->Set("retrieval.rank_ms", per(qa.rank_ms - qb.rank_ms, queries), "ms");
  metrics->Set("retrieval.candidates",
               per(static_cast<double>(qa.candidates_scored - qb.candidates_scored),
                   queries),
               "count");
  metrics->Set("retrieval.coarse_survivors",
               per(static_cast<double>(qa.coarse_candidates - qb.coarse_candidates),
                   staged),
               "count");
  metrics->Set("retrieval.margin_kept",
               per(static_cast<double>(qa.margin_kept - qb.margin_kept), staged),
               "count");
  metrics->Set("retrieval.two_stage_queries", staged, "count");
  metrics->Set("retrieval.two_stage_fallbacks",
               static_cast<double>(qa.two_stage_fallbacks - qb.two_stage_fallbacks),
               "count");
  const double hits = static_cast<double>(qa.cache_hits - qb.cache_hits);
  const double misses = static_cast<double>(qa.cache_misses - qb.cache_misses);
  metrics->Set("retrieval.cache_hit_ratio", per(hits, hits + misses), "ratio");
  metrics->Set("retrieval.commit_ms", ingest.commit_ms_per_video, "ms");
  metrics->Set("retrieval.ingest_extract_ms", ingest.extract_ms_per_key_frame,
               "ms");
  metrics->Set("retrieval.worker_queue_depth", ingest.worker_queue_depth,
               "count");
  metrics->Set("retrieval.commit_queue_depth", ingest.commit_queue_depth,
               "count");

  // index
  metrics->Set("index.find_range_us", Median(samples.find_range_us), "us");
  metrics->Set("index.lookup_us", Median(samples.lookup_us), "us");
  metrics->Set("index.candidate_ratio", Median(samples.candidate_ratio),
               "ratio");

  // service
  const LoopResult& traced = *service.traced;
  const LoopResult& untraced = *service.untraced;
  const std::map<std::string, SpanStats> loop_spans = [&] {
    std::vector<const TraceBuffer*> buffers;
    for (const auto& t : traced.traces) buffers.push_back(t.get());
    return SummarizeSpans(buffers);
  }();
  const auto span_median = [&](const char* name) {
    const auto it = loop_spans.find(name);
    return it == loop_spans.end() ? 0.0 : Median(it->second.duration_ms);
  };
  const double engine_ms =
      per((qa.extract_ms - qb.extract_ms) + (qa.select_ms - qb.select_ms) +
              (qa.rank_ms - qb.rank_ms),
          queries);
  metrics->Set("service.rpc_ms", span_median("service.rpc"), "ms");
  metrics->Set("service.server_ms", service.after.p50_ms, "ms");
  metrics->Set("service.queue_ms", service.after.p50_ms - engine_ms, "ms");
  metrics->Set("service.encode_us", span_median("service.encode") * 1e3, "us");
  metrics->Set("service.decode_us", span_median("service.decode") * 1e3, "us");
  std::vector<double> bytes(traced.request_bytes.begin(),
                            traced.request_bytes.end());
  metrics->Set("service.request_bytes", Median(bytes), "bytes");
  double lag_sum = 0.0;
  for (double lag : traced.lag_ms) lag_sum += lag;
  metrics->Set("service.schedule_lag_ms",
               per(lag_sum, static_cast<double>(traced.lag_ms.size())), "ms");

  // keyframe + video
  metrics->Set("keyframe.detect_ms", Median(samples.detect_ms), "ms");
  metrics->Set("keyframe.kept_ratio",
               per(static_cast<double>(samples.key_frames),
                   static_cast<double>(samples.frames)),
               "ratio");
  metrics->Set("video.decode_ms", Median(samples.decode_ms), "ms");
  metrics->Set("video.encode_ms", Median(samples.encode_ms), "ms");

  // storage
  const vr::PagerStats& pager = service.after.pager;
  metrics->Set("storage.pager_hits", static_cast<double>(pager.hits), "count");
  metrics->Set("storage.pager_misses", static_cast<double>(pager.misses),
               "count");
  metrics->Set("storage.pager_hit_ratio",
               per(static_cast<double>(pager.hits),
                   static_cast<double>(pager.hits + pager.misses)),
               "ratio");
  metrics->Set("storage.bytes_per_keyframe",
               per(static_cast<double>(store_bytes),
                   static_cast<double>(key_frames)),
               "bytes");

  // Tracing overhead: the traced phase against the untraced one.
  const Latency lt = Summarize(traced.latency_ms);
  const Latency lu = Summarize(untraced.latency_ms);
  metrics->Set("trace.overhead_p50_ms", lt.p50 - lu.p50, "ms");
  const double qps_t = static_cast<double>(traced.latency_ms.size()) / traced.elapsed_s;
  const double qps_u =
      static_cast<double>(untraced.latency_ms.size()) / untraced.elapsed_s;
  metrics->Set("trace.overhead_qps_pct", 100.0 * (qps_u - qps_t) / qps_u, "%");

  // Self time per module: loop modules per traced query, probe modules
  // per probe root.
  const std::map<std::string, double> loop_self = ModuleSelfMs(loop_spans);
  const std::map<std::string, SpanStats> probe_spans =
      SummarizeSpans(probe_traces);
  const std::map<std::string, double> probe_self = ModuleSelfMs(probe_spans);
  const double traced_queries = static_cast<double>(traced.latency_ms.size());
  const double probes = probe_spans.count("probe")
                            ? static_cast<double>(probe_spans.at("probe").count)
                            : 0.0;
  size_t spans = 0;
  for (const auto* group : {&loop_spans, &probe_spans}) {
    for (const auto& [name, s] : *group) {
      spans += s.count;
      std::printf("span %-22s count=%-6zu median_ms=%.6f self_ms=%.3f\n",
                  name.c_str(), s.count, Median(s.duration_ms), s.self_ms);
    }
  }
  metrics->Set("trace.spans", static_cast<double>(spans), "count");
  for (const char* module : {"query", "service"}) {
    const auto it = loop_self.find(module);
    metrics->Set(std::string("selftime.") + module + "_ms",
                 it == loop_self.end() ? 0.0 : per(it->second, traced_queries),
                 "ms");
  }
  for (const char* module :
       {"probe", "features", "index", "similarity", "keyframe", "video"}) {
    const auto it = probe_self.find(module);
    metrics->Set(std::string("selftime.") + module + "_ms",
                 it == probe_self.end() ? 0.0 : per(it->second, probes), "ms");
  }
}

}  // namespace vrbench

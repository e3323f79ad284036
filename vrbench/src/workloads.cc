#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "util/string_util.h"
#include "video/synth/generator.h"

namespace vrbench {

void Verdict::Expect(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_ < 10) std::fprintf(stderr, "vr-bench: WRONG: %s\n", what.c_str());
  ++failures_;
}

std::vector<Footage> WriteFootage(const std::string& dir, const char* prefix,
                                  size_t count, int width, int height,
                                  int scenes, int frames_per_scene,
                                  uint64_t seed) {
  std::vector<Footage> out;
  for (size_t i = 0; i < count; ++i) {
    vr::SyntheticVideoSpec spec;
    spec.category = static_cast<vr::VideoCategory>(i % vr::kNumCategories);
    spec.width = width;
    spec.height = height;
    spec.num_scenes = scenes;
    spec.frames_per_scene = frames_per_scene;
    spec.seed = seed * 1000003ULL + i;
    Footage clip;
    clip.path = vr::StringPrintf("%s/%s_%03zu.vsv", dir.c_str(), prefix, i);
    clip.category = spec.category;
    clip.frames = static_cast<size_t>(
        Take(vr::GenerateVideoFile(spec, clip.path), "write " + clip.path));
    out.push_back(std::move(clip));
  }
  return out;
}

void CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive |
                                      std::filesystem::copy_options::overwrite_existing,
                        ec);
  if (ec) Fail("copy " + from + ": " + ec.message());
}

IngestRun IngestFootage(vr::RetrievalEngine* engine,
                        const std::vector<Footage>& clips, size_t workers,
                        const std::string& name_prefix, Ops* ops) {
  IngestRun run;
  const vr::IngestStats before = engine->ingest_stats();
  const Clock::time_point start = Clock::now();
  vr::IngestPipelineOptions options;
  options.workers = workers;
  vr::IngestPipeline pipeline(engine, options);
  QueueSampler sampler(&pipeline);
  for (size_t i = 0; i < clips.size(); ++i) {
    vr::IngestJob job;
    job.name = vr::StringPrintf("%s_%03zu", name_prefix.c_str(), i);
    job.path = clips[i].path;
    pipeline.Submit(std::move(job));
  }
  const std::vector<vr::Result<int64_t>>& results = pipeline.Finish();
  run.seconds = SecondsSince(start);
  const std::pair<double, double> depths = sampler.Stop();
  for (size_t i = 0; i < results.size(); ++i) {
    ops->Record("ingest_job", !results[i].ok());
    Check(results[i].status(), "ingest " + clips[i].path);
    run.v_ids.push_back(*results[i]);
    run.frames += clips[i].frames;
  }
  run.figures = IngestDelta(before, engine->ingest_stats(), depths);
  return run;
}

std::vector<StoredFrame> ScanStore(vr::RetrievalEngine* engine) {
  std::vector<StoredFrame> out;
  Check(engine->store()->ScanKeyFrames([&](const vr::KeyFrameRecord& rec) {
          StoredFrame frame;
          frame.i_id = rec.i_id;
          frame.v_id = rec.v_id;
          frame.range = vr::GrayRange{static_cast<int>(rec.min),
                                      static_cast<int>(rec.max), 0};
          frame.features = rec.features;
          out.push_back(std::move(frame));
          return true;
        }),
        "scan key frames");
  return out;
}

void FillProbeCorpus(const std::vector<StoredFrame>& frames, ProbeCorpus* out) {
  for (const StoredFrame& frame : frames) {
    out->row_of[frame.i_id] = static_cast<uint32_t>(out->matrix.rows());
    out->matrix.Append(frame.i_id, frame.v_id, frame.range, frame.features);
    out->index.InsertAt(frame.i_id, frame.range);
  }
}

std::vector<Hit> TopK(std::vector<Hit> all, size_t k) {
  const auto better = [](const Hit& a, const Hit& b) {
    const bool a_nan = std::isnan(a.score);
    const bool b_nan = std::isnan(b.score);
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && a.score != b.score) return a.score < b.score;
    return a.i_id < b.i_id;
  };
  const size_t top = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(top),
                    all.end(), better);
  all.resize(top);
  return all;
}

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

bool SameRanking(const std::vector<Hit>& got, const std::vector<Hit>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Close(got[i].score, want[i].score)) return false;
    if (got[i].i_id != want[i].i_id && !Close(got[i].score, want.back().score)) {
      return false;
    }
  }
  return true;
}

bool ScoresOrdered(const std::vector<Hit>& hits, double lo, double hi) {
  for (size_t i = 0; i < hits.size(); ++i) {
    if (!(hits[i].score >= lo && hits[i].score <= hi)) return false;
    if (i > 0 && hits[i].score < hits[i - 1].score) return false;
  }
  return true;
}

double MeasureReopen(const std::string& dir, const vr::EngineOptions& options,
                     size_t expect_key_frames, Verdict* verdict) {
  std::vector<double> seconds;
  const Clock::time_point first = Clock::now();
  while (seconds.size() < static_cast<size_t>(kReopens) ||
         SecondsSince(first) < kReopenSeconds) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<vr::RetrievalEngine> engine =
        Take(vr::RetrievalEngine::Open(dir, options), "reopen");
    seconds.push_back(SecondsSince(start));
    verdict->Expect(engine->indexed_key_frames() == expect_key_frames,
                    vr::StringPrintf("reopen indexed %zu key frames, want %zu",
                                     engine->indexed_key_frames(),
                                     expect_key_frames));
    verdict->Expect(engine->matrix_store_stats().warm_loaded,
                    "reopen did not load the persisted matrix");
  }
  std::printf("reopen: n=%zu median=%.6f s\n", seconds.size(), Median(seconds));
  return Median(seconds);
}

void ReportQueryMetrics(const LoopResult& loop, Metrics* metrics) {
  const Latency latency = Summarize(loop.latency_ms);
  const std::vector<double> tails = WindowTails(loop.latency_ms, loop.done_ns);
  const double tail = Median(tails);
  std::string each;
  for (double t : tails) each += vr::StringPrintf(" %.4f", t);
  std::printf("latency: n=%zu p50=%.4f ms p%.2f=%.4f ms windowed_tail=%.4f ms "
              "(%zu windows:%s)\n",
              latency.n, latency.p50, latency.tail_pct, latency.tail, tail,
              tails.size(), each.c_str());
  metrics->Set("query_p50_ms", latency.p50, "ms");
  metrics->Set("query_p99_ms", tail, "ms");
  metrics->Set("query_qps",
               static_cast<double>(loop.latency_ms.size()) / loop.elapsed_s,
               "queries/s");
}

}  // namespace vrbench

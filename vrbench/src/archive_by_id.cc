/// archive_by_id: "more like this" over a large archive. Tens of
/// thousands of key frames of clustered feature vectors are written
/// straight into VideoStore; four closed-loop clients send QueryById
/// over the wire. Fusion is NormalizationKind::kNone, under which
/// combined queries take the two-stage path, so nearly all time goes to
/// the coarse code scan, the exact rerank and top-k. No extraction runs
/// and the request payload is a few bytes.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "service/wire.h"
#include "similarity/combined_scorer.h"
#include "storage/video_store.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread.h"
#include "workloads.h"

namespace vrbench {

namespace {

constexpr vr::FeatureKind kKinds[] = {vr::FeatureKind::kColorHistogram,
                                      vr::FeatureKind::kGlcm,
                                      vr::FeatureKind::kNaiveSignature};
constexpr size_t kKindDims[] = {64, 6, 24};
constexpr size_t kFramesPerVideo = 100;
constexpr size_t kQueryPool = 256;

/// The synthesized archive: one batch of records per video, ids as a
/// fresh store assigns them (1, 2, ...).
struct Archive {
  std::vector<vr::VideoRecord> videos;
  std::vector<std::vector<vr::KeyFrameRecord>> batches;
  std::vector<const vr::KeyFrameRecord*> frames;  ///< by i_id - 1
};

Archive Synthesize(size_t key_frames, uint64_t seed) {
  Archive archive;
  vr::Rng rng(seed);
  size_t remaining = key_frames;
  int64_t next_frame = 1;
  while (remaining > 0) {
    const size_t count = std::min(kFramesPerVideo, remaining);
    remaining -= count;
    vr::VideoRecord video;
    video.v_id = static_cast<int64_t>(archive.videos.size()) + 1;
    video.v_name = vr::StringPrintf("archive_%zu", archive.videos.size());
    video.dostore = "2026-10-18";
    // One cluster center per video and kind; frames scatter around it,
    // so a video's frames are each other's nearest neighbours.
    std::vector<std::vector<double>> centers(std::size(kKinds));
    for (size_t k = 0; k < std::size(kKinds); ++k) {
      centers[k].resize(kKindDims[k]);
      for (double& v : centers[k]) v = rng.UniformDouble(0.0, 100.0);
    }
    std::vector<vr::KeyFrameRecord> batch;
    for (size_t f = 0; f < count; ++f) {
      vr::KeyFrameRecord rec;
      rec.i_id = next_frame++;
      rec.i_name = video.v_name + "_kf" + std::to_string(f);
      rec.v_id = video.v_id;
      rec.min = 0;
      rec.max = 255;
      for (size_t k = 0; k < std::size(kKinds); ++k) {
        std::vector<double> values = centers[k];
        for (double& v : values) v = std::max(0.0, v + rng.Gaussian(0.0, 2.0));
        rec.features.emplace(
            kKinds[k], vr::FeatureVector(vr::FeatureKindName(kKinds[k]),
                                         std::move(values)));
      }
      batch.push_back(std::move(rec));
    }
    archive.videos.push_back(std::move(video));
    archive.batches.push_back(std::move(batch));
  }
  for (const auto& batch : archive.batches) {
    for (const vr::KeyFrameRecord& rec : batch) archive.frames.push_back(&rec);
  }
  return archive;
}

/// Writes the archive into a fresh store; returns the key frames written
/// per second, as the median over the videos' PutKeyFrames batches.
double WriteArchive(const std::string& dir, const Archive& archive) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<vr::VideoStore> store =
      Take(vr::VideoStore::Open(dir), "open store");
  std::vector<double> rates;
  for (size_t v = 0; v < archive.videos.size(); ++v) {
    const vr::VideoRecord& video = archive.videos[v];
    if (store->NextVideoId() != video.v_id) Fail("unexpected video id");
    Take(store->PutVideo(video), "PutVideo");
    for (const vr::KeyFrameRecord& rec : archive.batches[v]) {
      if (store->NextKeyFrameId() != rec.i_id) Fail("unexpected key frame id");
    }
    const Clock::time_point batch = Clock::now();
    Check(store->PutKeyFrames(archive.batches[v]), "PutKeyFrames");
    rates.push_back(static_cast<double>(archive.batches[v].size()) /
                    SecondsSince(batch));
  }
  Check(store->Checkpoint(), "checkpoint");
  const double total_s = SecondsSince(start);
  std::sort(rates.begin(), rates.end());
  std::printf("archive write: %.3f s, %.1f key frames/s overall; per batch "
              "q1 %.1f median %.1f q3 %.1f\n",
              total_s, static_cast<double>(archive.frames.size()) / total_s,
              rates[rates.size() / 4], Median(rates), rates[rates.size() * 3 / 4]);
  return Median(rates);
}

/// Brute-force top-k for the frame \p id: each extractor's Distance
/// summed with the fusion weights, over every archived frame.
std::vector<Hit> BruteForce(const Archive& archive, int64_t id,
                            const std::array<std::unique_ptr<vr::FeatureExtractor>,
                                             vr::kNumFeatureKinds>& extractors) {
  const vr::CombinedScorer weights;
  const vr::KeyFrameRecord& query = *archive.frames[static_cast<size_t>(id - 1)];
  double weight_total = 0.0;
  for (vr::FeatureKind kind : kKinds) weight_total += weights.GetWeight(kind);
  std::vector<Hit> all;
  all.reserve(archive.frames.size());
  for (const vr::KeyFrameRecord* rec : archive.frames) {
    double score = 0.0;
    for (vr::FeatureKind kind : kKinds) {
      score += weights.GetWeight(kind) *
               extractors[static_cast<size_t>(kind)]->Distance(
                   query.features.at(kind), rec->features.at(kind));
    }
    all.push_back(Hit{rec->i_id, rec->v_id, score / weight_total});
  }
  return TopK(std::move(all), kTopK);
}

}  // namespace

void RunArchiveById(const Args& args, Ops* ops, WorkloadResult* out) {
  const size_t key_frames = args.smoke ? 5000 : 20000;
  vr::EngineOptions options;
  options.enabled_features.assign(std::begin(kKinds), std::end(kKinds));
  options.store_video_blob = false;
  options.use_index = false;  // every frame sits in the root bucket
  options.normalization = vr::NormalizationKind::kNone;
  options.two_stage = args.two_stage;
  // Serial ranking. With the default sharded ranking (rank pool above
  // 512 candidates), four concurrent queries on this archive settle,
  // run by run, at anywhere from ~500 to ~1800 queries/s on the same
  // seed (serial: ~1950), which no regression bound can hold. The
  // sharded path is recorded as a finding rather than measured here.
  options.parallel_rank_threshold = 0;
  Verdict verdict;

  // The archive is the same in every run; the seed picks the queried
  // frames, so the two-stage work per query is comparable across seeds.
  const Archive archive = Synthesize(key_frames, 0x5CA1Eu);

  // The archive is written once per run (its rate is the archive's
  // ingest_frames_per_s); each set-up serves a fresh copy of it: cold
  // engine open (store scan, matrix build and persist), service, server
  // and client connections.
  TempDir written(args.workdir, "archive");
  const double write_rate = WriteArchive(written.path(), archive);
  std::vector<double> setup_s;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<ServerStack> stack;
  std::vector<std::unique_ptr<vr::VrClient>> clients;
  for (int i = 0; i < kSetups; ++i) {
    clients.clear();
    stack.reset();
    dir.reset();
    dir = std::make_unique<TempDir>(args.workdir, "store");
    CopyDir(written.path(), dir->path());
    const Clock::time_point start = Clock::now();
    stack = ServerStack::Start(dir->path(), options);
    clients = ConnectClients(stack->port(), kClients);
    setup_s.push_back(SecondsSince(start));
  }
  if (stack->engine()->indexed_key_frames() != key_frames) {
    Fail("archive engine does not index every key frame");
  }

  std::vector<int64_t> pool(kQueryPool);
  vr::Rng pool_rng(args.seed + 101);
  for (int64_t& id : pool) {
    id = pool_rng.UniformInt(1, static_cast<int64_t>(key_frames));
  }
  std::vector<uint64_t> next(kClients, 0);
  const PickFn pick = [&](size_t c, uint64_t) {
    return static_cast<uint32_t>((c + kClients * next[c]++) % kQueryPool);
  };
  const SendFn send = [&](vr::VrClient* client, uint32_t q) {
    return client->QueryById(pool[q], kTopK);
  };
  const EncodeFn encode = [&](uint32_t q) {
    vr::ServiceRequest request;
    request.mode = vr::QueryMode::kById;
    request.frame_id = pool[q];
    request.k = kTopK;
    return vr::EncodeQueryRequest(request).size();
  };

  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult warmup = RunClosedLoop(clients, std::min(kWarmupSeconds, phase_s),
                                    pick, send, encode, false, ops);
  const vr::ServiceStatsSnapshot start_stats = FetchStats(clients[0].get(), ops);
  LoopResult untraced =
      RunClosedLoop(clients, phase_s, pick, send, encode, false, ops);
  ServiceFigures service;
  LoopResult traced;
  service.before = FetchStats(clients[0].get(), ops);
  if (args.trace) {
    traced = RunClosedLoop(clients, phase_s, pick, send, encode, true, ops);
  }
  service.after = FetchStats(clients[0].get(), ops);
  const vr::QueryStats& qa = service.before.query;
  const vr::QueryStats& q0 = start_stats.query;
  const uint64_t id_queries = qa.id_queries - q0.id_queries;
  std::printf("archive_by_id: key_frames=%zu two_stage_share=%.4f "
              "fallbacks=%llu mean_survivors=%.1f\n",
              key_frames,
              static_cast<double>(qa.two_stage_queries - q0.two_stage_queries) /
                  static_cast<double>(std::max<uint64_t>(1, id_queries)),
              static_cast<unsigned long long>(qa.two_stage_fallbacks -
                                              q0.two_stage_fallbacks),
              static_cast<double>(qa.coarse_candidates - q0.coarse_candidates) /
                  static_cast<double>(std::max<uint64_t>(
                      1, qa.two_stage_queries - q0.two_stage_queries)));
  clients.clear();
  std::unique_ptr<vr::RetrievalEngine> engine = stack->Release();
  stack.reset();

  // Oracle: brute force over the synthesized vectors for every distinct
  // queried frame, then every reply against it.
  std::vector<Reply> replies = std::move(untraced.replies);
  for (Reply& r : traced.replies) replies.push_back(std::move(r));
  for (Reply& r : warmup.replies) replies.push_back(std::move(r));
  std::vector<bool> asked(kQueryPool, false);
  for (const Reply& r : replies) asked[r.query] = true;
  std::vector<std::vector<Hit>> reference(kQueryPool);
  {
    std::vector<vr::Thread> threads;
    for (size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        const auto extractors = MakeExtractors(options.enabled_features);
        for (size_t q = t; q < kQueryPool; q += kClients) {
          if (asked[q]) reference[q] = BruteForce(archive, pool[q], extractors);
        }
      });
    }
    for (vr::Thread& t : threads) t.join();
  }
  double relevant = 0.0;
  for (const Reply& r : replies) {
    const int64_t id = pool[r.query];
    verdict.Expect(SameRanking(r.hits, reference[r.query]),
                   vr::StringPrintf("frame %lld differs from brute force",
                                    static_cast<long long>(id)));
    verdict.Expect(!r.hits.empty() && r.hits[0].i_id == id && r.hits[0].score == 0.0,
                   vr::StringPrintf("frame %lld does not rank itself first at 0",
                                    static_cast<long long>(id)));
    verdict.Expect(ScoresOrdered(r.hits, 0.0, std::numeric_limits<double>::max()),
                   "scores unordered");
    const int64_t v_id = archive.frames[static_cast<size_t>(id - 1)]->v_id;
    for (const Hit& h : r.hits) relevant += h.v_id == v_id ? 1 : 0;
  }
  const double precision =
      relevant / (static_cast<double>(kTopK) * std::max<size_t>(1, replies.size()));

  // Layer probes (traced run only): similarity and index over the
  // archive; the pixel layers from a two-clip Administrator load into a
  // scratch store, since the archive itself holds no pixels.
  LayerSamples samples;
  TraceBuffer probe_trace(args.trace);
  IngestFigures ingest;
  if (args.trace) {
    std::vector<StoredFrame> stored;
    for (const vr::KeyFrameRecord* rec : archive.frames) {
      stored.push_back(StoredFrame{rec->i_id, rec->v_id, vr::GrayRange{0, 255, 0},
                                   rec->features});
    }
    ProbeCorpus corpus;
    FillProbeCorpus(stored, &corpus);
    const auto extractors = MakeExtractors(options.enabled_features);
    vr::CombinedScorer scorer;
    scorer.SetNormalization(options.normalization);
    for (size_t p = 0; p < kProbeQueries; ++p) {
      ScopedSpan root(&probe_trace, "probe", p);
      const StoredFrame& frame = stored[static_cast<size_t>(pool[p] - 1)];
      const std::vector<uint32_t> rows =
          ProbeLookup(corpus.index, corpus.row_of, frame.range,
                      corpus.matrix.rows(), p, &probe_trace, &samples);
      ProbeSimilarity(extractors, options.enabled_features, corpus.matrix,
                      frame.features, rows, scorer, p, &probe_trace, &samples);
    }

    TempDir admin(args.workdir, "admin");
    TempDir admin_inputs(args.workdir, "admin_inputs");
    const vr::EngineOptions admin_options;
    std::unique_ptr<vr::RetrievalEngine> admin_engine =
        Take(vr::RetrievalEngine::Open(admin.path(), admin_options), "admin open");
    const std::vector<Footage> clips =
        WriteFootage(admin_inputs.path(), "admin", 2, 160, 120, 2, 12, args.seed);
    const auto admin_extractors = MakeExtractors(admin_options.enabled_features);
    std::vector<const vr::FeatureExtractor*> plan_extractors;
    for (vr::FeatureKind kind : admin_options.enabled_features) {
      plan_extractors.push_back(admin_extractors[static_cast<size_t>(kind)].get());
    }
    vr::ExtractionPlan plan(plan_extractors);
    const vr::KeyFrameExtractor detector(admin_options.keyframe);
    for (size_t i = 0; i < clips.size(); ++i) {
      const uint64_t qid = kProbeQueries + i;
      ScopedSpan root(&probe_trace, "probe", qid);
      const std::vector<vr::KeyFrame> keys =
          ProbeVideo(clips[i].path, detector, *admin_engine, qid, &probe_trace,
                     &samples);
      for (const vr::KeyFrame& key : keys) {
        ProbeExtract(&plan, key.image, qid, &probe_trace, &samples);
      }
    }
    ingest = IngestFootage(admin_engine.get(), clips, args.workers, "admin", ops)
                 .figures;
  }
  engine.reset();
  const uint64_t store_bytes = DirBytes(dir->path());
  const double reopen_s = MeasureReopen(dir->path(), options, key_frames, &verdict);

  if (args.trace) {
    service.traced = &traced;
    service.untraced = &untraced;
    ReportLayers(samples, ingest, service, store_bytes, key_frames,
                 {&probe_trace}, &out->layers);
  }
  out->e2e.Set("setup_s", Median(setup_s), "s");
  ReportQueryMetrics(untraced, &out->e2e);
  out->e2e.Set("ingest_frames_per_s", write_rate,
               "frames/s");
  out->e2e.Set("reopen_s", reopen_s, "s");
  out->e2e.Set("store_mb", static_cast<double>(store_bytes) / (1024.0 * 1024.0),
               "MiB");
  out->e2e.Set("precision_at_20", precision, "ratio");
  out->correct = verdict.ok();
}

}  // namespace vrbench

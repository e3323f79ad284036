/// ingest_with_queries: the write path beside reads. A bulk
/// IngestPipeline load of seeded .vsv clips (decode -> key frames ->
/// extraction -> batched commit, video blob stored) runs into a seeded
/// base corpus while one client sends QueryById on a fixed seeded
/// Poisson schedule (open loop), well below saturation. It is the only
/// workload that runs decode, key-frame selection, commit and the
/// writer-exclusive engine lock during queries.

#include <algorithm>
#include <atomic>
#include <functional>
#include <cstdio>

#include "service/wire.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread.h"
#include "workloads.h"

namespace vrbench {

namespace {

/// Offered query rate of the open loop, per second.
constexpr double kRate = 100.0;
/// Ingest jobs per second of --seconds: a fixed amount of work per run,
/// sized so the load lasts about --seconds on a 4-core box. Queries run
/// exactly as long as the load, so every one of them meets it.
constexpr double kJobsPerSecond = 24.0;

bool FindsItself(const std::vector<Hit>& hits, int64_t id) {
  if (hits.empty() || hits[0].score != 0.0) return false;
  for (const Hit& h : hits) {
    if (h.i_id == id && h.score == 0.0) return true;
  }
  return false;
}

}  // namespace

void RunIngestWithQueries(const Args& args, Ops* ops, WorkloadResult* out) {
  const vr::EngineOptions options;  // all seven features, blob stored
  const size_t base_count = args.smoke ? 5 : 10;
  const size_t clip_count = args.smoke ? 6 : 24;
  Verdict verdict;

  // Footage is the same in every run; the seed orders the ingest jobs
  // and draws the query schedule and the queried frames.
  TempDir inputs(args.workdir, "inputs");
  const std::vector<Footage> base =
      WriteFootage(inputs.path(), "base", base_count, 160, 120, 4, 18, 2012);
  const std::vector<Footage> clips =
      WriteFootage(inputs.path(), "new", clip_count, 160, 120, 2, 12, 7000);
  const size_t jobs = std::max<size_t>(
      clips.size(), static_cast<size_t>(kJobsPerSecond * args.seconds));
  std::vector<size_t> job_clip;
  vr::Rng order_rng(args.seed + 7);
  while (job_clip.size() < jobs) {
    std::vector<size_t> round(clips.size());
    for (size_t c = 0; c < round.size(); ++c) round[c] = c;
    order_rng.Shuffle(&round);
    for (size_t c : round) {
      if (job_clip.size() < jobs) job_clip.push_back(c);
    }
  }

  std::vector<double> setup_s;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<ServerStack> stack;
  std::vector<std::unique_ptr<vr::VrClient>> query_clients;
  std::vector<std::unique_ptr<vr::VrClient>> stats_clients;
  IngestRun base_load;
  for (int i = 0; i < kSetups; ++i) {
    query_clients.clear();
    stats_clients.clear();
    stack.reset();
    dir.reset();
    dir = std::make_unique<TempDir>(args.workdir, "store");
    const Clock::time_point start = Clock::now();
    std::unique_ptr<vr::RetrievalEngine> engine =
        Take(vr::RetrievalEngine::Open(dir->path(), options), "engine open");
    base_load = IngestFootage(engine.get(), base, kClients, "base", ops);
    stack = ServerStack::Serve(std::move(engine));
    query_clients = ConnectClients(stack->port(), kClients);
    stats_clients = ConnectClients(stack->port(), 1);
    setup_s.push_back(SecondsSince(start));
  }
  std::map<int64_t, vr::VideoCategory> category_of;
  for (size_t i = 0; i < base.size(); ++i) {
    category_of[base_load.v_ids[i]] = base[i].category;
  }
  const std::vector<StoredFrame> base_frames = ScanStore(stack->engine());
  const size_t base_keys = base_frames.size();

  // Open-loop by-id queries on base frames for as long as the ingest
  // runs (with --trace 1: untraced through the first half of the jobs,
  // traced through the rest). The schedule is long enough to outlast it.
  const double horizon_s = 6.0 * args.seconds;
  const std::vector<double> schedule_a = PoissonSchedule(kRate, horizon_s, args.seed);
  const std::vector<double> schedule_b =
      PoissonSchedule(kRate, horizon_s, args.seed + 1);
  std::vector<uint32_t> picks(schedule_a.size() + schedule_b.size());
  vr::Rng pick_rng(args.seed + 3);
  for (uint32_t& p : picks) {
    p = static_cast<uint32_t>(
        pick_rng.UniformInt(0, static_cast<int64_t>(base_keys) - 1));
  }
  const PickFn pick_a = [&](size_t, uint64_t i) { return picks[i]; };
  const PickFn pick_b = [&](size_t, uint64_t i) {
    return picks[schedule_a.size() + i];
  };
  const SendFn send = [&](vr::VrClient* client, uint32_t q) {
    return client->QueryById(base_frames[q].i_id, kTopK);
  };
  const EncodeFn encode = [&](uint32_t q) {
    vr::ServiceRequest request;
    request.mode = vr::QueryMode::kById;
    request.frame_id = base_frames[q].i_id;
    request.k = kTopK;
    return vr::EncodeQueryRequest(request).size();
  };

  // Bulk ingest of every job beside the queries, then drain.
  LoopResult untraced;
  LoopResult traced;
  ServiceFigures service;
  IngestFigures ingest;
  double ingest_s = 0.0;
  size_t ingest_frames = 0;
  std::vector<int64_t> new_v_ids;
  {
    const vr::IngestStats before = stack->engine()->ingest_stats();
    vr::IngestPipelineOptions pipeline_options;
    pipeline_options.workers = args.workers;
    vr::IngestPipeline pipeline(stack->engine(), pipeline_options);
    std::atomic<bool> done{false};
    const std::function<bool()> finished = [&] { return done.load(); };
    const std::function<bool()> halfway = [&] {
      return done.load() || pipeline.GetStats().committed >= job_clip.size() / 2;
    };
    vr::Thread query_thread([&] {
      untraced = RunOpenLoop(query_clients, schedule_a, pick_a, send, encode,
                             false, ops, args.trace ? halfway : finished);
      service.before = FetchStats(stats_clients[0].get(), ops);
      if (args.trace) {
        traced = RunOpenLoop(query_clients, schedule_b, pick_b, send, encode,
                             true, ops, finished);
      }
      service.after = FetchStats(stats_clients[0].get(), ops);
    });
    const Clock::time_point start = Clock::now();
    QueueSampler sampler(&pipeline);
    for (size_t j = 0; j < job_clip.size(); ++j) {
      vr::IngestJob job;
      job.name = vr::StringPrintf("new_%05zu", j);
      job.path = clips[job_clip[j]].path;
      pipeline.Submit(std::move(job));
    }
    const std::vector<vr::Result<int64_t>>& results = pipeline.Finish();
    ingest_s = SecondsSince(start);
    done.store(true);
    query_thread.join();
    const std::pair<double, double> depths = sampler.Stop();
    for (size_t j = 0; j < results.size(); ++j) {
      ops->Record("ingest_job", !results[j].ok());
      verdict.Expect(results[j].ok(), "ingest job " + std::to_string(j) + ": " +
                                          results[j].status().ToString());
      if (!results[j].ok()) continue;
      new_v_ids.push_back(*results[j]);
      category_of[*results[j]] = clips[job_clip[j]].category;
      ingest_frames += clips[job_clip[j]].frames;
    }
    ingest = IngestDelta(before, stack->engine()->ingest_stats(), depths);
  }
  std::printf("ingest_with_queries: base_key_frames=%zu jobs=%zu frames=%zu "
              "seconds=%.3f workers=%zu\n",
              base_keys, job_clip.size(), ingest_frames, ingest_s, args.workers);

  // Oracles. The index holds the base plus every key frame the detector
  // finds in the committed clips.
  const vr::KeyFrameExtractor detector(options.keyframe);
  std::vector<size_t> clip_keys(clips.size());
  for (size_t c = 0; c < clips.size(); ++c) {
    clip_keys[c] = CountKeyFrames(clips[c].path, detector);
  }
  size_t expect_keys = base_keys;
  for (size_t j = 0; j < job_clip.size(); ++j) expect_keys += clip_keys[job_clip[j]];
  verdict.Expect(stack->engine()->indexed_key_frames() == expect_keys,
                 vr::StringPrintf("indexed %zu key frames, want %zu",
                                  stack->engine()->indexed_key_frames(),
                                  expect_keys));
  const double kinds = static_cast<double>(options.enabled_features.size());
  double relevant = 0.0;
  std::vector<Reply> replies = std::move(untraced.replies);
  for (Reply& r : traced.replies) replies.push_back(std::move(r));
  for (const Reply& r : replies) {
    const StoredFrame& frame = base_frames[r.query];
    verdict.Expect(FindsItself(r.hits, frame.i_id),
                   vr::StringPrintf("frame %lld does not find itself at 0",
                                    static_cast<long long>(frame.i_id)));
    verdict.Expect(ScoresOrdered(r.hits, 0.0, kinds), "scores unordered");
    const vr::VideoCategory want = category_of.at(frame.v_id);
    for (const Hit& h : r.hits) relevant += category_of.at(h.v_id) == want ? 1 : 0;
  }
  const double precision =
      relevant / (static_cast<double>(kTopK) * std::max<size_t>(1, replies.size()));
  query_clients.clear();
  stats_clients.clear();
  std::unique_ptr<vr::RetrievalEngine> engine = stack->Release();
  stack.reset();

  LayerSamples samples;
  TraceBuffer probe_trace(args.trace);
  if (args.trace) {
    const std::vector<StoredFrame> stored = ScanStore(engine.get());
    ProbeCorpus corpus;
    FillProbeCorpus(stored, &corpus);
    const auto extractors = MakeExtractors(options.enabled_features);
    vr::CombinedScorer scorer;
    scorer.SetNormalization(options.normalization);
    for (size_t p = 0; p < kProbeQueries; ++p) {
      ScopedSpan root(&probe_trace, "probe", p);
      const StoredFrame& frame = base_frames[picks[p]];
      const std::vector<uint32_t> rows =
          ProbeLookup(corpus.index, corpus.row_of, frame.range,
                      corpus.matrix.rows(), p, &probe_trace, &samples);
      ProbeSimilarity(extractors, options.enabled_features, corpus.matrix,
                      frame.features, rows, scorer, p, &probe_trace, &samples);
    }
    std::vector<const vr::FeatureExtractor*> plan_extractors;
    for (vr::FeatureKind kind : options.enabled_features) {
      plan_extractors.push_back(extractors[static_cast<size_t>(kind)].get());
    }
    vr::ExtractionPlan plan(plan_extractors);
    for (size_t c = 0; c < std::min<size_t>(4, clips.size()); ++c) {
      const uint64_t qid = kProbeQueries + c;
      ScopedSpan root(&probe_trace, "probe", qid);
      for (const vr::KeyFrame& key :
           ProbeVideo(clips[c].path, detector, *engine, qid, &probe_trace,
                      &samples)) {
        ProbeExtract(&plan, key.image, qid, &probe_trace, &samples);
      }
    }
  }

  // Sampled new frames return themselves first after a reopen. Clips
  // repeat across jobs and equal scores rank by id, so the samples come
  // from each clip's first commit.
  vr::Rng sample_rng(args.seed + 5);
  std::vector<int64_t> sampled;
  const size_t first_copies = std::min(clips.size(), new_v_ids.size());
  for (int i = 0; i < 8 && first_copies > 0; ++i) {
    const int64_t v_id = new_v_ids[static_cast<size_t>(
        sample_rng.UniformInt(0, static_cast<int64_t>(first_copies) - 1))];
    const std::vector<int64_t> ids =
        Take(engine->store()->KeyFrameIdsOfVideo(v_id), "KeyFrameIdsOfVideo");
    verdict.Expect(!ids.empty(), "committed video without key frames");
    if (!ids.empty()) sampled.push_back(ids.back());
  }
  engine.reset();
  const uint64_t store_bytes = DirBytes(dir->path());
  const double reopen_s = MeasureReopen(dir->path(), options, expect_keys, &verdict);
  {
    std::unique_ptr<vr::RetrievalEngine> reopened =
        Take(vr::RetrievalEngine::Open(dir->path(), options), "reopen");
    for (int64_t id : sampled) {
      const std::vector<vr::QueryResult> results =
          Take(reopened->QueryByStoredId(id, kTopK), "QueryByStoredId");
      std::vector<Hit> hits;
      for (const vr::QueryResult& r : results) hits.push_back(Hit{r.i_id, r.v_id, r.score});
      verdict.Expect(FindsItself(hits, id),
                     vr::StringPrintf("new frame %lld does not find itself after "
                                      "reopen",
                                      static_cast<long long>(id)));
    }
  }

  if (args.trace) {
    service.traced = &traced;
    service.untraced = &untraced;
    ReportLayers(samples, ingest, service, store_bytes, expect_keys,
                 {&probe_trace}, &out->layers);
  }
  out->e2e.Set("setup_s", Median(setup_s), "s");
  ReportQueryMetrics(untraced, &out->e2e);
  out->e2e.Set("ingest_frames_per_s", static_cast<double>(ingest_frames) / ingest_s,
               "frames/s");
  out->e2e.Set("reopen_s", reopen_s, "s");
  out->e2e.Set("store_mb", static_cast<double>(store_bytes) / (1024.0 * 1024.0),
               "MiB");
  out->e2e.Set("precision_at_20", precision, "ratio");
  out->correct = verdict.ok();
}

}  // namespace vrbench

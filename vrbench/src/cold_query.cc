/// cold_query: the paper's query by example. A Table-1 style corpus
/// (five categories, real pixels, loaded from .vsv footage through the
/// Administrator path) answers held-out image queries sent over the wire
/// by a closed loop of four clients, combined ranking, default engine
/// options. Extraction and the image payload dominate; the corpus stays
/// far below two_stage_min_candidates, so the coarse scan stays idle.

#include <algorithm>
#include <cstdio>

#include "eval/corpus.h"
#include "features/extractor_registry.h"
#include "imaging/ppm.h"
#include "index/range_finder.h"
#include "service/wire.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread.h"
#include "workloads.h"

namespace vrbench {

namespace {

/// Share of fresh queries that re-send the client's previous frame; the
/// extraction cache serves those.
constexpr double kRepeatShare = 0.1;

/// Reference ranking of one query frame from the per-extractor legacy
/// Extract, per-pair Distance and CombinedScorer::Combine over the
/// candidates of a RangeBucketIndex filled from the stored ranges.
std::vector<Hit> ReferenceRanking(const vr::Image& query,
                                  const vr::EngineOptions& options,
                                  const std::vector<StoredFrame>& stored,
                                  const ProbeCorpus& corpus) {
  const auto extractors = MakeExtractors(options.enabled_features);
  vr::FeatureMap features;
  for (vr::FeatureKind kind : options.enabled_features) {
    features[kind] =
        Take(extractors[static_cast<size_t>(kind)]->Extract(query), "Extract");
  }
  const std::vector<int64_t> ids = corpus.index.Lookup(
      vr::FindRange(query, options.range), options.lookup_mode);
  if (ids.empty()) return {};
  std::map<vr::FeatureKind, std::vector<double>> columns;
  for (vr::FeatureKind kind : options.enabled_features) {
    std::vector<double>& column = columns[kind];
    for (int64_t id : ids) {
      column.push_back(extractors[static_cast<size_t>(kind)]->Distance(
          features[kind], stored[corpus.row_of.at(id)].features.at(kind)));
    }
  }
  vr::CombinedScorer scorer;
  scorer.SetNormalization(options.normalization);
  const std::vector<double> scores = Take(scorer.Combine(columns), "Combine");
  std::vector<Hit> all;
  for (size_t i = 0; i < ids.size(); ++i) {
    all.push_back(Hit{ids[i], stored[corpus.row_of.at(ids[i])].v_id, scores[i]});
  }
  return TopK(std::move(all), kTopK);
}

}  // namespace

void RunColdQuery(const Args& args, Ops* ops, WorkloadResult* out) {
  // The corpus is the same in every run (the default Table-1 seed); the
  // seed picks the held-out query frames and their order, so runs of
  // different seeds do the same set-up work.
  vr::CorpusSpec spec;
  spec.videos_per_category = args.smoke ? 3 : 6;
  // More than the extraction cache holds (64), so the walk never hits it.
  const size_t pool = args.smoke ? 80 : 256;
  const vr::EngineOptions options;  // combined min-max, all seven features
  Verdict verdict;

  // Inputs (not timed): the corpus footage and the held-out query pool.
  TempDir inputs(args.workdir, "inputs");
  const std::vector<Footage> clips = WriteFootage(
      inputs.path(), "corpus",
      static_cast<size_t>(spec.videos_per_category) * vr::kNumCategories,
      spec.width, spec.height, spec.scenes_per_video, spec.frames_per_scene,
      spec.seed);
  std::vector<vr::Image> frames;
  for (size_t q = 0; q < pool; ++q) {
    frames.push_back(Take(
        vr::MakeQueryFrame(spec, static_cast<vr::VideoCategory>(q % vr::kNumCategories),
                           args.seed * 100003ULL + q),
        "query frame"));
  }

  // Set-up, several times: fresh store, footage through the pipeline,
  // service + server on an ephemeral port, client connections.
  std::vector<double> setup_s;
  std::vector<double> ingest_rate;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<ServerStack> stack;
  std::vector<std::unique_ptr<vr::VrClient>> clients;
  IngestRun load;
  for (int i = 0; i < kSetups; ++i) {
    clients.clear();
    stack.reset();
    dir.reset();
    dir = std::make_unique<TempDir>(args.workdir, "store");
    const Clock::time_point start = Clock::now();
    std::unique_ptr<vr::RetrievalEngine> engine =
        Take(vr::RetrievalEngine::Open(dir->path(), options), "engine open");
    load = IngestFootage(engine.get(), clips, kClients, "corpus", ops);
    stack = ServerStack::Serve(std::move(engine));
    clients = ConnectClients(stack->port(), kClients);
    setup_s.push_back(SecondsSince(start));
    ingest_rate.push_back(static_cast<double>(load.frames) / load.seconds);
  }
  std::map<int64_t, vr::VideoCategory> category_of;
  for (size_t i = 0; i < clips.size(); ++i) {
    category_of[load.v_ids[i]] = clips[i].category;
  }

  // Query stream: a seeded walk over the pool, interleaved across the
  // clients, so a frame comes back only after ~pool other queries (more
  // than the extraction cache holds); kRepeatShare re-sends the client's
  // previous frame.
  std::vector<uint32_t> order(pool);
  for (size_t q = 0; q < pool; ++q) order[q] = static_cast<uint32_t>(q);
  vr::Rng(args.seed).Shuffle(&order);
  std::vector<vr::Rng> rngs;
  for (size_t c = 0; c < kClients; ++c) rngs.emplace_back(args.seed * 7919ULL + c);
  std::vector<uint32_t> last(kClients, 0);
  std::vector<uint64_t> fresh(kClients, 0);
  const PickFn pick = [&](size_t c, uint64_t seq) {
    if (seq > 0 && rngs[c].Bernoulli(kRepeatShare)) return last[c];
    last[c] = order[(c + kClients * fresh[c]++) % pool];
    return last[c];
  };
  const SendFn send = [&](vr::VrClient* client, uint32_t q) {
    return client->Query(frames[q], kTopK);
  };
  const EncodeFn encode = [&](uint32_t q) {
    vr::ServiceRequest request;
    request.image = frames[q];
    request.k = kTopK;
    return vr::EncodeQueryRequest(request).size();
  };

  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult warmup = RunClosedLoop(clients, std::min(kWarmupSeconds, phase_s),
                                    pick, send, encode, false, ops);
  const vr::ServiceStatsSnapshot start_stats = FetchStats(clients[0].get(), ops);
  LoopResult untraced =
      args.rate > 0
          ? RunOpenLoop(clients,
                        PoissonSchedule(args.rate, phase_s, args.seed), pick,
                        send, encode, false, ops)
          : RunClosedLoop(clients, phase_s, pick, send, encode, false, ops);
  ServiceFigures service;
  LoopResult traced;
  service.before = FetchStats(clients[0].get(), ops);
  if (args.trace) {
    traced = RunClosedLoop(clients, phase_s, pick, send, encode, true, ops);
  }
  service.after = FetchStats(clients[0].get(), ops);
  const vr::QueryStats& qa = service.before.query;
  const vr::QueryStats& q0 = start_stats.query;
  const double hits = static_cast<double>(qa.cache_hits - q0.cache_hits);
  const double misses = static_cast<double>(qa.cache_misses - q0.cache_misses);
  std::printf("cold_query: pool=%zu corpus_key_frames=%zu repeat_share=%.4f "
              "two_stage_queries=%llu\n",
              pool, stack->engine()->indexed_key_frames(),
              hits / std::max(1.0, hits + misses),
              static_cast<unsigned long long>(qa.two_stage_queries));

  // Oracles, after the timed phase. A stored key frame's own pixels
  // return that frame first at score 0.
  const std::vector<StoredFrame> stored = ScanStore(stack->engine());
  vr::Rng pick_stored(args.seed ^ 0x5E1Fu);
  for (int i = 0; i < 8; ++i) {
    const StoredFrame& frame = stored[static_cast<size_t>(
        pick_stored.UniformInt(0, static_cast<int64_t>(stored.size()) - 1))];
    const vr::KeyFrameRecord record =
        Take(stack->engine()->store()->GetKeyFrame(frame.i_id), "GetKeyFrame");
    const vr::Image image = Take(
        vr::DecodePnm(std::string(record.image.begin(), record.image.end())),
        "decode stored key frame");
    vr::Result<vr::ServiceResponse> response = clients[0]->Query(image, kTopK);
    RecordQuery(ops, response.status(),
                response.ok() ? response->status : vr::Status::OK());
    bool self_first = response.ok() && response->status.ok() &&
                      !response->results.empty() &&
                      response->results[0].score == 0.0;
    bool found = false;
    if (self_first) {
      for (const vr::QueryResult& r : response->results) {
        found = found || (r.i_id == frame.i_id && r.score == 0.0);
      }
    }
    verdict.Expect(self_first && found,
                   vr::StringPrintf("key frame %lld does not find itself at 0",
                                    static_cast<long long>(frame.i_id)));
  }
  clients.clear();
  std::unique_ptr<vr::RetrievalEngine> engine = stack->Release();
  stack.reset();

  // Reference ranking for every distinct query frame, spread over the
  // cores, then every reply against it.
  ProbeCorpus corpus;
  FillProbeCorpus(stored, &corpus);
  std::vector<Reply> replies = std::move(untraced.replies);
  for (Reply& r : traced.replies) replies.push_back(std::move(r));
  for (Reply& r : warmup.replies) replies.push_back(std::move(r));
  std::vector<bool> asked(pool, false);
  for (const Reply& r : replies) asked[r.query] = true;
  std::vector<std::vector<Hit>> reference(pool);
  {
    std::vector<vr::Thread> threads;
    for (size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        for (size_t q = t; q < pool; q += kClients) {
          if (asked[q]) {
            reference[q] = ReferenceRanking(frames[q], options, stored, corpus);
          }
        }
      });
    }
    for (vr::Thread& t : threads) t.join();
  }
  const double kinds = static_cast<double>(options.enabled_features.size());
  double relevant = 0.0;
  for (const Reply& r : replies) {
    verdict.Expect(SameRanking(r.hits, reference[r.query]),
                   vr::StringPrintf("query %u differs from the reference", r.query));
    verdict.Expect(ScoresOrdered(r.hits, 0.0, kinds),
                   vr::StringPrintf("query %u scores unordered or out of range",
                                    r.query));
    const auto want = static_cast<vr::VideoCategory>(r.query % vr::kNumCategories);
    for (const Hit& h : r.hits) relevant += category_of.at(h.v_id) == want ? 1 : 0;
  }
  const double precision =
      relevant / (static_cast<double>(kTopK) * std::max<size_t>(1, replies.size()));
  verdict.Expect(precision > 1.0 / vr::kNumCategories,
                 vr::StringPrintf("precision@20 %.3f is not above chance", precision));

  // Layer probes (traced run only).
  LayerSamples samples;
  TraceBuffer probe_trace(args.trace);
  if (args.trace) {
    const auto extractors = MakeExtractors(options.enabled_features);
    std::vector<const vr::FeatureExtractor*> plan_extractors;
    for (vr::FeatureKind kind : options.enabled_features) {
      plan_extractors.push_back(extractors[static_cast<size_t>(kind)].get());
    }
    vr::ExtractionPlan plan(plan_extractors);
    vr::CombinedScorer scorer;
    scorer.SetNormalization(options.normalization);
    for (size_t p = 0; p < std::min(kProbeQueries, pool); ++p) {
      ScopedSpan root(&probe_trace, "probe", p);
      const Extracted ex =
          ProbeExtract(&plan, frames[order[p]], p, &probe_trace, &samples);
      const std::vector<uint32_t> rows =
          ProbeLookup(corpus.index, corpus.row_of, ex.range,
                      corpus.matrix.rows(), p, &probe_trace, &samples);
      ProbeSimilarity(extractors, options.enabled_features, corpus.matrix,
                      ex.features, rows, scorer, p, &probe_trace, &samples);
    }
    const vr::KeyFrameExtractor detector(options.keyframe);
    for (size_t i = 0; i < std::min<size_t>(4, clips.size()); ++i) {
      ScopedSpan root(&probe_trace, "probe", kProbeQueries + i);
      ProbeVideo(clips[i].path, detector, *engine, kProbeQueries + i,
                 &probe_trace, &samples);
    }
  }
  engine.reset();
  const uint64_t store_bytes = DirBytes(dir->path());
  const double reopen_s = MeasureReopen(dir->path(), options, stored.size(), &verdict);

  if (args.trace) {
    service.traced = &traced;
    service.untraced = &untraced;
    ReportLayers(samples, load.figures, service, store_bytes, stored.size(),
                 {&probe_trace}, &out->layers);
  }
  out->e2e.Set("setup_s", Median(setup_s), "s");
  ReportQueryMetrics(untraced, &out->e2e);
  out->e2e.Set("ingest_frames_per_s", Median(ingest_rate), "frames/s");
  out->e2e.Set("reopen_s", reopen_s, "s");
  out->e2e.Set("store_mb", static_cast<double>(store_bytes) / (1024.0 * 1024.0),
               "MiB");
  out->e2e.Set("precision_at_20", precision, "ratio");
  out->correct = verdict.ok();
}

}  // namespace vrbench

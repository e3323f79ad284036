/// \file ingest_pipeline_test.cc
/// \brief IngestPipeline correctness: the determinism contract (parallel
/// ingest is byte-identical to serial), ticket ordering, error
/// isolation, and — in the *Concurrency* suite, which
/// scripts/check_tsan.sh runs under ThreadSanitizer — bulk ingest
/// racing live queries through a RetrievalService.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "retrieval/engine.h"
#include "retrieval/ingest_pipeline.h"
#include "service/service.h"
#include "test_dir.h"
#include "video/synth/generator.h"
#include "video/video_writer.h"

namespace vr {
namespace {

std::vector<Image> TinyVideo(VideoCategory category, uint64_t seed) {
  SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = 64;
  spec.height = 48;
  spec.num_scenes = 2;
  spec.frames_per_scene = 6;
  spec.seed = seed;
  return GenerateVideoFrames(spec).value();
}

/// Cheap-but-representative engine config: two fast features plus
/// region growing (so MAJORREGIONS is exercised), blobs on so the
/// VIDEO column is byte-compared too.
EngineOptions TestOptions() {
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm,
                              FeatureKind::kRegionGrowing};
  options.store_video_blob = true;
  options.use_index = false;
  return options;
}

/// Asserts that two stores hold byte-identical VIDEO_STORE and
/// KEY_FRAMES contents (every column, including encoded image and
/// video blobs and the serialized feature strings).
void ExpectStoresIdentical(VideoStore* a, VideoStore* b) {
  ASSERT_EQ(a->VideoCount().value(), b->VideoCount().value());
  ASSERT_EQ(a->KeyFrameCount().value(), b->KeyFrameCount().value());

  const std::vector<VideoRecord> videos = a->ListVideos().value();
  for (const VideoRecord& va : videos) {
    const VideoRecord full_a = a->GetVideo(va.v_id).value();
    const auto full_b_result = b->GetVideo(va.v_id);
    ASSERT_TRUE(full_b_result.ok())
        << "video " << va.v_id << " missing from second store";
    const VideoRecord& full_b = full_b_result.value();
    EXPECT_EQ(full_a.v_name, full_b.v_name);
    EXPECT_EQ(full_a.dostore, full_b.dostore);
    EXPECT_EQ(full_a.stream, full_b.stream) << "video " << va.v_id;
    EXPECT_EQ(full_a.video, full_b.video) << "video " << va.v_id;

    const auto ids_a = a->KeyFrameIdsOfVideo(va.v_id).value();
    const auto ids_b = b->KeyFrameIdsOfVideo(va.v_id).value();
    ASSERT_EQ(ids_a, ids_b) << "video " << va.v_id;
    for (int64_t i_id : ids_a) {
      const KeyFrameRecord ka = a->GetKeyFrame(i_id).value();
      const KeyFrameRecord kb = b->GetKeyFrame(i_id).value();
      EXPECT_EQ(ka.i_name, kb.i_name);
      EXPECT_EQ(ka.image, kb.image) << "key frame " << i_id;
      EXPECT_EQ(ka.min, kb.min);
      EXPECT_EQ(ka.max, kb.max);
      EXPECT_EQ(ka.major_regions, kb.major_regions);
      EXPECT_EQ(ka.v_id, kb.v_id);
      ASSERT_EQ(ka.features.size(), kb.features.size());
      for (const auto& [kind, vec] : ka.features) {
        auto it = kb.features.find(kind);
        ASSERT_NE(it, kb.features.end());
        EXPECT_EQ(vec.ToString(), it->second.ToString())
            << "key frame " << i_id << " feature "
            << FeatureKindName(kind);
      }
    }
  }
}

class IngestPipelineTest : public ::testing::Test {
 protected:
  /// A path inside this test's own directory, for one store or file.
  std::string TestDir(const char* suffix) const {
    return test_dir_.path() + "/" + suffix;
  }

  ScopedTestDir test_dir_;
};

TEST_F(IngestPipelineTest, ParallelMatchesSerialByteForByte) {
  constexpr int kVideos = 6;
  std::vector<std::vector<Image>> corpus;
  for (int i = 0; i < kVideos; ++i) {
    corpus.push_back(TinyVideo(static_cast<VideoCategory>(i % kNumCategories),
                               100 + static_cast<uint64_t>(i)));
  }

  // Reference: plain serial ingest in submission order.
  auto serial = RetrievalEngine::Open(TestDir("serial"), TestOptions()).value();
  for (int i = 0; i < kVideos; ++i) {
    ASSERT_TRUE(
        serial->IngestFrames(corpus[i], "video_" + std::to_string(i)).ok());
  }

  // Same corpus through the pipeline at two worker counts.
  for (size_t workers : {size_t{1}, size_t{4}}) {
    auto engine =
        RetrievalEngine::Open(TestDir(workers == 1 ? "w1" : "w4"),
                              TestOptions())
            .value();
    IngestPipelineOptions options;
    options.workers = workers;
    IngestPipeline pipeline(engine.get(), options);
    for (int i = 0; i < kVideos; ++i) {
      IngestJob job;
      job.name = "video_" + std::to_string(i);
      job.frames = corpus[i];
      EXPECT_EQ(pipeline.Submit(std::move(job)),
                static_cast<uint64_t>(i));
    }
    const auto& results = pipeline.Finish();
    ASSERT_EQ(results.size(), static_cast<size_t>(kVideos));
    for (int i = 0; i < kVideos; ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      // Deterministic id assignment: ticket i owns v_id i + 1.
      EXPECT_EQ(*results[i], i + 1);
    }
    ExpectStoresIdentical(serial->store(), engine->store());
  }
}

TEST_F(IngestPipelineTest, FilePathJobsDecodeOnWorkers) {
  const std::string dir = TestDir("db");
  const std::string vsv = dir + "_clip.vsv";
  const std::vector<Image> frames = TinyVideo(VideoCategory::kNews, 7);
  {
    VideoWriter writer;
    ASSERT_TRUE(writer
                    .Open(vsv, frames[0].width(), frames[0].height(),
                          frames[0].channels(), 12)
                    .ok());
    for (const Image& f : frames) ASSERT_TRUE(writer.Append(f).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto engine = RetrievalEngine::Open(dir, TestOptions()).value();
  IngestPipeline pipeline(engine.get(), {});
  IngestJob job;
  job.name = "from_file";
  job.path = vsv;
  pipeline.Submit(std::move(job));
  const auto& results = pipeline.Finish();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_GT(engine->store()->KeyFrameCount().value(), 0u);
  EXPECT_GT(engine->ingest_stats().frames_decoded, 0u);
}

TEST_F(IngestPipelineTest, ErrorIsolatedToItsTicket) {
  auto engine = RetrievalEngine::Open(TestDir("db"), TestOptions()).value();
  IngestPipelineOptions options;
  options.workers = 2;
  IngestPipeline pipeline(engine.get(), options);

  IngestJob good1;
  good1.name = "good1";
  good1.frames = TinyVideo(VideoCategory::kSports, 1);
  IngestJob bad;
  bad.name = "bad";
  bad.path = "/nonexistent/clip.vsv";
  IngestJob good2;
  good2.name = "good2";
  good2.frames = TinyVideo(VideoCategory::kNews, 2);

  pipeline.Submit(std::move(good1));
  pipeline.Submit(std::move(bad));
  pipeline.Submit(std::move(good2));
  const auto& results = pipeline.Finish();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  // A failed job consumes no ids: the survivors get 1 and 2.
  EXPECT_EQ(*results[0], 1);
  EXPECT_EQ(*results[2], 2);

  const IngestPipelineStats stats = pipeline.GetStats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.committed, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.engine.videos_ingested, 2u);
  EXPECT_GT(stats.engine.keyframes_kept, 0u);
  EXPECT_GT(stats.engine.extract_ms, 0.0);
}

TEST_F(IngestPipelineTest, SubmitAfterFinishFailsCleanly) {
  auto engine = RetrievalEngine::Open(TestDir("db"), TestOptions()).value();
  IngestPipeline pipeline(engine.get(), {});
  (void)pipeline.Finish();
  IngestJob job;
  job.name = "late";
  job.frames = TinyVideo(VideoCategory::kSports, 3);
  const uint64_t ticket = pipeline.Submit(std::move(job));
  const auto& results = pipeline.Finish();
  ASSERT_GT(results.size(), ticket);
  EXPECT_FALSE(results[ticket].ok());
}

/// Bulk ingest racing live queries; scripts/check_tsan.sh runs this
/// suite under ThreadSanitizer (the suite name matches its filter).
class IngestConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.enabled_features = {FeatureKind::kColorHistogram,
                                FeatureKind::kGlcm};
    options.store_video_blob = false;
    options.use_index = false;
    engine_ = RetrievalEngine::Open(dir_, options).value();
    // One pre-ingested video so queries have answers from the start.
    ASSERT_TRUE(
        engine_->IngestFrames(TinyVideo(VideoCategory::kSports, 42), "base")
            .ok());
  }

  void TearDown() override {
    engine_.reset();
  }

  ScopedTestDir test_dir_;
  const std::string dir_ = test_dir_.path();
  std::unique_ptr<RetrievalEngine> engine_;
};

TEST_F(IngestConcurrencyTest, BulkIngestRacesLiveQueries) {
  constexpr int kVideos = 6;
  ServiceOptions service_options;
  service_options.num_workers = 2;
  RetrievalService service(engine_.get(), service_options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  const Image probe = TinyVideo(VideoCategory::kSports, 43)[0];
  std::thread querier([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ServiceRequest request;
      request.image = probe;
      request.k = 5;
      const ServiceResponse response = service.Query(request);
      // Overload rejection is fine under the race; real failures are not.
      if (!response.status.ok() && !response.status.IsUnavailable()) {
        query_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  IngestPipelineOptions options;
  options.workers = 2;
  IngestPipeline pipeline(engine_.get(), options);
  for (int i = 0; i < kVideos; ++i) {
    IngestJob job;
    job.name = "race_" + std::to_string(i);
    job.frames = TinyVideo(static_cast<VideoCategory>(i % kNumCategories),
                           200 + static_cast<uint64_t>(i));
    pipeline.Submit(std::move(job));
  }
  const auto& results = pipeline.Finish();
  stop.store(true, std::memory_order_release);
  querier.join();

  for (const auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(query_errors.load(), 0u);
  // Stats RPC surface reflects the bulk load.
  const ServiceStatsSnapshot snapshot = service.GetStats();
  EXPECT_EQ(snapshot.ingest.videos_ingested,
            static_cast<uint64_t>(kVideos) + 1);
  EXPECT_GT(snapshot.ingest.keyframes_kept, 0u);
}

}  // namespace
}  // namespace vr

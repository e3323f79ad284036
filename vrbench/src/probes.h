/// \file probes.h
/// \brief Layer probes: the benchmark calls each module's public
/// functions on the workload's own inputs, inside spans, to split a
/// query or an ingest into per-module times. The engine runs the same
/// functions behind the server; the probes time them from outside.

#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "features/plan/extraction_plan.h"
#include "harness.h"
#include "index/range_bucket_index.h"
#include "keyframe/keyframe_extractor.h"
#include "retrieval/feature_matrix.h"
#include "retrieval/ingest_pipeline.h"
#include "similarity/combined_scorer.h"
#include "util/thread.h"

namespace vrbench {

/// The extractors of \p kinds, indexed by FeatureKind (null elsewhere).
std::array<std::unique_ptr<vr::FeatureExtractor>, vr::kNumFeatureKinds>
MakeExtractors(const std::vector<vr::FeatureKind>& kinds);

/// Per-layer figures the probes accumulate over a run; medians per call.
struct LayerSamples {
  std::vector<double> bank_ms;
  std::vector<double> intermediates_ms;
  std::map<vr::FeatureKind, std::vector<double>> extractor_ms;
  std::vector<double> find_range_us;
  std::vector<double> lookup_us;
  std::vector<double> candidate_ratio;
  std::vector<double> code_scan_ns_per_row;
  std::vector<double> exact_ns_per_row;
  std::vector<double> fusion_us;
  std::vector<double> decode_ms;
  std::vector<double> detect_ms;
  std::vector<double> encode_ms;
  uint64_t frames = 0;
  uint64_t key_frames = 0;
};

/// features + index probe on one frame: fused extraction with its
/// per-extractor timings, then the range finder on the plan's histogram.
/// Returns the features and the frame's range.
struct Extracted {
  vr::FeatureMap features;
  vr::GrayRange range;
};
Extracted ProbeExtract(vr::ExtractionPlan* plan, const vr::Image& image,
                       uint64_t qid, TraceBuffer* trace,
                       LayerSamples* samples);

/// index probe: a bucket lookup over an index the benchmark filled from
/// the stored ranges. Returns candidate matrix rows.
std::vector<uint32_t> ProbeLookup(const vr::RangeBucketIndex& index,
                                  const std::map<int64_t, uint32_t>& row_of,
                                  const vr::GrayRange& range, size_t total,
                                  uint64_t qid, TraceBuffer* trace,
                                  LayerSamples* samples);

/// similarity probe over \p candidates of \p matrix: the coarse code
/// scan (kinds with a code kernel), the exact batch distances, and the
/// fusion of the distance columns under \p scorer.
void ProbeSimilarity(
    const std::array<std::unique_ptr<vr::FeatureExtractor>,
                     vr::kNumFeatureKinds>& extractors,
    const std::vector<vr::FeatureKind>& kinds, const vr::FeatureMatrix& matrix,
    const vr::FeatureMap& query, const std::vector<uint32_t>& candidates,
    const vr::CombinedScorer& scorer, uint64_t qid, TraceBuffer* trace,
    LayerSamples* samples);

/// video + keyframe probe on one .vsv file: decode, key-frame detection
/// and the engine's blob re-encode. Returns the key frames.
std::vector<vr::KeyFrame> ProbeVideo(const std::string& path,
                                     const vr::KeyFrameExtractor& detector,
                                     const vr::RetrievalEngine& engine,
                                     uint64_t qid, TraceBuffer* trace,
                                     LayerSamples* samples);

/// Decodes \p path and counts its key frames (the ingest oracle).
size_t CountKeyFrames(const std::string& path,
                      const vr::KeyFrameExtractor& detector);

/// Polls an ingest pipeline's queue depths until stopped.
class QueueSampler {
 public:
  explicit QueueSampler(const vr::IngestPipeline* pipeline);
  ~QueueSampler();
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;
  /// Stops polling; returns mean worker and commit queue depths.
  std::pair<double, double> Stop();

 private:
  const vr::IngestPipeline* pipeline_;
  std::atomic<bool> stop_{false};
  double worker_sum_ = 0.0;
  double commit_sum_ = 0.0;
  uint64_t polls_ = 0;
  vr::Thread thread_;
};

/// Ingest-side engine figures of one ingest (IngestStats deltas).
struct IngestFigures {
  double commit_ms_per_video = 0.0;
  double extract_ms_per_key_frame = 0.0;
  double worker_queue_depth = 0.0;
  double commit_queue_depth = 0.0;
};
IngestFigures IngestDelta(const vr::IngestStats& before,
                          const vr::IngestStats& after,
                          std::pair<double, double> queue_depths);

/// Fills \p metrics with every per-layer metric: the probes' medians,
/// the engine/service counter deltas and the span self times.
struct ServiceFigures {
  vr::ServiceStatsSnapshot before;  ///< stats RPC before the traced phase
  vr::ServiceStatsSnapshot after;   ///< and after it
  const LoopResult* traced = nullptr;
  const LoopResult* untraced = nullptr;
};
void ReportLayers(const LayerSamples& samples, const IngestFigures& ingest,
                  const ServiceFigures& service, uint64_t store_bytes,
                  size_t key_frames,
                  const std::vector<const TraceBuffer*>& probe_traces,
                  Metrics* metrics);

}  // namespace vrbench

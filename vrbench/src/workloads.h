/// \file workloads.h
/// \brief The three workloads of vr-bench and the helpers they share.

#pragma once

#include <string>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "video/synth/scene.h"

namespace vrbench {

/// Queries (or clips) the traced run pushes through the layer probes.
inline constexpr size_t kProbeQueries = 16;

/// A workload fills both metric sets; --trace picks which one prints.
struct WorkloadResult {
  Metrics e2e;     ///< untraced end-to-end metrics
  Metrics layers;  ///< per-layer metrics of the traced run
  bool correct = true;
};

void RunColdQuery(const Args& args, Ops* ops, WorkloadResult* out);
void RunArchiveById(const Args& args, Ops* ops, WorkloadResult* out);
void RunIngestWithQueries(const Args& args, Ops* ops, WorkloadResult* out);

/// Collects oracle mismatches: prints the first few, counts them all.
class Verdict {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  uint64_t failures_ = 0;
};

/// One seeded .vsv clip written for the Administrator path.
struct Footage {
  std::string path;
  vr::VideoCategory category = vr::VideoCategory::kMovie;
  size_t frames = 0;
};

/// Writes \p count clips of \p width x \p height, \p scenes shots of
/// \p frames_per_scene frames each, categories cycling through the five.
std::vector<Footage> WriteFootage(const std::string& dir, const char* prefix,
                                  size_t count, int width, int height,
                                  int scenes, int frames_per_scene,
                                  uint64_t seed);

/// Copies the regular files of \p from into the existing \p to.
void CopyDir(const std::string& from, const std::string& to);

/// Bulk-loads \p clips through an IngestPipeline with \p workers workers.
struct IngestRun {
  std::vector<int64_t> v_ids;  ///< per clip, in order
  double seconds = 0.0;
  size_t frames = 0;  ///< source frames of the committed clips
  IngestFigures figures;
};
IngestRun IngestFootage(vr::RetrievalEngine* engine,
                        const std::vector<Footage>& clips, size_t workers,
                        const std::string& name_prefix, Ops* ops);

/// A stored key frame's id, owner, range and features.
struct StoredFrame {
  int64_t i_id = 0;
  int64_t v_id = 0;
  vr::GrayRange range;
  vr::FeatureMap features;
};
std::vector<StoredFrame> ScanStore(vr::RetrievalEngine* engine);

/// Everything the probes need over a stored corpus.
struct ProbeCorpus {
  vr::FeatureMatrix matrix;
  vr::RangeBucketIndex index;
  std::map<int64_t, uint32_t> row_of;
};
void FillProbeCorpus(const std::vector<StoredFrame>& frames, ProbeCorpus* out);

/// Reference top-k: sort (score, i_id) ascending, NaN last.
std::vector<Hit> TopK(std::vector<Hit> all, size_t k);

/// Compares a reply with the reference ranking: ids position by
/// position, scores within a relative tolerance; a differing id is
/// accepted only as a tie with the reference's k-th score.
bool SameRanking(const std::vector<Hit>& got, const std::vector<Hit>& want);

/// Scores ascending and inside [lo, hi].
bool ScoresOrdered(const std::vector<Hit>& hits, double lo, double hi);

/// Warm reopens of \p dir; returns the median seconds and checks the
/// key-frame count survives each.
double MeasureReopen(const std::string& dir, const vr::EngineOptions& options,
                     size_t expect_key_frames, Verdict* verdict);

/// setup_s, the query metrics and peak_rss_mb: shared end-to-end rows.
void ReportQueryMetrics(const LoopResult& loop, Metrics* metrics);

}  // namespace vrbench

// The clip scheduler (EvaluateConfig). Equivalence: on a 4-lane pool it
// must reproduce sequential per-clip Pipeline::Run bit for bit (same
// tracks, same simulated clock, same run counters) for every tuner
// configuration. Fault recovery: with OTIF_FAULTS style specs installed,
// the stages must retry transient model-invocation errors in place, the
// scheduler must quarantine a clip whose detector keeps failing (every
// other clip completes bit-identically), and a clip whose proxy keeps
// failing must be re-run without the proxy, equal to the no-proxy run bit
// for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "models/detector.h"
#include "sim/dataset.h"
#include "sim/raster.h"
#include "track/refine.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace otif::core {
namespace {

std::vector<sim::Clip> MakeClips(int n = 3, int frames = 120) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < n; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 1, c), frames));
  }
  return clips;
}

/// Trained artifacts (same recipe as the pipeline stage determinism tests):
/// a lightly trained proxy, a deterministically seeded recurrent tracker
/// net, and a hand-picked window set.
std::unique_ptr<TrainedModels> MakeTrained(
    const std::vector<sim::Clip>& clips) {
  auto trained = std::make_unique<TrainedModels>();
  const auto resolutions = models::StandardProxyResolutions();
  auto proxy = std::make_unique<models::ProxyModel>(resolutions[0], 1234);

  models::SimulatedDetector detector(models::ArchByName(
      models::StandardDetectorArchs(), "yolov3"));
  sim::Rasterizer raster(&clips[0]);
  int next_frame = 0;
  auto sampler = [&]() {
    const int f = next_frame;
    next_frame = (next_frame + 7) % clips[0].num_frames();
    models::ProxySample s;
    s.frame = raster.Render(f, proxy->resolution().raster_w(),
                            proxy->resolution().raster_h());
    s.labels = proxy->MakeLabels(
        models::FilterByConfidence(detector.Detect(clips[0], f, 1.0), 0.4),
        clips[0].spec().width, clips[0].spec().height);
    return s;
  };
  models::TrainProxyModel(proxy.get(), sampler, 24);
  trained->proxies.push_back(std::move(proxy));
  trained->tracker_net = std::make_unique<models::TrackerNet>(99);
  trained->window_sizes = {WindowSize{64, 64}, WindowSize{128, 96},
                           WindowSize{224, 160}};
  return trained;
}

/// Builds a refiner the way Otif::Prepare does (clusters from a track set,
/// spatial parameters scaled to the clip resolution), using SORT tracks as
/// the stand-in for S*.
void AttachRefiner(TrainedModels* trained,
                   const std::vector<sim::Clip>& clips) {
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  Pipeline pipeline(config, nullptr);
  std::vector<track::Track> all;
  for (const sim::Clip& clip : clips) {
    const PipelineResult r = *pipeline.Run(clip);
    all.insert(all.end(), r.tracks.begin(), r.tracks.end());
  }
  const double dim = std::max(clips[0].spec().width, clips[0].spec().height);
  track::DbscanOptions dbscan;
  dbscan.epsilon = 0.04 * dim;
  track::TrackRefiner::Options opts;
  opts.max_cluster_distance = 0.12 * dim;
  opts.index_cell_px = 0.05 * dim;
  trained->refiner = std::make_unique<track::TrackRefiner>(
      track::ClusterTracks(all, dbscan), opts);
}

/// Counts tracks over all clips; any accuracy function works, it only has
/// to be a pure function of the tracks.
AccuracyFn TrackCountFn() {
  return [](const std::vector<std::vector<track::Track>>& tracks) {
    size_t n = 0;
    for (const auto& clip : tracks) n += clip.size();
    return static_cast<double>(n);
  };
}

void ExpectSameTracks(const std::vector<track::Track>& a,
                      const std::vector<track::Track>& b, size_t clip) {
  ASSERT_EQ(a.size(), b.size()) << "clip " << clip;
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].id, b[t].id);
    EXPECT_EQ(a[t].cls, b[t].cls);
    ASSERT_EQ(a[t].detections.size(), b[t].detections.size());
    for (size_t d = 0; d < a[t].detections.size(); ++d) {
      const track::Detection& da = a[t].detections[d];
      const track::Detection& db = b[t].detections[d];
      EXPECT_EQ(da.frame, db.frame);
      EXPECT_EQ(da.box.cx, db.box.cx);
      EXPECT_EQ(da.box.cy, db.box.cy);
      EXPECT_EQ(da.box.w, db.box.w);
      EXPECT_EQ(da.box.h, db.box.h);
      EXPECT_EQ(da.confidence, db.confidence);
    }
  }
}

/// Exact equality of a scheduler result against per-clip references: clip
/// c's slot holds expected[c]'s tracks bit for bit (an empty slot where
/// expected[c] is null, i.e. the clip was quarantined), and the simulated
/// clock equals the references merged in clip order.
void ExpectMatches(const std::vector<const PipelineResult*>& expected,
                   const EvalResult& got) {
  ASSERT_EQ(got.tracks_per_clip.size(), expected.size());
  models::SimClock clock;
  for (size_t c = 0; c < expected.size(); ++c) {
    if (expected[c] == nullptr) {
      EXPECT_TRUE(got.tracks_per_clip[c].empty()) << "clip " << c;
      continue;
    }
    clock.Merge(expected[c]->clock);
    ExpectSameTracks(expected[c]->tracks, got.tracks_per_clip[c], c);
  }
  for (int cat = 0; cat < models::kNumCostCategories; ++cat) {
    const auto category = static_cast<models::CostCategory>(cat);
    EXPECT_EQ(clock.Seconds(category), got.clock.Seconds(category))
        << "category " << cat;
  }
}

int64_t CounterValue(const std::string& name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Exact equality of two scheduler results: tracks per clip, clock,
/// accuracy and the recovery reports.
void ExpectSameEval(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.seconds, b.seconds);
  for (int cat = 0; cat < models::kNumCostCategories; ++cat) {
    const auto category = static_cast<models::CostCategory>(cat);
    EXPECT_EQ(a.clock.Seconds(category), b.clock.Seconds(category))
        << "category " << cat;
  }
  EXPECT_EQ(a.degraded_clips, b.degraded_clips);
  EXPECT_EQ(a.failed_clips.size(), b.failed_clips.size());
  ASSERT_EQ(a.tracks_per_clip.size(), b.tracks_per_clip.size());
  for (size_t c = 0; c < a.tracks_per_clip.size(); ++c) {
    ExpectSameTracks(a.tracks_per_clip[c], b.tracks_per_clip[c], c);
  }
}

// The equivalence suites keep the names they had when they compared the
// streaming executor (since deleted) against this same reference.
class StreamingExecutorEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetDefaultThreads(1); }

  /// Sequential per-clip reference at 1 thread vs the scheduler at a
  /// 4-lane pool; every observable must agree exactly. The per-clip frame
  /// and detection counts, which EvalResult does not keep, are compared
  /// through the run counters the pipeline records.
  void CheckConfig(const PipelineConfig& config,
                   const TrainedModels* trained) {
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    Pipeline pipeline(config, trained);
    std::vector<PipelineResult> reference;
    int64_t frames = 0;
    int64_t detections = 0;
    std::vector<std::vector<track::Track>> tracks;
    for (const sim::Clip& clip : clips_) {
      reference.push_back(*pipeline.Run(clip));
      frames += reference.back().frames_processed;
      detections += reference.back().detections_kept;
      tracks.push_back(reference.back().tracks);
    }

    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    const bool was_enabled = telemetry::Enabled();
    telemetry::SetEnabled(true);
    const int64_t runs_before = CounterValue("pipeline.runs");
    const int64_t frames_before = CounterValue("pipeline.frames");
    const int64_t detections_before = CounterValue("pipeline.detections_kept");
    const EvalResult result =
        EvaluateConfig(config, trained, clips_, TrackCountFn());
    EXPECT_EQ(CounterValue("pipeline.runs") - runs_before,
              static_cast<int64_t>(clips_.size()));
    EXPECT_EQ(CounterValue("pipeline.frames") - frames_before, frames);
    EXPECT_EQ(CounterValue("pipeline.detections_kept") - detections_before,
              detections);
    telemetry::SetEnabled(was_enabled);

    EXPECT_TRUE(result.failed_clips.empty());
    EXPECT_TRUE(result.degraded_clips.empty());
    EXPECT_EQ(result.accuracy, TrackCountFn()(tracks));
    EXPECT_EQ(result.seconds, result.clock.TotalSeconds());
    std::vector<const PipelineResult*> expected;
    for (const PipelineResult& r : reference) expected.push_back(&r);
    ExpectMatches(expected, result);
  }

  std::vector<sim::Clip> clips_ = MakeClips();
};

TEST_F(StreamingExecutorEquivalenceTest, SortNoProxy) {
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.frame_batch = 4;
  CheckConfig(config, nullptr);
}

TEST_F(StreamingExecutorEquivalenceTest, SortNoProxyDerivedDefaultOptions) {
  // Every field but the tracker at its PipelineConfig default.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  CheckConfig(config, nullptr);
}

TEST_F(StreamingExecutorEquivalenceTest, SortWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest, RecurrentNoProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.sampling_gap = 4;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest, RecurrentWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest, ProxySkipsDetectorFrames) {
  // A high threshold makes the proxy reject most frames, so detect batches
  // have ragged (often zero) window counts.
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.use_proxy = true;
  config.proxy_threshold = 0.9;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest, RaggedSamplingGap) {
  // Gap 7 does not divide 120: the last batch of every clip is partial.
  PipelineConfig config;
  config.sampling_gap = 7;
  config.frame_batch = 4;
  CheckConfig(config, nullptr);
}

TEST_F(StreamingExecutorEquivalenceTest, FrameBatchExceedsSampledFrames) {
  // ceil(120 / 32) = 4 sampled frames, far below the frame batch: each clip
  // is a single partial batch.
  PipelineConfig config;
  config.sampling_gap = 32;
  config.frame_batch = 64;
  CheckConfig(config, nullptr);
}

TEST_F(StreamingExecutorEquivalenceTest, ScaledDetector) {
  PipelineConfig config;
  config.detector_scale = 0.59;
  config.sampling_gap = 2;
  CheckConfig(config, nullptr);
}

TEST_F(StreamingExecutorEquivalenceTest, RefineEnabled) {
  const auto trained = MakeTrained(clips_);
  AttachRefiner(trained.get(), clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  config.refine = true;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest,
       DetectorFillHistogramAccountsEverySampledFrame) {
  // Without the proxy every sampled frame of every clip reaches a detector
  // invocation exactly once, so the invocation-size histogram's sum must
  // grow by the total sampled-frame count.
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::Histogram* fill =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "detect.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  const double sum_before = fill->sum();

  PipelineConfig config;
  config.sampling_gap = 2;
  config.frame_batch = 4;
  ThreadPool::SetDefaultThreads(4);
  const EvalResult result =
      EvaluateConfig(config, nullptr, clips_, TrackCountFn());
  EXPECT_TRUE(result.failed_clips.empty());

  int sampled = 0;
  for (const sim::Clip& clip : clips_) {
    sampled += (clip.num_frames() + config.sampling_gap - 1) /
               config.sampling_gap;
  }
  EXPECT_EQ(fill->sum() - sum_before, static_cast<double>(sampled));
  telemetry::SetEnabled(was_enabled);
}

TEST_F(StreamingExecutorEquivalenceTest, ExecutorIsReusableAcrossRuns) {
  // One config evaluated twice on the same pool gives the same result.
  PipelineConfig config;
  config.sampling_gap = 4;
  ThreadPool::SetDefaultThreads(4);
  const EvalResult first =
      EvaluateConfig(config, nullptr, clips_, TrackCountFn());
  const EvalResult second =
      EvaluateConfig(config, nullptr, clips_, TrackCountFn());
  ExpectSameEval(first, second);
}

TEST(StreamingExecutorTest, EmptyClipListReturnsEmpty) {
  PipelineConfig config;
  const EvalResult result = EvaluateConfig(config, nullptr, {}, TrackCountFn());
  EXPECT_TRUE(result.tracks_per_clip.empty());
  EXPECT_TRUE(result.failed_clips.empty());
  EXPECT_TRUE(result.degraded_clips.empty());
  EXPECT_EQ(result.seconds, 0.0);
  EXPECT_EQ(result.accuracy, 0.0);
}

class ClipSchedulerFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::ClearFaults();
    ThreadPool::SetDefaultThreads(1);
  }

  /// Fault-free per-clip reference: Pipeline::Run on one thread.
  std::vector<PipelineResult> RunReference(const PipelineConfig& config,
                                           const TrainedModels* trained) {
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    Pipeline pipeline(config, trained);
    std::vector<PipelineResult> results;
    for (const sim::Clip& clip : clips_) results.push_back(*pipeline.Run(clip));
    return results;
  }

  /// The scheduler under test, on a 4-lane pool.
  EvalResult RunScheduler(const PipelineConfig& config,
                          const TrainedModels* trained) {
    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    return EvaluateConfig(config, trained, clips_, TrackCountFn());
  }

  static std::vector<const PipelineResult*> All(
      const std::vector<PipelineResult>& results) {
    std::vector<const PipelineResult*> out;
    for (const PipelineResult& r : results) out.push_back(&r);
    return out;
  }

  std::vector<sim::Clip> clips_ = MakeClips();
};

TEST_F(ClipSchedulerFaultTest, QuarantineReportsFailedClipCompletesRest) {
  // Clip 1's detector invocations always fail: the stage must exhaust the
  // retry budget, the scheduler must quarantine clip 1, and clips 0 and 2
  // must still come back bit-identical to the reference.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const std::vector<PipelineResult> reference = RunReference(config, nullptr);

  ASSERT_TRUE(fault::ConfigureFaults("detect.invoke:error:1:7:clip=1").ok());
  const int64_t quarantined_before = CounterValue("executor.quarantined_clips");
  const EvalResult result = RunScheduler(config, nullptr);

  ASSERT_EQ(result.failed_clips.size(), 1u);
  EXPECT_EQ(result.failed_clips[0].clip_index, 1);
  EXPECT_EQ(result.failed_clips[0].status.code(), StatusCode::kIoError);
  EXPECT_GT(result.failed_clips[0].retries, 0);
  EXPECT_EQ(CounterValue("executor.quarantined_clips"),
            quarantined_before + 1);
  EXPECT_TRUE(result.degraded_clips.empty());

  // The quarantined slot stays positional but empty.
  ExpectMatches({&reference[0], nullptr, &reference[2]}, result);
}

TEST_F(ClipSchedulerFaultTest, TransientErrorsRetryToBitIdenticalRun) {
  // A moderate error rate makes many invocations fail once or twice, but
  // the per-attempt token reroll means no batch exhausts all attempts
  // (deterministic for a fixed seed). The run must succeed with results
  // bit-identical to the fault-free reference.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const std::vector<PipelineResult> reference = RunReference(config, nullptr);

  ASSERT_TRUE(fault::ConfigureFaults("detect.invoke:error:0.3:11").ok());
  const int64_t retries_before = CounterValue("executor.retries");
  const EvalResult result = RunScheduler(config, nullptr);
  EXPECT_TRUE(result.failed_clips.empty());
  EXPECT_TRUE(result.degraded_clips.empty());
  EXPECT_GT(CounterValue("executor.retries"), retries_before);
  ExpectMatches(All(reference), result);
}

TEST_F(ClipSchedulerFaultTest, StallAndDenyFaultsDoNotChangeResults) {
  // Latency spikes at both model invocations and allocation denials in the
  // buffer pool perturb timing and memory reuse but must never change a
  // single output bit.
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  const std::vector<PipelineResult> reference =
      RunReference(config, trained.get());

  ASSERT_TRUE(fault::ConfigureFaults(
                  "proxy.invoke:stall:0.2:3:ms=1,"
                  "detect.invoke:stall:0.2:5:ms=1,"
                  "mem.acquire:deny:0.5:9")
                  .ok());
  const EvalResult result = RunScheduler(config, trained.get());
  EXPECT_TRUE(result.failed_clips.empty());
  EXPECT_TRUE(result.degraded_clips.empty());
  ExpectMatches(All(reference), result);
}

TEST_F(ClipSchedulerFaultTest, DegradedProxyFallsBackToFullFrame) {
  // The proxy fails permanently for every clip: instead of quarantining,
  // the scheduler re-runs each clip without the proxy — exactly what a run
  // without the proxy produces.
  const auto trained = MakeTrained(clips_);
  PipelineConfig noproxy;
  noproxy.tracker = TrackerKind::kSort;
  noproxy.sampling_gap = 2;
  const std::vector<PipelineResult> reference =
      RunReference(noproxy, trained.get());

  PipelineConfig config = noproxy;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  ASSERT_TRUE(fault::ConfigureFaults("proxy.invoke:error:1:7").ok());
  const int64_t degraded_before = CounterValue("executor.degraded_clips");
  const EvalResult result = RunScheduler(config, trained.get());
  EXPECT_TRUE(result.failed_clips.empty());
  EXPECT_EQ(result.degraded_clips, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(CounterValue("executor.degraded_clips"),
            degraded_before + static_cast<int64_t>(clips_.size()));
  ExpectMatches(All(reference), result);
}

TEST_F(ClipSchedulerFaultTest, DegradedProxyFallsBackToFullFrameRecurrent) {
  // Same degradation under the recurrent tracker, which reads low-res
  // pixels for appearance statistics: the re-run renders at 40x24, exactly
  // as a run without the proxy does, so the degraded clips match that run
  // bit for bit.
  const auto trained = MakeTrained(clips_);
  PipelineConfig noproxy;
  noproxy.tracker = TrackerKind::kRecurrent;
  noproxy.sampling_gap = 2;
  const std::vector<PipelineResult> reference =
      RunReference(noproxy, trained.get());

  PipelineConfig config = noproxy;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  ASSERT_TRUE(fault::ConfigureFaults("proxy.invoke:error:1:7").ok());
  const EvalResult result = RunScheduler(config, trained.get());
  EXPECT_TRUE(result.failed_clips.empty());
  EXPECT_EQ(result.degraded_clips, (std::vector<int>{0, 1, 2}));
  ExpectMatches(All(reference), result);
}

TEST_F(ClipSchedulerFaultTest, PartialProxyFaultsDegradeOnlyFailingClips) {
  // At rate 0.5 a batch exhausts its four attempts 1 time in 16, so some
  // clips degrade partway through and the rest complete with the proxy. A
  // clip that degrades late must still equal the no-proxy run exactly (the
  // whole clip re-runs); the others equal the fault-free proxy run.
  clips_ = MakeClips(6);
  const auto trained = MakeTrained(clips_);
  PipelineConfig noproxy;
  noproxy.tracker = TrackerKind::kRecurrent;
  noproxy.sampling_gap = 2;
  PipelineConfig config = noproxy;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  const std::vector<PipelineResult> with_proxy =
      RunReference(config, trained.get());
  const std::vector<PipelineResult> without_proxy =
      RunReference(noproxy, trained.get());

  ASSERT_TRUE(fault::ConfigureFaults("proxy.invoke:error:0.5:5").ok());
  const EvalResult result = RunScheduler(config, trained.get());
  EXPECT_TRUE(result.failed_clips.empty());
  ASSERT_FALSE(result.degraded_clips.empty());
  EXPECT_LT(result.degraded_clips.size(), clips_.size());

  std::vector<const PipelineResult*> expected;
  for (size_t c = 0; c < clips_.size(); ++c) {
    const bool degraded =
        std::find(result.degraded_clips.begin(), result.degraded_clips.end(),
                  static_cast<int>(c)) != result.degraded_clips.end();
    expected.push_back(degraded ? &without_proxy[c] : &with_proxy[c]);
  }
  ExpectMatches(expected, result);
}

}  // namespace
}  // namespace otif::core

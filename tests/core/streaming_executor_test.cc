// Cross-executor equivalence tests: the streaming dataflow executor (stage
// queues + cross-clip batching) must reproduce the serial reference path
// Pipeline::Run bit-for-bit — same tracks, same detections, same per-clip
// simulated clock charges — for every tuner configuration, no matter how
// invocations were batched across clips.

#include "core/executor/streaming_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

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

/// Trained artifacts for the matrix (same recipe as the pipeline stage
/// determinism tests): a lightly trained proxy, a deterministically seeded
/// recurrent tracker net, and a hand-picked window set.
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
/// spatial parameters scaled to the clip resolution), using serial SORT
/// tracks as the stand-in for S*.
void AttachRefiner(TrainedModels* trained,
                   const std::vector<sim::Clip>& clips) {
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  Pipeline pipeline(config, nullptr);
  std::vector<track::Track> all;
  for (const sim::Clip& clip : clips) {
    PipelineResult r = pipeline.Run(clip);
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

/// Exact equality across every observable of a clip's run: the batching
/// schedule must not change a single bit.
void ExpectSameResult(const PipelineResult& a, const PipelineResult& b,
                      size_t clip) {
  for (const models::CostCategory cat :
       {models::CostCategory::kDecode, models::CostCategory::kProxy,
        models::CostCategory::kDetect, models::CostCategory::kTrack,
        models::CostCategory::kRefine}) {
    EXPECT_EQ(a.clock.Seconds(cat), b.clock.Seconds(cat))
        << "clip " << clip << " category " << static_cast<int>(cat);
  }
  EXPECT_EQ(a.frames_processed, b.frames_processed) << "clip " << clip;
  EXPECT_EQ(a.detections_kept, b.detections_kept) << "clip " << clip;
  EXPECT_EQ(a.mean_window_coverage, b.mean_window_coverage)
      << "clip " << clip;
  ASSERT_EQ(a.tracks.size(), b.tracks.size()) << "clip " << clip;
  for (size_t t = 0; t < a.tracks.size(); ++t) {
    EXPECT_EQ(a.tracks[t].id, b.tracks[t].id);
    EXPECT_EQ(a.tracks[t].cls, b.tracks[t].cls);
    ASSERT_EQ(a.tracks[t].detections.size(), b.tracks[t].detections.size());
    for (size_t d = 0; d < a.tracks[t].detections.size(); ++d) {
      const track::Detection& da = a.tracks[t].detections[d];
      const track::Detection& db = b.tracks[t].detections[d];
      EXPECT_EQ(da.frame, db.frame);
      EXPECT_EQ(da.box.cx, db.box.cx);
      EXPECT_EQ(da.box.cy, db.box.cy);
      EXPECT_EQ(da.box.w, db.box.w);
      EXPECT_EQ(da.box.h, db.box.h);
      EXPECT_EQ(da.confidence, db.confidence);
    }
  }
}

class StreamingExecutorEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetDefaultThreads(1); }

  /// Options that force heavy cross-clip interleaving: every clip in
  /// flight, several workers per stage, and a batch target large enough
  /// that waves routinely mix groups from different clips.
  static StreamingOptions MixingOptions() {
    StreamingOptions opts;
    opts.num_streams = 3;
    opts.batch_target_frames = 16;
    opts.batch_wait_us = 200;
    opts.stage_workers = 3;
    return opts;
  }

  /// Serial per-clip reference at 1 thread vs the streaming executor at a
  /// 4-lane pool; every observable must agree exactly.
  void CheckConfig(const PipelineConfig& config, const TrainedModels* trained,
                   StreamingOptions opts = MixingOptions()) {
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    Pipeline pipeline(config, trained);
    std::vector<PipelineResult> serial;
    for (const sim::Clip& clip : clips_) serial.push_back(pipeline.Run(clip));

    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    StreamingExecutor executor(config, trained, opts);
    StatusOr<StreamingRunReport> streaming = executor.Run(clips_);
    ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
    ASSERT_EQ(streaming->results.size(), clips_.size());
    EXPECT_TRUE(streaming->failed_clips.empty());
    EXPECT_TRUE(streaming->degraded_clips.empty());
    for (size_t c = 0; c < clips_.size(); ++c) {
      ExpectSameResult(serial[c], streaming->results[c], c);
    }
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
  // All-zero options exercise the executor's own width/batch derivation.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  CheckConfig(config, nullptr, StreamingOptions{});
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
  // A high threshold makes the proxy reject most frames, so detect groups
  // arrive at the batcher with ragged (often zero) window counts.
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.use_proxy = true;
  config.proxy_threshold = 0.9;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest, RaggedSamplingGap) {
  // Gap 7 does not divide 120: the last group of every clip is partial.
  PipelineConfig config;
  config.sampling_gap = 7;
  config.frame_batch = 4;
  CheckConfig(config, nullptr);
}

TEST_F(StreamingExecutorEquivalenceTest, FrameBatchExceedsSampledFrames) {
  // ceil(120 / 32) = 4 sampled frames, far below the frame batch: each clip
  // is a single partial group.
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
  // Every sampled frame of every clip passes through the detect batcher
  // exactly once, so the fill histogram's sum must grow by the total
  // sampled-frame count (releases may split it into any number of waves).
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::Histogram* fill =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "executor.batch.detect.fill",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  const double sum_before = fill->sum();

  PipelineConfig config;
  config.sampling_gap = 2;
  config.frame_batch = 4;
  ThreadPool::SetDefaultThreads(4);
  StreamingExecutor executor(config, nullptr, MixingOptions());
  StatusOr<StreamingRunReport> results = executor.Run(clips_);
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  int sampled = 0;
  for (const sim::Clip& clip : clips_) {
    sampled += (clip.num_frames() + config.sampling_gap - 1) /
               config.sampling_gap;
  }
  EXPECT_EQ(fill->sum() - sum_before, static_cast<double>(sampled));
  telemetry::SetEnabled(was_enabled);
}

TEST_F(StreamingExecutorEquivalenceTest, ExecutorIsReusableAcrossRuns) {
  PipelineConfig config;
  config.sampling_gap = 4;
  ThreadPool::SetDefaultThreads(4);
  StreamingExecutor executor(config, nullptr, MixingOptions());
  StatusOr<StreamingRunReport> first = executor.Run(clips_);
  ASSERT_TRUE(first.ok());
  StatusOr<StreamingRunReport> second = executor.Run(clips_);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->results.size(), second->results.size());
  for (size_t c = 0; c < first->results.size(); ++c) {
    ExpectSameResult(first->results[c], second->results[c], c);
  }
}

/// Fault-injection recovery tests: with OTIF_FAULTS-style specs installed,
/// the executor must retry transient errors, quarantine clips whose faults
/// persist (while the rest of the run completes bit-identically), and fall
/// back to full-frame detection when the proxy keeps failing.
class StreamingExecutorFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::ClearFaults();
    ThreadPool::SetDefaultThreads(1);
  }

  static StreamingOptions MixingOptions() {
    StreamingOptions opts;
    opts.num_streams = 3;
    opts.batch_target_frames = 16;
    opts.batch_wait_us = 200;
    opts.stage_workers = 3;
    return opts;
  }

  std::vector<PipelineResult> RunSerial(const PipelineConfig& config,
                                        const TrainedModels* trained) {
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    Pipeline pipeline(config, trained);
    std::vector<PipelineResult> serial;
    for (const sim::Clip& clip : clips_) serial.push_back(pipeline.Run(clip));
    return serial;
  }

  StatusOr<StreamingRunReport> RunStreaming(const PipelineConfig& config,
                                            const TrainedModels* trained) {
    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    StreamingExecutor executor(config, trained, MixingOptions());
    return executor.Run(clips_);
  }

  static int64_t CounterValue(const std::string& name) {
    return telemetry::MetricsRegistry::Global().GetCounter(name)->value();
  }

  std::vector<sim::Clip> clips_ = MakeClips();
};

TEST_F(StreamingExecutorFaultTest, QuarantineReportsFailedClipCompletesRest) {
  // Clip 1's detector invocations always fail: the executor must exhaust
  // the retry budget, quarantine clip 1, and still deliver clips 0 and 2
  // bit-identical to the serial reference.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const std::vector<PipelineResult> serial = RunSerial(config, nullptr);

  ASSERT_TRUE(fault::ConfigureFaults("detect.invoke:error:1:7:clip=1").ok());
  const int64_t quarantined_before = CounterValue("executor.quarantined_clips");
  StatusOr<StreamingRunReport> report = RunStreaming(config, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->failed_clips.size(), 1u);
  EXPECT_EQ(report->failed_clips[0].clip_index, 1);
  EXPECT_EQ(report->failed_clips[0].status.code(), StatusCode::kIoError);
  EXPECT_GT(report->failed_clips[0].retries, 0);
  EXPECT_EQ(CounterValue("executor.quarantined_clips"),
            quarantined_before + 1);
  EXPECT_TRUE(report->degraded_clips.empty());

  // The quarantined slot stays positional but empty.
  ASSERT_EQ(report->results.size(), clips_.size());
  EXPECT_EQ(report->results[1].frames_processed, 0);
  EXPECT_TRUE(report->results[1].tracks.empty());
  ExpectSameResult(serial[0], report->results[0], 0);
  ExpectSameResult(serial[2], report->results[2], 2);
}

TEST_F(StreamingExecutorFaultTest, TransientErrorsRetryToBitIdenticalRun) {
  // A moderate error rate makes many invocations fail once or twice, but
  // the per-attempt token reroll means no group exhausts all attempts
  // (deterministic for a fixed seed). The run must succeed with results
  // bit-identical to the fault-free serial reference.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const std::vector<PipelineResult> serial = RunSerial(config, nullptr);

  ASSERT_TRUE(fault::ConfigureFaults("detect.invoke:error:0.3:11").ok());
  const int64_t retries_before = CounterValue("executor.retries");
  StatusOr<StreamingRunReport> report = RunStreaming(config, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed_clips.empty());
  EXPECT_GT(CounterValue("executor.retries"), retries_before);
  ASSERT_EQ(report->results.size(), clips_.size());
  for (size_t c = 0; c < clips_.size(); ++c) {
    ExpectSameResult(serial[c], report->results[c], c);
  }
}

TEST_F(StreamingExecutorFaultTest, StallAndDenyFaultsDoNotChangeResults) {
  // Latency spikes in the channels/batcher and allocation denials in the
  // buffer pool perturb scheduling and memory reuse but must never change
  // a single output bit.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const std::vector<PipelineResult> serial = RunSerial(config, nullptr);

  ASSERT_TRUE(fault::ConfigureFaults(
                  "channel.proxy:stall:0.2:3:ms=1,"
                  "batcher.detect.submit:stall:0.2:5:ms=1,"
                  "mem.acquire:deny:0.5:9,"
                  "decode.frame:stall:0.05:13:ms=1")
                  .ok());
  StatusOr<StreamingRunReport> report = RunStreaming(config, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed_clips.empty());
  ASSERT_EQ(report->results.size(), clips_.size());
  for (size_t c = 0; c < clips_.size(); ++c) {
    ExpectSameResult(serial[c], report->results[c], c);
  }
}

TEST_F(StreamingExecutorFaultTest, DegradedProxyFallsBackToFullFrame) {
  // The proxy fails permanently for every clip: instead of quarantining,
  // the executor degrades to full-frame detection — exactly what a serial
  // run without the proxy produces.
  const auto trained = MakeTrained(clips_);
  PipelineConfig noproxy;
  noproxy.tracker = TrackerKind::kSort;
  noproxy.sampling_gap = 2;
  const std::vector<PipelineResult> serial = RunSerial(noproxy, trained.get());

  PipelineConfig config = noproxy;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  ASSERT_TRUE(fault::ConfigureFaults("proxy.invoke:error:1:7").ok());
  const int64_t degraded_before = CounterValue("executor.degraded_clips");
  StatusOr<StreamingRunReport> report = RunStreaming(config, trained.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed_clips.empty());
  ASSERT_EQ(report->degraded_clips.size(), clips_.size());
  EXPECT_EQ(CounterValue("executor.degraded_clips"),
            degraded_before + static_cast<int64_t>(clips_.size()));
  ASSERT_EQ(report->results.size(), clips_.size());
  for (size_t c = 0; c < clips_.size(); ++c) {
    ExpectSameResult(serial[c], report->results[c], c);
  }
}

TEST_F(StreamingExecutorFaultTest,
       DegradedProxyFallsBackToFullFrameRecurrent) {
  // Same degradation under the recurrent tracker, which reads low-res
  // pixels for appearance statistics: frames the proxy never ran on are
  // rendered at 40x24, exactly as in a serial run without the proxy, so the
  // degraded clips match that run bit for bit.
  const auto trained = MakeTrained(clips_);
  PipelineConfig noproxy;
  noproxy.tracker = TrackerKind::kRecurrent;
  noproxy.sampling_gap = 2;
  const std::vector<PipelineResult> serial = RunSerial(noproxy, trained.get());

  PipelineConfig config = noproxy;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  ASSERT_TRUE(fault::ConfigureFaults("proxy.invoke:error:1:7").ok());
  StatusOr<StreamingRunReport> report = RunStreaming(config, trained.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed_clips.empty());
  ASSERT_EQ(report->degraded_clips.size(), clips_.size());
  ASSERT_EQ(report->results.size(), clips_.size());
  for (size_t c = 0; c < clips_.size(); ++c) {
    ExpectSameResult(serial[c], report->results[c], c);
  }
}

TEST(StreamingExecutorTest, EmptyClipListReturnsEmpty) {
  PipelineConfig config;
  StreamingExecutor executor(config, nullptr);
  StatusOr<StreamingRunReport> results = executor.Run({});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->results.empty());
  EXPECT_TRUE(results->failed_clips.empty());
}

TEST(StreamingExecutorTest, CancelBeforeRunReturnsCancelled) {
  PipelineConfig config;
  StreamingExecutor executor(config, nullptr);
  executor.Cancel();
  StatusOr<StreamingRunReport> results = executor.Run(MakeClips(1));
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kCancelled);
}

TEST(StreamingExecutorTest, InvalidConfigsReturnStatusInsteadOfAborting) {
  const std::vector<sim::Clip> clips = MakeClips(1);
  {
    PipelineConfig config;
    config.detector_scale = 0.0;
    EXPECT_EQ(StreamingExecutor(config, nullptr).Run(clips).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    PipelineConfig config;
    config.frame_batch = 0;
    EXPECT_EQ(StreamingExecutor(config, nullptr).Run(clips).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    PipelineConfig config;
    config.sampling_gap = 0;
    EXPECT_EQ(StreamingExecutor(config, nullptr).Run(clips).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    PipelineConfig config;
    config.detector_arch = "not_a_real_arch";
    EXPECT_EQ(StreamingExecutor(config, nullptr).Run(clips).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Proxy requested but no trained models: precondition, not argument.
    PipelineConfig config;
    config.use_proxy = true;
    EXPECT_EQ(StreamingExecutor(config, nullptr).Run(clips).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace otif::core

#ifndef OTIF_CORE_STAGES_H_
#define OTIF_CORE_STAGES_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/cell_grouping.h"
#include "core/pipeline.h"
#include "models/detector.h"
#include "sim/raster.h"
#include "sim/world.h"
#include "track/recurrent_tracker.h"
#include "track/tracker.h"
#include "track/types.h"
#include "video/image.h"

namespace otif::core {

/// A run's source of low-resolution frames: the clip's rasterizer plus the
/// rule that picks the render size. One per Pipeline::Run (one per clip in
/// the streaming executor); every FrameContext of the run points at it.
/// Rendering is thread-safe and deterministic in (frame, width, height), so
/// any stage worker may render through it.
class FrameSource {
 public:
  /// `clip` must outlive the source; `trained` is read only when the config
  /// enables the proxy.
  FrameSource(const sim::Clip& clip, const PipelineConfig& config,
              const TrainedModels* trained);

  /// Renders `frame` at LowResSize(proxy_ran) into `out`, reusing its
  /// pixel buffer when the capacity fits.
  void RenderLowRes(int frame, bool proxy_ran, video::Image* out);

 private:
  /// The resolution rule. A frame the proxy ran on (FrameContext::proxy_ran)
  /// renders at the proxy's input size, so the proxy and the recurrent
  /// tracker read one render. Any other frame (proxy off, or a streaming
  /// clip degraded to full-frame detection) renders at 40x24, the smallest
  /// standard proxy input.
  std::pair<int, int> LowResSize(bool proxy_ran) const;

  sim::Rasterizer raster_;
  int proxy_w_ = 0;  // Proxy input size; 0 when the proxy is off.
  int proxy_h_ = 0;
};

/// Per-frame blackboard the stages communicate through (paper Fig 2 data
/// flow). Each stage reads what upstream stages wrote and appends its own
/// outputs; nothing else is shared between stages for a frame.
///
/// Ownership rules: a FrameContext is created empty by the pipeline driver
/// for every sampled frame and dropped after the last stage ran. Fields are
/// owned by the context; the writing stage is named per field. Pixels are
/// not a field any stage writes: LowResFrame() renders the frame on demand,
/// so a frame nobody reads is never rendered.
struct FrameContext {
  /// Frame index within the clip (set by the driver).
  int frame = 0;
  /// Where LowResFrame() renders from (set by the driver; not owned).
  FrameSource* source = nullptr;

  // --- Written by ProxyStage ---
  /// True when the proxy module ran on this frame (use_proxy configs). Set
  /// before the proxy asks for pixels: it selects the render size.
  bool proxy_ran = false;
  /// Proxy saw an empty frame: the detector can be skipped entirely.
  bool skip_detector = false;
  /// Native-coordinate detector windows covering positive proxy cells.
  std::vector<geom::BBox> windows;
  /// Detector-resolution sizes of the placed windows (drawn from the fixed
  /// trained set W, scaled). DetectStage's batched path uses these to count
  /// distinct window shapes when amortizing per-invocation overhead.
  std::vector<WindowSize> window_sizes;
  /// Simulated cost of running the detector inside `windows` one window
  /// per invocation (the unbatched reference charge).
  double windowed_detect_seconds = 0.0;

  // --- Written by DetectStage ---
  /// Confidence-filtered detections for this frame.
  track::FrameDetections detections;
  /// Window-coverage value for this frame (1.0 when the proxy skipped the
  /// detector); folded into the per-clip mean at commit time.
  double window_coverage = 1.0;

  /// The frame's low-resolution render at the size FrameSource's
  /// resolution rule picks from proxy_ran, rendered on first use and
  /// memoized until Reset. Only two consumers ask: ProxyStage for its
  /// score-cache misses, and TrackStage's recurrent path for frames with at
  /// least one detection. The render runs on the asking thread, so its wall
  /// time lands in the asking stage. Pixels come from the shared
  /// mem::BufferPool.
  const video::Image& LowResFrame() {
    if (!low_res_ready_) {
      source->RenderLowRes(frame, proxy_ran, &low_res_frame_);
      low_res_ready_ = true;
    }
    return low_res_frame_;
  }

  /// Re-arms the context for frame `frame`, clearing every per-frame field
  /// while keeping the source, the low-res pixel buffer (and the vectors'
  /// capacity) alive so the driver can reuse one context slot per batch
  /// lane without reallocating.
  void Reset(int new_frame) {
    frame = new_frame;
    proxy_ran = false;
    skip_detector = false;
    low_res_ready_ = false;
    windows.clear();
    window_sizes.clear();
    windowed_detect_seconds = 0.0;
    detections.clear();
    window_coverage = 1.0;
  }

 private:
  video::Image low_res_frame_;
  bool low_res_ready_ = false;
};

/// One stage of the per-clip execution pipeline. Stages are constructed per
/// Pipeline::Run call (per-task scope: they hold no state shared across
/// clips or threads) and driven in a fixed order:
///   BeginClip -> ProcessBatch (per batch of sampled frames) -> EndClip.
/// The driver groups consecutive sampled frames into batches of
/// PipelineConfig::frame_batch contexts; ProcessBatch defaults to calling
/// ProcessFrame on each context in frame order, so stages without a batched
/// implementation behave exactly as before. Stages communicate through the
/// FrameContext and charge their simulated costs to the PipelineResult
/// clock; no stage reaches into another's internals.
///
/// Compute/commit split: ProxyStage and DetectStage additionally expose
/// ComputeBatch (pure per-frame work: rendering misses, model invocations,
/// window grouping — writes only FrameContext fields, no stage or result
/// mutation) and CommitBatch (ordered side effects: SimClock charges,
/// coverage accumulation, counters). ProcessBatch == ComputeBatch followed
/// by CommitBatch. The streaming executor runs ComputeBatch on stage
/// workers in any order and replays CommitBatch per clip in serial frame
/// order, which is what makes cross-clip batching bit-identical to the
/// serial driver.
class Stage {
 public:
  virtual ~Stage() = default;

  /// Clip-level setup / one-off charges (e.g. decode cost).
  virtual void BeginClip(PipelineResult* result) { (void)result; }

  /// Per-frame work; reads/writes the shared FrameContext.
  virtual void ProcessFrame(FrameContext* ctx, PipelineResult* result) = 0;

  /// Batched work over consecutive sampled frames (frame order). Override
  /// to amortize work across the batch (batched model invocations); the
  /// default is the sequential per-frame loop.
  virtual void ProcessBatch(const std::vector<FrameContext*>& batch,
                            PipelineResult* result) {
    for (FrameContext* ctx : batch) ProcessFrame(ctx, result);
  }

  /// Clip-level teardown: emit tracks, aggregate diagnostics.
  virtual void EndClip(PipelineResult* result) { (void)result; }
};

/// Charges the simulated video-decode cost for the clip (frames must be
/// decoded along codec reference chains at the detector resolution; paper
/// Sec 4 "Implementation"). Per-frame work is a no-op — sampled frames
/// arrive already decoded.
class DecodeStage : public Stage {
 public:
  DecodeStage(const PipelineConfig& config, const sim::Clip& clip);

  void BeginClip(PipelineResult* result) override;
  void ProcessFrame(FrameContext* ctx, PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
};

/// Runs the segmentation proxy model: looks up each frame's cell scores in
/// the shared ProxyScoreCache, renders and scores only the misses, groups
/// positive cells into detector windows, and publishes the windows plus the
/// windowed detector cost estimate. A cache hit needs no pixels, so a frame
/// whose scores are cached is never rendered here. No-op when the proxy is
/// disabled.
class ProxyStage : public Stage {
 public:
  /// Batched scoring hook: scores the given rendered frames (cache misses
  /// of one batch) with `proxy`, returning one cell-score tensor per frame.
  /// Defaults to a direct ProxyModel::ScoreBatch invocation; the streaming
  /// executor substitutes a cross-clip batcher route so one network
  /// invocation spans frames of many clips. Must return bit-identical
  /// tensors to ProxyModel::Score per frame (ScoreBatch guarantees this).
  using ScoreBatchFn = std::function<std::vector<nn::Tensor>(
      const models::ProxyModel& proxy,
      const std::vector<const video::Image*>& frames)>;

  ProxyStage(const PipelineConfig& config, const TrainedModels* trained,
             const sim::Clip& clip, const models::DetectorArch& arch);

  /// Replaces the batched scoring invocation (streaming executor hook).
  void set_score_batch_fn(ScoreBatchFn fn) { score_batch_fn_ = std::move(fn); }

  void ProcessFrame(FrameContext* ctx, PipelineResult* result) override;

  /// Batched proxy pass: looks up every frame, renders the cache misses and
  /// scores them in a single batched network invocation before grouping
  /// cells per frame. Identical per-frame results to ProcessFrame.
  void ProcessBatch(const std::vector<FrameContext*>& batch,
                    PipelineResult* result) override;

  /// Pure half of ProcessBatch: lookup + render and score the misses +
  /// window grouping. Writes
  /// only FrameContext fields (and the thread-safe score cache); safe to
  /// run concurrently with other batches of the same clip.
  void ComputeBatch(const std::vector<FrameContext*>& batch);

  /// Ordered half: charges the per-frame proxy cost in frame order.
  void CommitBatch(const std::vector<FrameContext*>& batch,
                   PipelineResult* result);

 private:
  /// Pure post-scoring work: threshold cells and group them into detector
  /// windows for one frame (no charges; those happen in CommitBatch or,
  /// for the per-frame path, in ProcessFrame).
  void ComputeWindows(const nn::Tensor& scores, FrameContext* ctx);
  /// Charges the fixed per-frame proxy cost.
  void ChargeFrame(PipelineResult* result);

  const PipelineConfig& config_;
  const TrainedModels* trained_;  // Null iff the proxy is disabled.
  const sim::Clip& clip_;
  const models::DetectorArch& arch_;
  const models::ProxyModel* proxy_ = nullptr;
  ScoreBatchFn score_batch_fn_;  // Empty => direct ScoreBatch.
  /// Window sizes scaled to the detector resolution (W is selected in
  /// native coordinates; windows shrink with the frame).
  std::vector<WindowSize> scaled_sizes_;
  double scaled_w_ = 0.0;
  double scaled_h_ = 0.0;
};

/// Runs the (simulated) object detector: inside the proxy's windows when
/// they exist, over the full frame otherwise; skips entirely on
/// proxy-empty frames. Applies the confidence filter and accumulates the
/// window-coverage diagnostic.
class DetectStage : public Stage {
 public:
  /// Batched detection hook: detects on `frames` of `clip` at `scale` with
  /// `detector`, one result per frame. Defaults to a direct
  /// SimulatedDetector::DetectBatch invocation; the streaming executor
  /// substitutes a cross-clip batcher route. Element i must be
  /// bit-identical to Detect(clip, frames[i], scale).
  using DetectBatchFn = std::function<std::vector<track::FrameDetections>(
      const models::SimulatedDetector& detector, const sim::Clip& clip,
      const std::vector<int>& frames, double scale)>;

  DetectStage(const PipelineConfig& config, const sim::Clip& clip,
              const models::DetectorArch& arch);

  /// Replaces the batched detector invocation (streaming executor hook).
  void set_detect_batch_fn(DetectBatchFn fn) {
    detect_batch_fn_ = std::move(fn);
  }

  void ProcessFrame(FrameContext* ctx, PipelineResult* result) override;

  /// Batched detect pass: aggregates the batch's frames into one detector
  /// invocation per group (windowed frames batch per distinct window shape,
  /// full frames share one shape), charging the per-invocation overhead
  /// once per group instead of once per window/frame. Detections are
  /// bit-identical to the per-frame path; only the simulated overhead
  /// charge is amortized.
  void ProcessBatch(const std::vector<FrameContext*>& batch,
                    PipelineResult* result) override;

  /// Pure half of ProcessBatch: detector invocations, window/confidence
  /// filtering, and the per-frame coverage value (stored on the context).
  /// Writes only FrameContext fields; safe to run concurrently with other
  /// batches of the same clip.
  void ComputeBatch(const std::vector<FrameContext*>& batch);

  /// Ordered half: SimClock charges (identical grouping and order to the
  /// serial batch), coverage accumulation, and the kept-detections counter.
  void CommitBatch(const std::vector<FrameContext*>& batch,
                   PipelineResult* result);

  void EndClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
  models::SimulatedDetector detector_;
  DetectBatchFn detect_batch_fn_;  // Empty => direct DetectBatch.
  double coverage_sum_ = 0.0;
  int coverage_frames_ = 0;
};

/// Streams detections into the configured tracker (SORT or the recurrent
/// reduced-rate model) and emits the finished tracks at clip end. The
/// recurrent path derives appearance statistics from the frame's
/// FrameContext::LowResFrame, asking only on frames with detections (it
/// reuses the proxy's render when the proxy rendered that frame); SORT
/// never reads pixels.
class TrackStage : public Stage {
 public:
  TrackStage(const PipelineConfig& config, const TrainedModels* trained,
             const sim::Clip& clip);

  void ProcessFrame(FrameContext* ctx, PipelineResult* result) override;
  void EndClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
  std::unique_ptr<track::Tracker> sort_tracker_;
  std::unique_ptr<track::RecurrentTracker> recurrent_tracker_;
};

/// Applies cluster-based track start/end refinement to the finished tracks
/// (fixed cameras only); runs entirely at clip end.
class RefineStage : public Stage {
 public:
  RefineStage(const PipelineConfig& config, const TrainedModels* trained,
              const sim::Clip& clip);

  void ProcessFrame(FrameContext* ctx, PipelineResult* result) override;
  void EndClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const TrainedModels* trained_;
  const sim::Clip& clip_;
};

/// Simulated decode seconds for a clip at the configured gap and detector
/// resolution (shared by DecodeStage and Pipeline::DecodeSecondsForClip).
double SimulatedDecodeSeconds(const PipelineConfig& config,
                              const sim::Clip& clip);

}  // namespace otif::core

#endif  // OTIF_CORE_STAGES_H_

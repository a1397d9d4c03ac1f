#ifndef OTIF_CORE_STAGES_H_
#define OTIF_CORE_STAGES_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/cell_grouping.h"
#include "core/pipeline.h"
#include "core/proxy_cache.h"
#include "models/detector.h"
#include "sim/raster.h"
#include "sim/world.h"
#include "track/recurrent_tracker.h"
#include "track/tracker.h"
#include "track/types.h"
#include "util/status.h"
#include "video/image.h"

namespace otif::core {

/// A run's source of low-resolution frames: the clip's rasterizer plus the
/// rule that picks the render size. One per Pipeline::Run; every
/// FrameContext of the run points at it. Rendering is deterministic in
/// (frame, width, height).
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
  /// tracker read one render. Any other frame (proxy off, including a clip
  /// the scheduler re-ran without the proxy) renders at 40x24, the smallest
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
  /// Detector windows covering positive proxy cells: native-coordinate
  /// rects, and their detector-resolution sizes (drawn from the fixed
  /// trained set W, scaled), which DetectStage uses to count distinct window
  /// shapes when amortizing per-invocation overhead.
  WindowPlan windows;

  // --- Written by DetectStage ---
  /// Confidence-filtered detections for this frame.
  track::FrameDetections detections;

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
    windows.sizes.clear();
    windows.rects.clear();
    detections.clear();
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
/// PipelineConfig::frame_batch contexts (1 gives strictly per-frame
/// execution). All three calls default to no-ops; a stage overrides the ones
/// it has work in. Stages communicate through the FrameContext and charge
/// their simulated costs to the PipelineResult clock; no stage reaches into
/// another's internals.
///
/// ProcessBatch returns a non-OK Status only in fault runs (OTIF_FAULTS
/// armed): ProxyStage and DetectStage consult their invocation fault site
/// before each batch, retry injected transient errors in place, and give up
/// on the clip after kMaxFaultAttempts consecutive errors.
class Stage {
 public:
  virtual ~Stage() = default;

  /// Clip-level setup / one-off charges (e.g. decode cost).
  virtual void BeginClip(PipelineResult* result) { (void)result; }

  /// Work over one batch of consecutive sampled frames, in frame order;
  /// reads and writes the batch's FrameContexts.
  virtual Status ProcessBatch(const std::vector<FrameContext*>& batch,
                              PipelineResult* result) {
    (void)batch;
    (void)result;
    return Status::OK();
  }

  /// Clip-level teardown (e.g. emit tracks).
  virtual void EndClip(PipelineResult* result) { (void)result; }
};

/// Charges the simulated video-decode cost for the clip (frames must be
/// decoded along codec reference chains at the detector resolution; paper
/// Sec 4 "Implementation"). It has no per-frame work: sampled frames arrive
/// already decoded.
class DecodeStage : public Stage {
 public:
  DecodeStage(const PipelineConfig& config, const sim::Clip& clip);

  void BeginClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
};

/// Runs the segmentation proxy model: scores each batch through ScoreFrames
/// against the clip's table of the shared ProxyScoreCache (only misses are
/// rendered, so a cached frame needs no pixels), then plans each frame's
/// detector windows with a WindowPlanner. No-op when the proxy is disabled.
class ProxyStage : public Stage {
 public:
  /// Fetches the clip's score table and builds the planner once per run.
  ProxyStage(const PipelineConfig& config, const TrainedModels* trained,
             const sim::Clip& clip, const models::DetectorArch& arch);

  /// Scores the batch in one ScoreFrames call (one batched network
  /// invocation over the misses), then plans each frame's windows. In a
  /// fault run, a proxy.invoke fault that persists for kMaxFaultAttempts
  /// returns kUnavailable: the clip can still run without the proxy.
  Status ProcessBatch(const std::vector<FrameContext*>& batch,
                      PipelineResult* result) override;

  /// Transient proxy.invoke faults this stage retried in place.
  int retries() const { return retries_; }

 private:
  const PipelineConfig& config_;
  const TrainedModels* trained_;  // Null iff the proxy is disabled.
  const models::ProxyModel* proxy_ = nullptr;
  /// This clip's scores at the configured resolution.
  std::shared_ptr<ProxyScoreTable> table_;
  std::optional<WindowPlanner> planner_;
  int retries_ = 0;
  /// Per-batch scratch, kept across batches: the frame indices and each
  /// frame's scores.
  std::vector<int> frames_;
  std::vector<const float*> planes_;
};

/// Runs the (simulated) object detector: inside the proxy's windows when
/// they exist, over the full frame otherwise; skips entirely on
/// proxy-empty frames. Applies the confidence filter.
class DetectStage : public Stage {
 public:
  DetectStage(const PipelineConfig& config, const sim::Clip& clip,
              const models::DetectorArch& arch);

  /// Aggregates the batch's frames into one detector invocation per group
  /// (windowed frames batch per distinct window shape, full frames share one
  /// shape), charging the per-invocation overhead once per group. Detections
  /// do not depend on the grouping; only the simulated overhead charge is
  /// amortized. In a fault run, a detect.invoke fault that persists for
  /// kMaxFaultAttempts returns kIoError: the clip has no result.
  Status ProcessBatch(const std::vector<FrameContext*>& batch,
                      PipelineResult* result) override;

  /// Transient detect.invoke faults this stage retried in place.
  int retries() const { return retries_; }

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
  models::SimulatedDetector detector_;
  int retries_ = 0;
};

/// Streams detections into the configured tracker (SORT or the recurrent
/// reduced-rate model) one frame at a time, in frame order, and emits the
/// finished tracks at clip end. The recurrent path derives appearance
/// statistics from the frame's FrameContext::LowResFrame, asking only on
/// frames with detections (it reuses the proxy's render when the proxy
/// rendered that frame); SORT never reads pixels.
class TrackStage : public Stage {
 public:
  TrackStage(const PipelineConfig& config, const TrainedModels* trained,
             const sim::Clip& clip);

  Status ProcessBatch(const std::vector<FrameContext*>& batch,
                      PipelineResult* result) override;
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

  void EndClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const TrainedModels* trained_;
  const sim::Clip& clip_;
};

/// Attempts a stage makes at one batch's model invocation while an injected
/// transient fault keeps firing, before it gives up on the clip.
constexpr int kMaxFaultAttempts = 4;

/// Simulated decode seconds for a clip at the configured gap and detector
/// resolution (frames are decoded along codec reference chains at the
/// detector resolution, paper Sec 4 "Implementation"); DecodeStage charges
/// it at BeginClip.
double SimulatedDecodeSeconds(const PipelineConfig& config,
                              const sim::Clip& clip);

}  // namespace otif::core

#endif  // OTIF_CORE_STAGES_H_

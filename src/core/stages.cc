#include "core/stages.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "track/sort_tracker.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::core {
namespace {

// GOP size (frames between I-frames) assumed for decode-cost accounting.
constexpr int kGopSize = 16;

// Frames per batched detector invocation, recorded at the point the model
// is actually invoked.
telemetry::Histogram* DetectInvocationFrames() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "detect.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return h;
}

telemetry::Counter* RetriesCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Global().GetCounter("executor.retries");
  return c;
}

/// Index of `batch` within its clip: Pipeline::Run groups frame_batch
/// consecutive sampled frames, so group k starts at frame
/// k * frame_batch * sampling_gap.
int GroupIndex(const PipelineConfig& config,
               const std::vector<FrameContext*>& batch) {
  return batch.front()->frame / (config.sampling_gap * config.frame_batch);
}

/// Consults a model-invocation fault site before a batch's invocation.
/// Transient (kError) decisions retry in place with bounded exponential
/// backoff; because the fault fires before the invocation, no stage state
/// was touched and a retry is just a fresh decision with the next attempt
/// token. The token encodes (clip, group, attempt), with the clip taken
/// from the scheduler's timeline context, so the decisions are a pure
/// function of the work item whatever the thread interleaving. kStall
/// sleeps (latency spike) and succeeds; other kinds pass through. Returns
/// IoError after kMaxFaultAttempts consecutive error decisions.
Status AttemptInvocation(fault::Site* site, int group, int* retries) {
  const int64_t clip = telemetry::timeline::CurrentContext().clip;
  for (int attempt = 0;; ++attempt) {
    const int64_t token = (clip * 1000003 + group) * 16 + attempt;
    fault::Injection inj;
    if (!site->Inject(clip, token, &inj)) return Status::OK();
    if (inj.kind == fault::Kind::kStall) {
      std::this_thread::sleep_for(std::chrono::milliseconds(inj.stall_ms));
      return Status::OK();
    }
    if (inj.kind != fault::Kind::kError) return Status::OK();
    if (attempt + 1 >= kMaxFaultAttempts) {
      return Status::IoError(StrFormat(
          "injected %s fault: clip %lld group %d failed %d attempts",
          site->name().c_str(), static_cast<long long>(clip), group,
          kMaxFaultAttempts));
    }
    ++*retries;
    RetriesCounter()->Add(1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(1 << attempt, 4)));
  }
}

}  // namespace

double SimulatedDecodeSeconds(const PipelineConfig& config,
                              const sim::Clip& clip) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const int g = config.sampling_gap;
  const int samples = (clip.num_frames() + g - 1) / g;
  // Reference chains: with g below the GOP size every frame must be
  // decoded; above it, seeking to the preceding I-frame decodes an average
  // of GOP/2 + 1 frames per sample.
  const double frames_per_sample =
      g < kGopSize ? static_cast<double>(g)
                   : static_cast<double>(kGopSize) / 2.0 + 1.0;
  const double frames_decoded = samples * frames_per_sample;
  // Frames are decoded at the detector resolution (paper Sec 4).
  const double px_per_frame = static_cast<double>(clip.spec().width) *
                              clip.spec().height * config.detector_scale *
                              config.detector_scale;
  return frames_decoded * (costs.decode_sec_per_frame +
                           px_per_frame * costs.decode_sec_per_pixel);
}

// --- FrameSource ------------------------------------------------------------

FrameSource::FrameSource(const sim::Clip& clip, const PipelineConfig& config,
                         const TrainedModels* trained)
    : raster_(&clip) {
  if (!config.use_proxy) return;
  const models::ProxyResolution& res =
      trained->proxies[static_cast<size_t>(config.proxy_resolution_index)]
          ->resolution();
  proxy_w_ = res.raster_w();
  proxy_h_ = res.raster_h();
}

std::pair<int, int> FrameSource::LowResSize(bool proxy_ran) const {
  if (proxy_ran) return {proxy_w_, proxy_h_};
  return {40, 24};
}

void FrameSource::RenderLowRes(int frame, bool proxy_ran, video::Image* out) {
  const auto [w, h] = LowResSize(proxy_ran);
  raster_.RenderInto(frame, w, h, out);
}

// --- DecodeStage ------------------------------------------------------------

DecodeStage::DecodeStage(const PipelineConfig& config, const sim::Clip& clip)
    : config_(config), clip_(clip) {}

void DecodeStage::BeginClip(PipelineResult* result) {
  result->clock.Charge(models::CostCategory::kDecode,
                       SimulatedDecodeSeconds(config_, clip_));
}

// --- ProxyStage -------------------------------------------------------------

ProxyStage::ProxyStage(const PipelineConfig& config,
                       const TrainedModels* trained, const sim::Clip& clip,
                       const models::DetectorArch& arch)
    : config_(config), trained_(config.use_proxy ? trained : nullptr) {
  if (trained_ == nullptr) return;
  proxy_ = trained_->proxies[static_cast<size_t>(
                                 config_.proxy_resolution_index)]
               .get();
  const models::ProxyResolution& res = proxy_->resolution();
  table_ = trained_->proxy_cache.Table(
      clip.clip_seed(), config_.proxy_resolution_index, clip.num_frames(),
      res.grid_w() * res.grid_h());
  planner_.emplace(trained_->window_sizes, arch, clip.spec().width,
                   clip.spec().height, config_.detector_scale, res.grid_w(),
                   res.grid_h());
}

Status ProxyStage::ProcessBatch(const std::vector<FrameContext*>& batch,
                                PipelineResult* result) {
  if (proxy_ == nullptr) return Status::OK();
  if (fault::Enabled()) {
    static fault::Site* const site = fault::GetSite("proxy.invoke");
    const Status st = AttemptInvocation(site, GroupIndex(config_, batch),
                                        &retries_);
    if (!st.ok()) return Status::Unavailable(st.message());
  }
  frames_.clear();
  for (FrameContext* ctx : batch) {
    // Marked before any pixel request: it selects the proxy resolution.
    ctx->proxy_ran = true;
    frames_.push_back(ctx->frame);
  }
  ScoreFrames(
      trained_->proxy_cache, table_.get(), *proxy_, frames_,
      [&batch](size_t i) -> const video::Image& {
        return batch[i]->LowResFrame();
      },
      &planes_);

  // One fixed charge per frame, in frame order. A frame with no positive
  // cell skips the detector entirely.
  const models::CostConstants& costs = models::DefaultCostConstants();
  const double frame_seconds =
      costs.proxy_sec_per_frame +
      costs.proxy_sec_per_pixel * proxy_->resolution().world_pixels();
  for (size_t i = 0; i < batch.size(); ++i) {
    result->clock.Charge(models::CostCategory::kProxy, frame_seconds);
    batch[i]->skip_detector = !planner_->Plan(
        planes_[i], config_.proxy_threshold, &batch[i]->windows);
  }
  return Status::OK();
}

// --- DetectStage ------------------------------------------------------------

DetectStage::DetectStage(const PipelineConfig& config, const sim::Clip& clip,
                         const models::DetectorArch& arch)
    : config_(config), clip_(clip), detector_(arch) {}

Status DetectStage::ProcessBatch(const std::vector<FrameContext*>& batch,
                                 PipelineResult* result) {
  if (fault::Enabled()) {
    static fault::Site* const site = fault::GetSite("detect.invoke");
    OTIF_RETURN_IF_ERROR(
        AttemptInvocation(site, GroupIndex(config_, batch), &retries_));
  }
  const double scale = config_.detector_scale;
  const models::DetectorArch& arch = detector_.arch();

  // Partition the batch: windowed frames and full frames become batched
  // detector invocations; proxy-empty frames skip the detector.
  std::vector<FrameContext*> windowed, full;
  for (FrameContext* ctx : batch) {
    if (ctx->proxy_ran) {
      if (!ctx->skip_detector) windowed.push_back(ctx);
    } else {
      full.push_back(ctx);
    }
  }

  const auto invoke = [&](const std::vector<FrameContext*>& ctxs) {
    std::vector<int> frames;
    frames.reserve(ctxs.size());
    for (const FrameContext* ctx : ctxs) frames.push_back(ctx->frame);
    if (telemetry::Enabled()) {
      DetectInvocationFrames()->Record(static_cast<double>(frames.size()));
    }
    return detector_.DetectBatch(clip_, frames, scale);
  };

  if (!windowed.empty()) {
    const std::vector<track::FrameDetections> dets = invoke(windowed);
    for (size_t i = 0; i < windowed.size(); ++i) {
      windowed[i]->detections =
          models::FilterByWindows(dets[i], windowed[i]->windows.rects);
    }
    // Windows come from the fixed trained size set W, so the batch's
    // windows group into few distinct shapes; each shape batches into one
    // detector invocation (uniform input shape), amortizing the
    // per-invocation overhead.
    double pixel_seconds = 0.0;
    std::vector<WindowSize> shapes;
    for (FrameContext* ctx : windowed) {
      for (const WindowSize& s : ctx->windows.sizes) {
        pixel_seconds +=
            arch.sec_per_pixel * static_cast<double>(s.w) * s.h;
        if (std::find(shapes.begin(), shapes.end(), s) == shapes.end()) {
          shapes.push_back(s);
        }
      }
    }
    result->clock.Charge(
        models::CostCategory::kDetect,
        pixel_seconds +
            arch.sec_per_invocation * static_cast<double>(shapes.size()));
  }

  if (!full.empty()) {
    std::vector<track::FrameDetections> dets = invoke(full);
    for (size_t i = 0; i < full.size(); ++i) {
      full[i]->detections = std::move(dets[i]);
    }
    // Full frames all share one input shape: one invocation for the batch.
    const double pixel_seconds_per_frame =
        arch.sec_per_pixel * clip_.spec().width * scale *
        clip_.spec().height * scale;
    result->clock.Charge(
        models::CostCategory::kDetect,
        pixel_seconds_per_frame * static_cast<double>(full.size()) +
            arch.sec_per_invocation);
  }

  // The confidence filter and the kept-detections counter, in frame order.
  for (FrameContext* ctx : batch) {
    ctx->detections = models::FilterByConfidence(ctx->detections,
                                                 config_.detector_confidence);
    result->detections_kept += static_cast<int64_t>(ctx->detections.size());
  }
  return Status::OK();
}

// --- TrackStage -------------------------------------------------------------

TrackStage::TrackStage(const PipelineConfig& config,
                       const TrainedModels* trained, const sim::Clip& clip)
    : config_(config), clip_(clip) {
  const sim::DatasetSpec& spec = clip_.spec();
  if (config_.tracker == TrackerKind::kSort) {
    sort_tracker_ = std::make_unique<track::SortTracker>();
  } else {
    track::RecurrentTracker::Options opts;
    opts.frame_w = spec.width;
    opts.frame_h = spec.height;
    opts.fps = spec.fps;
    recurrent_tracker_ = std::make_unique<track::RecurrentTracker>(
        trained->tracker_net.get(), opts);
  }
}

Status TrackStage::ProcessBatch(const std::vector<FrameContext*>& batch,
                                PipelineResult* result) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const sim::DatasetSpec& spec = clip_.spec();
  for (FrameContext* ctx : batch) {
    const track::FrameDetections& dets = ctx->detections;
    if (sort_tracker_ != nullptr) {
      result->clock.Charge(
          models::CostCategory::kTrack,
          costs.sort_sec_per_detection * static_cast<double>(dets.size()));
      sort_tracker_->ProcessFrame(ctx->frame, dets);
      continue;
    }

    // Appearance statistics from the frame's low-res render (charged as
    // tracker time). A frame without detections needs no pixels and is not
    // rendered.
    std::vector<std::pair<double, double>> appearance;
    if (!dets.empty()) {
      const video::Image& low_res = ctx->LowResFrame();
      appearance.reserve(dets.size());
      for (const track::Detection& d : dets) {
        appearance.push_back(models::TrackerNet::AppearanceStats(
            low_res, d.box, spec.width, spec.height));
      }
    }
    const int64_t pairs_before = recurrent_tracker_->pair_scores_computed();
    recurrent_tracker_->ProcessFrameWithAppearance(ctx->frame, dets,
                                                   appearance);
    const int64_t pairs =
        recurrent_tracker_->pair_scores_computed() - pairs_before;
    result->clock.Charge(
        models::CostCategory::kTrack,
        costs.track_sec_per_frame +
            costs.track_sec_per_detection *
                static_cast<double>(dets.size() + pairs / 4));
  }
  return Status::OK();
}

void TrackStage::EndClip(PipelineResult* result) {
  track::Tracker* tracker =
      sort_tracker_ != nullptr
          ? static_cast<track::Tracker*>(sort_tracker_.get())
          : recurrent_tracker_.get();
  // Paper Sec 3.4: prune single-detection tracks as likely noise.
  result->tracks = tracker->Finish(2);
}

// --- RefineStage ------------------------------------------------------------

RefineStage::RefineStage(const PipelineConfig& config,
                         const TrainedModels* trained, const sim::Clip& clip)
    : config_(config), trained_(trained), clip_(clip) {}

void RefineStage::EndClip(PipelineResult* result) {
  if (!config_.refine || trained_ == nullptr ||
      trained_->refiner == nullptr || clip_.spec().moving_camera) {
    return;
  }
  const models::CostConstants& costs = models::DefaultCostConstants();
  OTIF_SPAN("refine/refine_all");
  result->tracks = trained_->refiner->RefineAll(result->tracks);
  result->clock.Charge(
      models::CostCategory::kRefine,
      costs.refine_sec_per_track * static_cast<double>(result->tracks.size()));
}

}  // namespace otif::core

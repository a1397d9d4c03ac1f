#include "core/pipeline.h"

#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "core/stages.h"
#include "obs/run_progress.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::core {
namespace {

/// Telemetry for one pipeline stage: a wall-clock span (driver-measured,
/// covers BeginClip + every ProcessBatch + EndClip) and a simulated-seconds
/// accumulator fed from the run's SimClock. The five stages map 1:1 onto
/// the first five cost categories, so Figure 6's breakdown and the live
/// instrumentation read the same accumulators.
struct StageTelemetry {
  telemetry::SpanSite* span;
  telemetry::Gauge* sim_seconds;
};

/// Number of execution stages (decode, proxy, detect, track, refine); maps
/// 1:1 onto the first five cost categories.
constexpr int kNumStages = 5;

const std::array<StageTelemetry, kNumStages>& GetStageTelemetry() {
  static const std::array<StageTelemetry, kNumStages> stages = [] {
    std::array<StageTelemetry, kNumStages> out;
    for (int i = 0; i < kNumStages; ++i) {
      const char* name =
          models::CostCategoryName(static_cast<models::CostCategory>(i));
      out[static_cast<size_t>(i)] = {
          telemetry::GetSpan(std::string("stage/") + name),
          telemetry::MetricsRegistry::Global().GetGauge(
              std::string("stage/") + name + ".sim_seconds")};
    }
    return out;
  }();
  return stages;
}

/// Run-level aggregates (per clip and across clips/configs).
struct RunTelemetry {
  telemetry::Counter* runs;
  telemetry::Counter* frames;
  telemetry::Counter* detections_kept;
  telemetry::Histogram* run_sim_seconds;
};

const RunTelemetry& GetRunTelemetry() {
  static const RunTelemetry t{
      telemetry::MetricsRegistry::Global().GetCounter("pipeline.runs"),
      telemetry::MetricsRegistry::Global().GetCounter("pipeline.frames"),
      telemetry::MetricsRegistry::Global().GetCounter(
          "pipeline.detections_kept"),
      telemetry::MetricsRegistry::Global().GetHistogram(
          "pipeline.run_sim_seconds"),
  };
  return t;
}

/// Folds one finished run into the global registry (per-stage simulated
/// seconds, run counters, run-total histogram). Observation only: must
/// never influence the result (the telemetry on/off regression test pins
/// this down).
void RecordRunTelemetry(const PipelineResult& result) {
  const auto& stages = GetStageTelemetry();
  for (int i = 0; i < kNumStages; ++i) {
    const double sec =
        result.clock.Seconds(static_cast<models::CostCategory>(i));
    if (sec > 0.0) stages[static_cast<size_t>(i)].sim_seconds->Add(sec);
  }
  const RunTelemetry& t = GetRunTelemetry();
  t.runs->Add(1);
  t.frames->Add(result.frames_processed);
  t.detections_kept->Add(result.detections_kept);
  t.run_sim_seconds->Record(result.clock.TotalSeconds());
}

}  // namespace

std::string PipelineConfig::ToString() const {
  return StrFormat(
      "arch=%s scale=%.2f conf=%.2f proxy=%s(res=%d thr=%.2f) gap=%d "
      "batch=%d tracker=%s refine=%d",
      detector_arch.c_str(), detector_scale, detector_confidence,
      use_proxy ? "on" : "off", proxy_resolution_index, proxy_threshold,
      sampling_gap, frame_batch,
      tracker == TrackerKind::kSort ? "sort" : "recurrent", refine ? 1 : 0);
}

std::vector<double> StandardDetectorScales() {
  // Each step multiplies pixel count by 0.7 (the tuning coarseness C=30%).
  std::vector<double> scales;
  double s = 1.0;
  for (int i = 0; i < 10; ++i) {
    scales.push_back(s);
    s *= std::sqrt(0.7);
  }
  return scales;
}

std::vector<double> StandardProxyThresholds() {
  return {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

Pipeline::Pipeline(PipelineConfig config, const TrainedModels* trained)
    : config_(std::move(config)), trained_(trained) {
  OTIF_CHECK_GE(config_.sampling_gap, 1);
  OTIF_CHECK_GE(config_.frame_batch, 1);
  OTIF_CHECK_GT(config_.detector_scale, 0.0);
  OTIF_CHECK_LE(config_.detector_scale, 1.0);
  if (trained_ == nullptr) {
    OTIF_CHECK(!config_.use_proxy);
    OTIF_CHECK(config_.tracker == TrackerKind::kSort);
    OTIF_CHECK(!config_.refine);
  } else if (config_.use_proxy) {
    OTIF_CHECK_LT(static_cast<size_t>(config_.proxy_resolution_index),
                  trained_->proxies.size());
    OTIF_CHECK(!trained_->window_sizes.empty());
  }
}

StatusOr<PipelineResult> Pipeline::Run(const sim::Clip& clip,
                                       int* retries) const {
  // Umbrella span for the whole clip: on the timeline each clip shows as
  // one block (tagged with the scheduler's clip-id context) containing the
  // per-stage spans below.
  OTIF_SPAN("pipeline/run");
  PipelineResult result;
  const models::DetectorArch arch = models::ArchByName(
      models::StandardDetectorArchs(), config_.detector_arch);
  // Per-run source of the low-res frames the proxy and tracking stages ask
  // for on demand (its background cache is per clip, so it must not outlive
  // the run).
  FrameSource source(clip, config_, trained_);

  // The stage sequence (paper Fig 2). Stages are per-run scoped and
  // communicate only through the FrameContext and the result clock.
  DecodeStage decode(config_, clip);
  ProxyStage proxy(config_, trained_, clip, arch);
  DetectStage detect(config_, clip, arch);
  TrackStage track(config_, trained_, clip);
  RefineStage refine(config_, trained_, clip);
  Stage* const stages[] = {&decode, &proxy, &detect, &track, &refine};
  const auto& stage_telemetry = GetStageTelemetry();
  const auto count_retries = [&] {
    if (retries != nullptr) *retries += proxy.retries() + detect.retries();
  };

  // Each stage call runs under its stage's wall-clock span; the span sites
  // aggregate (count, total, min, max) with relaxed atomics, so each call
  // costs two clock reads per stage when telemetry is on and one relaxed
  // load when it is off.
  for (int s = 0; s < kNumStages; ++s) {
    telemetry::ScopedSpan span(stage_telemetry[static_cast<size_t>(s)].span);
    stages[s]->BeginClip(&result);
  }
  // Sampled frames run through the stages in batches: each stage sees a
  // group of frame_batch consecutive contexts per call, so the proxy and the
  // detector issue one model invocation per group. One stage span per batch
  // instead of per frame.
  //
  // Context slots are allocated once and re-armed per group (Reset keeps
  // the low-res render buffer and vector capacities), so the hot loop does
  // not reconstruct FrameContexts — or their video::Image buffers — for
  // every batch.
  std::vector<FrameContext> ctxs(static_cast<size_t>(config_.frame_batch));
  for (FrameContext& ctx : ctxs) ctx.source = &source;
  std::vector<FrameContext*> batch;
  batch.reserve(ctxs.size());
  for (int f = 0; f < clip.num_frames();) {
    batch.clear();
    for (int b = 0; b < config_.frame_batch && f < clip.num_frames();
         ++b, f += config_.sampling_gap) {
      FrameContext& ctx = ctxs[static_cast<size_t>(b)];
      ctx.Reset(f);
      batch.push_back(&ctx);
      ++result.frames_processed;
    }
    for (int s = 0; s < kNumStages; ++s) {
      telemetry::ScopedSpan span(stage_telemetry[static_cast<size_t>(s)].span);
      const Status status = stages[s]->ProcessBatch(batch, &result);
      if (!status.ok()) {
        count_retries();
        return status;
      }
    }
    // Live progress: with introspection off this is the one relaxed flag
    // load; with it on, the batch is attributed to the clip the scheduler
    // tagged on this thread (-1 outside per-clip work still advances the
    // run total and the stall watchdog).
    if (obs::ProgressEnabled()) {
      obs::RunProgress::Global().OnFramesCommitted(
          static_cast<int>(telemetry::timeline::CurrentContext().clip),
          static_cast<int64_t>(batch.size()));
    }
  }
  for (int s = 0; s < kNumStages; ++s) {
    telemetry::ScopedSpan span(stage_telemetry[static_cast<size_t>(s)].span);
    stages[s]->EndClip(&result);
  }
  count_retries();
  if (telemetry::Enabled()) RecordRunTelemetry(result);
  return result;
}

}  // namespace otif::core

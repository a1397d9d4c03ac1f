#include "core/best_config.h"

#include <string>
#include <utility>

#include "obs/run_progress.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace_timeline.h"

namespace otif::core {

namespace {

telemetry::Counter* QuarantinedCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "executor.quarantined_clips");
  return c;
}

telemetry::Counter* DegradedCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "executor.degraded_clips");
  return c;
}

/// What the scheduler got for one clip.
struct ClipOutcome {
  PipelineResult result;  // Meaningful only when `status` is OK.
  Status status;          // Non-OK: the clip is quarantined.
  int retries = 0;
  bool degraded = false;
};

/// Runs clip `index` under the recovery policy: a persistent proxy failure
/// (kUnavailable) re-runs the clip without the proxy; any other failure
/// quarantines it. Quarantine is reported as it happens — counter, warning,
/// /statusz (RunProgress) and the flight recorder.
ClipOutcome RunClip(const Pipeline& pipeline, const TrainedModels* trained,
                    const sim::Clip& clip, int64_t index) {
  ClipOutcome out;
  StatusOr<PipelineResult> run = pipeline.Run(clip, &out.retries);
  if (!run.ok() && run.status().code() == StatusCode::kUnavailable) {
    out.degraded = true;
    DegradedCounter()->Add(1);
    OTIF_LOG(kWarning) << "clip " << index << ": proxy stage failing ("
                       << run.status().ToString()
                       << "); re-running without the proxy — accuracy may "
                          "drop";
    PipelineConfig no_proxy = pipeline.config();
    no_proxy.use_proxy = false;
    run = Pipeline(std::move(no_proxy), trained).Run(clip, &out.retries);
  }
  if (run.ok()) {
    out.result = std::move(run).value();
    return out;
  }
  out.status = run.status();
  QuarantinedCounter()->Add(1);
  OTIF_LOG(kWarning) << "clip " << index << " quarantined after "
                     << out.retries << " retrie(s): "
                     << out.status.ToString() << " — remaining clips continue";
  if (obs::ProgressEnabled()) {
    obs::RunProgress::Global().MarkClipQuarantined(static_cast<int>(index),
                                                   out.status.ToString());
  }
  telemetry::timeline::ReportError(
      out.status, "clip scheduler: quarantined clip " + std::to_string(index));
  return out;
}

}  // namespace

EvalResult EvaluateConfig(const PipelineConfig& config,
                          const TrainedModels* trained,
                          const std::vector<sim::Clip>& clips,
                          const AccuracyFn& accuracy_fn) {
  Pipeline pipeline(config, trained);
  // Register the sweep with the live-progress registry (no-op when
  // introspection is off): one run generation per EvaluateConfig call,
  // totals in sampled frames per clip (what Pipeline::Run commits).
  if (obs::ProgressEnabled()) {
    std::vector<int64_t> totals;
    totals.reserve(clips.size());
    for (const sim::Clip& clip : clips) {
      totals.push_back((clip.num_frames() + config.sampling_gap - 1) /
                       config.sampling_gap);
    }
    obs::RunProgress::Global().BeginRun("serial", std::move(totals));
  }
  // Clips are independent; run them across the worker pool. Results come
  // back ordered by clip index, and the simulated clock keeps independent
  // per-category accumulators, so merging in clip order reproduces the
  // serial totals bit-for-bit.
  std::vector<ClipOutcome> per_clip =
      ParallelMap(ThreadPool::Default(), static_cast<int64_t>(clips.size()),
                  [&](int64_t i) {
                    // Tag this task's timeline events with the clip index;
                    // the stages' fault points read it too.
                    telemetry::timeline::ScopedContext ctx({.clip = i});
                    return RunClip(pipeline, trained,
                                   clips[static_cast<size_t>(i)], i);
                  });
  if (obs::ProgressEnabled()) obs::RunProgress::Global().EndRun();
  EvalResult result;
  for (size_t i = 0; i < per_clip.size(); ++i) {
    ClipOutcome& c = per_clip[i];
    if (c.degraded) result.degraded_clips.push_back(static_cast<int>(i));
    if (!c.status.ok()) {
      result.failed_clips.push_back(
          {static_cast<int>(i), std::move(c.status), c.retries});
      result.tracks_per_clip.emplace_back();
      continue;
    }
    result.clock.Merge(c.result.clock);
    result.tracks_per_clip.push_back(std::move(c.result.tracks));
  }
  if (!result.failed_clips.empty()) {
    // Quarantined clips contribute empty track lists, so the accuracy below
    // understates the config. Config search under injected faults is a
    // chaos exercise, not a measurement — warn.
    OTIF_LOG(kWarning) << "config evaluation: " << result.failed_clips.size()
                       << " clip(s) quarantined; accuracy is a lower bound";
  }
  result.seconds = result.clock.TotalSeconds();
  result.accuracy = accuracy_fn(result.tracks_per_clip);
  return result;
}

PipelineConfig SelectBestConfig(const std::vector<sim::Clip>& validation,
                                const AccuracyFn& accuracy_fn,
                                double* best_accuracy_out) {
  OTIF_CHECK(!validation.empty());
  // Slowest configuration: strongest architecture at full resolution,
  // gap 1, SORT tracker, no proxy.
  PipelineConfig config;
  config.detector_arch = "mask_rcnn";
  config.detector_scale = 1.0;
  config.sampling_gap = 1;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = false;

  double best_acc =
      EvaluateConfig(config, nullptr, validation, accuracy_fn).accuracy;

  // Architectures are entangled with resolution in the detection module; at
  // this stage pick the better architecture at full resolution.
  {
    PipelineConfig alt = config;
    alt.detector_arch = "yolov3";
    const double acc =
        EvaluateConfig(alt, nullptr, validation, accuracy_fn).accuracy;
    if (acc >= best_acc) {
      config = alt;
      best_acc = acc;
    }
  }

  // Walk down the resolution ladder while accuracy does not decrease.
  const std::vector<double> scales = StandardDetectorScales();
  size_t scale_idx = 0;
  while (scale_idx + 1 < scales.size()) {
    PipelineConfig next = config;
    next.detector_scale = scales[scale_idx + 1];
    const double acc =
        EvaluateConfig(next, nullptr, validation, accuracy_fn).accuracy;
    if (acc < best_acc) break;
    config = next;
    best_acc = acc;
    ++scale_idx;
  }

  // Then walk up the sampling gap while accuracy does not decrease.
  while (config.sampling_gap < 64) {
    PipelineConfig next = config;
    next.sampling_gap *= 2;
    const double acc =
        EvaluateConfig(next, nullptr, validation, accuracy_fn).accuracy;
    if (acc < best_acc) break;
    config = next;
    best_acc = acc;
  }

  if (best_accuracy_out != nullptr) *best_accuracy_out = best_acc;
  return config;
}

}  // namespace otif::core

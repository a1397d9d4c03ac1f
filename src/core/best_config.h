#ifndef OTIF_CORE_BEST_CONFIG_H_
#define OTIF_CORE_BEST_CONFIG_H_

#include <functional>
#include <vector>

#include "core/pipeline.h"
#include "sim/world.h"
#include "track/types.h"
#include "util/status.h"

namespace otif::core {

/// Accuracy metric over per-clip track outputs; returned values in [0, 1].
/// The evaluation harness builds these from the user's query + ground truth
/// (paper workflow, Fig 1).
using AccuracyFn =
    std::function<double(const std::vector<std::vector<track::Track>>&)>;

/// One clip the scheduler gave up on (fault runs only): its detector kept
/// failing for kMaxFaultAttempts attempts, so the clip was quarantined while
/// every other clip completed.
struct FailedClip {
  int clip_index = -1;
  Status status;    // The fault that exhausted the retry budget.
  int retries = 0;  // Transient faults the clip's runs retried first.
};

/// Result of evaluating one configuration over a clip set.
struct EvalResult {
  double accuracy = 0.0;
  double seconds = 0.0;
  models::SimClock clock;
  /// Tracks per clip, in clip order. A quarantined clip's slot is empty.
  std::vector<std::vector<track::Track>> tracks_per_clip;
  /// Quarantined clips, ascending clip_index. Empty unless faults are armed.
  std::vector<FailedClip> failed_clips;
  /// Clips re-run with use_proxy = false after their proxy failed
  /// persistently, ascending. A degraded clip's result equals the no-proxy
  /// run exactly. Empty unless faults are armed.
  std::vector<int> degraded_clips;
};

/// The clip scheduler: runs the pipeline under `config` over every clip,
/// clips fanned out over the default worker pool, and scores the outputs.
/// Results merge in clip order, so they are bit-identical at any pool
/// width.
///
/// Recovery in fault runs (OTIF_FAULTS armed) works per clip: the stages
/// retry transient model-invocation faults in place; a clip whose proxy
/// keeps failing is re-run without the proxy (degraded_clips); a clip whose
/// detector keeps failing is quarantined (failed_clips) and leaves an empty
/// slot, so the accuracy is then a lower bound.
EvalResult EvaluateConfig(const PipelineConfig& config,
                          const TrainedModels* trained,
                          const std::vector<sim::Clip>& clips,
                          const AccuracyFn& accuracy_fn);

/// Exists only for otifbench, which names an executor kind: EvaluateConfig
/// is the one clip scheduler.
enum class ExecutorKind { kSerial };

/// Exists only for otifbench: always "serial".
inline const char* ExecutorKindName(ExecutorKind) { return "serial"; }

/// Exists only for otifbench: always kSerial (reads no environment).
inline ExecutorKind ExecutorKindFromEnv() { return ExecutorKind::kSerial; }

/// Exists only for otifbench: forwards to EvaluateConfig.
inline EvalResult EvaluateConfigWith(ExecutorKind,
                                     const PipelineConfig& config,
                                     const TrainedModels* trained,
                                     const std::vector<sim::Clip>& clips,
                                     const AccuracyFn& accuracy_fn) {
  return EvaluateConfig(config, trained, clips, accuracy_fn);
}

/// Selects the best-accuracy configuration theta_best (paper Sec 3.3):
/// starting from the slowest configuration (no proxy, full resolution,
/// gap 1, SORT tracker — proxy and recurrent models are not yet trained at
/// this stage), repeatedly reduce the detector resolution in C~30% pixel
/// steps while accuracy does not decrease, then reduce the sampling rate
/// the same way. Accuracy is often *higher* below full resolution, which is
/// why the walk continues through accuracy-improving steps.
PipelineConfig SelectBestConfig(const std::vector<sim::Clip>& validation,
                                const AccuracyFn& accuracy_fn,
                                double* best_accuracy_out);

}  // namespace otif::core

#endif  // OTIF_CORE_BEST_CONFIG_H_

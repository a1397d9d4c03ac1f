// Highway monitoring on a Caldot-style camera: demonstrates the
// segmentation proxy model end to end. Renders a frame, scores its cells,
// groups positive cells into detector windows, and reports how much
// detector work the windows save versus a full-frame pass, then runs the
// full pipeline with and without the proxy to compare cost and accuracy.

#include <cstdio>

#include "core/cell_grouping.h"
#include "core/otif.h"
#include "eval/workload.h"
#include "sim/raster.h"
#include "obs/introspection_server.h"
#include "util/trace_timeline.h"

int main() {
  using namespace otif;

  // OTIF_LOG_LEVEL / OTIF_TRACE_TIMELINE / OTIF_DUMP_ON_ERROR.
  InitObservabilityFromEnv();
  otif::obs::InitIntrospectionFromEnv();

  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kCaldot1);
  core::RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 2;
  scale.test_clips = 1;
  scale.clip_seconds = 12;
  scale.proxy_train_steps = 250;
  scale.tracker_train_steps = 500;
  scale.proxy_resolutions = 2;

  core::Otif system(workload.spec, scale);
  auto valid = system.ValidClips();
  const core::AccuracyFn metric = workload.MakeAccuracyFn(&valid);
  std::printf("Training OTIF models on Caldot1 highway video...\n");
  system.Prepare(metric, core::Tuner::Options{});

  std::printf("\nSelected window sizes W (native px):");
  for (const core::WindowSize& w : system.trained().window_sizes) {
    std::printf(" %dx%d", w.w, w.h);
  }
  std::printf("\n\n");

  // Visualize one frame's proxy output as an ASCII cell grid.
  auto test = system.TestClips();
  const sim::Clip& clip = test[0];
  sim::Rasterizer raster(&clip);
  models::ProxyModel* proxy = system.trained().proxies[0].get();
  const int frame = clip.num_frames() / 2;
  const nn::Tensor scores = proxy->Score(raster.Render(
      frame, proxy->resolution().raster_w(), proxy->resolution().raster_h()));
  std::printf("Proxy cell scores for frame %d ('#' >= 0.5, '+' >= 0.2):\n",
              frame);
  for (int gy = 0; gy < proxy->resolution().grid_h(); ++gy) {
    std::printf("  ");
    for (int gx = 0; gx < proxy->resolution().grid_w(); ++gx) {
      const float s = scores[gy * proxy->resolution().grid_w() + gx];
      std::printf("%c", s >= 0.5f ? '#' : (s >= 0.2f ? '+' : '.'));
    }
    std::printf("\n");
  }

  // Group cells into windows and report the detector-work saving.
  const models::DetectorArch arch =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  core::WindowPlanner planner(system.trained().window_sizes, arch,
                              workload.spec.width, workload.spec.height, 1.0,
                              proxy->resolution().grid_w(),
                              proxy->resolution().grid_h());
  core::WindowPlan plan;
  planner.Plan(scores.data(), 0.5, &plan);
  const double full_cost = models::DetectorWindowSeconds(
      arch, workload.spec.width, workload.spec.height);
  std::printf("\n%zu window(s); est detector time %.2f ms vs %.2f ms full "
              "frame (%.1fx less work)\n",
              plan.sizes.size(), plan.est_seconds * 1e3, full_cost * 1e3,
              plan.est_seconds > 0 ? full_cost / plan.est_seconds : 1.0);

  // Full pipeline comparison: proxy off vs on.
  const core::AccuracyFn test_metric = workload.MakeAccuracyFn(&test);
  core::PipelineConfig config = system.theta_best();
  config.tracker = core::TrackerKind::kRecurrent;
  config.sampling_gap = 2;
  const core::EvalResult without =
      system.Execute(config, test, test_metric);
  config.use_proxy = true;
  config.proxy_threshold = 0.4;
  const core::EvalResult with = system.Execute(config, test, test_metric);
  std::printf("\nPipeline without proxy: %.2f s (accuracy %.3f)\n",
              without.seconds, without.accuracy);
  std::printf("Pipeline with proxy:    %.2f s (accuracy %.3f)\n",
              with.seconds, with.accuracy);
  return 0;
}

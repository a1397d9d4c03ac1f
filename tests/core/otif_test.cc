#include "core/otif.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "eval/workload.h"
#include "query/queries.h"
#include "track/metrics.h"
#include "util/thread_pool.h"

namespace otif::core {
namespace {

// Small scale for test speed; one shared prepared instance.
RunScale TestScale() {
  RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 2;
  scale.test_clips = 2;
  scale.clip_seconds = 12;
  scale.proxy_train_steps = 300;
  scale.tracker_train_steps = 700;
  scale.proxy_resolutions = 2;
  scale.window_sample_frames = 16;
  return scale;
}

struct PreparedOtif {
  std::unique_ptr<Otif> otif;
  std::vector<sim::Clip> valid;
  std::vector<sim::Clip> test;
  AccuracyFn valid_fn;
  AccuracyFn test_fn;
};

PreparedOtif* Shared() {
  static PreparedOtif* shared = [] {
    auto* p = new PreparedOtif;
    eval::TrackWorkload workload =
        eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
    p->otif = std::make_unique<Otif>(workload.spec, TestScale());
    p->valid = p->otif->ValidClips();
    p->test = p->otif->TestClips();
    p->valid_fn = workload.MakeAccuracyFn(&p->valid);
    p->test_fn = workload.MakeAccuracyFn(&p->test);
    Tuner::Options topts;
    topts.max_iterations = 6;
    p->otif->Prepare(p->valid_fn, topts);
    return p;
  }();
  return shared;
}

TEST(OtifTest, ClipSplitsAreDisjointAndDeterministic) {
  eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
  Otif otif(workload.spec, TestScale());
  const auto train = otif.TrainClips();
  const auto valid = otif.ValidClips();
  EXPECT_EQ(train.size(), 2u);
  EXPECT_EQ(valid.size(), 2u);
  EXPECT_NE(train[0].clip_seed(), valid[0].clip_seed());
  const auto train_again = otif.TrainClips();
  EXPECT_EQ(train[0].clip_seed(), train_again[0].clip_seed());
  EXPECT_EQ(train[0].objects().size(), train_again[0].objects().size());
}

TEST(OtifTest, PrepareProducesCurveAndModels) {
  PreparedOtif* p = Shared();
  EXPECT_GT(p->otif->theta_best_accuracy(), 0.4);
  EXPECT_EQ(p->otif->trained().proxies.size(), 2u);
  EXPECT_NE(p->otif->trained().tracker_net, nullptr);
  EXPECT_NE(p->otif->trained().refiner, nullptr);
  EXPECT_GE(p->otif->trained().window_sizes.size(), 2u);
  ASSERT_GE(p->otif->curve().size(), 3u);
}

TEST(OtifTest, CurveTradesSpeedForAccuracy) {
  PreparedOtif* p = Shared();
  const auto& curve = p->otif->curve();
  // Later points must be faster than the first point.
  EXPECT_LT(curve.back().val_seconds, curve.front().val_seconds * 0.7);
  // The best point on the curve should be reasonably accurate.
  double best_acc = 0.0;
  for (const TunerPoint& tp : curve) {
    best_acc = std::max(best_acc, tp.val_accuracy);
  }
  EXPECT_GT(best_acc, 0.5);
}

TEST(OtifTest, FastestWithinToleranceIsFasterThanBest) {
  PreparedOtif* p = Shared();
  const TunerPoint& pick = p->otif->FastestWithinTolerance(0.10);
  double best_acc = 0.0;
  for (const TunerPoint& tp : p->otif->curve()) {
    best_acc = std::max(best_acc, tp.val_accuracy);
  }
  EXPECT_GE(pick.val_accuracy, best_acc - 0.10);
  for (const TunerPoint& tp : p->otif->curve()) {
    if (tp.val_accuracy >= best_acc - 0.10) {
      EXPECT_LE(pick.val_seconds, tp.val_seconds);
    }
  }
}

TEST(OtifTest, ExecuteOnTestSetHoldsAccuracy) {
  PreparedOtif* p = Shared();
  const TunerPoint& pick = p->otif->FastestWithinTolerance(0.10);
  EvalResult r = p->otif->Execute(pick.config, p->test, p->test_fn);
  EXPECT_EQ(r.tracks_per_clip.size(), p->test.size());
  EXPECT_GT(r.accuracy, 0.35) << "test accuracy collapsed vs validation "
                              << pick.val_accuracy;
  EXPECT_GT(r.seconds, 0.0);
}

TEST(OtifTest, TunedConfigUsesSpeedups) {
  // The fastest curve point must use at least one speedup mechanism
  // (gap > 1, proxy, or reduced resolution).
  PreparedOtif* p = Shared();
  const auto& curve = p->otif->curve();
  const PipelineConfig& last = curve.back().config;
  EXPECT_TRUE(last.sampling_gap > 1 || last.use_proxy ||
              last.detector_scale < 0.99);
}

TEST(OtifTest, TracksSupportDownstreamQueries) {
  // End-to-end: extracted tracks answer a hard-braking query without
  // touching video again (the paper's core workflow claim).
  PreparedOtif* p = Shared();
  const TunerPoint& pick = p->otif->FastestWithinTolerance(0.10);
  EvalResult r = p->otif->Execute(pick.config, p->test, p->test_fn);
  for (size_t c = 0; c < p->test.size(); ++c) {
    const auto braking = query::FindHardBrakingTracks(
        r.tracks_per_clip[c], p->test[c].spec(), 3.0);
    // No crash and plausible cardinality.
    EXPECT_LE(braking.size(), r.tracks_per_clip[c].size());
  }
}

// Prepare's outputs at `threads` default-pool lanes, on a scale small
// enough to run twice (and under TSan).
struct PrepareOutputs {
  std::vector<TunerPoint> curve;
  std::vector<std::vector<float>> proxy_params;  // Per proxy, flattened.
};

PrepareOutputs PrepareAtPoolWidth(int threads) {
  ThreadPool::SetDefaultThreads(threads);
  RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 2;
  scale.test_clips = 1;
  scale.clip_seconds = 6;
  scale.proxy_train_steps = 30;
  scale.tracker_train_steps = 60;
  scale.proxy_resolutions = 3;
  scale.window_sample_frames = 8;
  eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
  Otif otif(workload.spec, scale);
  const std::vector<sim::Clip> valid = otif.ValidClips();
  Tuner::Options topts;
  topts.max_iterations = 2;
  otif.Prepare(workload.MakeAccuracyFn(&valid), topts);
  PrepareOutputs out;
  out.curve = otif.curve();
  for (const auto& proxy : otif.trained().proxies) {
    std::vector<float> flat;
    for (const nn::Tensor* t : proxy->ParameterValues()) {
      flat.insert(flat.end(), t->data(), t->data() + t->size());
    }
    out.proxy_params.push_back(std::move(flat));
  }
  return out;
}

TEST(OtifTest, PrepareIsIdenticalAcrossPoolWidths) {
  // Proxy resolutions train concurrently and the tuner fans out over the
  // pool; neither may let the pool width leak into any output.
  const int saved = ThreadPool::Default()->num_threads();
  const PrepareOutputs serial = PrepareAtPoolWidth(1);
  const PrepareOutputs wide = PrepareAtPoolWidth(4);
  ThreadPool::SetDefaultThreads(saved);

  ASSERT_EQ(serial.curve.size(), wide.curve.size());
  for (size_t i = 0; i < serial.curve.size(); ++i) {
    EXPECT_EQ(serial.curve[i].config.ToString(),
              wide.curve[i].config.ToString()) << "point " << i;
    EXPECT_EQ(serial.curve[i].val_seconds, wide.curve[i].val_seconds)
        << "point " << i;
    EXPECT_EQ(serial.curve[i].val_accuracy, wide.curve[i].val_accuracy)
        << "point " << i;
  }
  ASSERT_EQ(serial.proxy_params.size(), 3u);
  ASSERT_EQ(serial.proxy_params.size(), wide.proxy_params.size());
  for (size_t r = 0; r < serial.proxy_params.size(); ++r) {
    const std::vector<float>& a = serial.proxy_params[r];
    const std::vector<float>& b = wide.proxy_params[r];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "proxy " << r << " parameters differ";
  }
}

// FNV-1a64 accumulator over raw bytes.
class Fnv1a64 {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= bytes[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void String(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

// Digests of a quickstart-scale Otif::Prepare and Execute.
struct PrepareDigests {
  uint64_t curve = 0;        // Every TunerPoint.
  uint64_t theta_and_w = 0;  // theta_best and the window sizes W.
  uint64_t profiles = 0;     // A second Tuner::Run's caching phase.
  uint64_t execute = 0;      // Tracks and per-category sim seconds.
};

PrepareDigests DigestPrepareAtPoolWidth(int threads) {
  ThreadPool::SetDefaultThreads(threads);
  // examples/quickstart's scale and tuner options.
  RunScale scale;
  scale.train_clips = 3;
  scale.valid_clips = 2;
  scale.test_clips = 2;
  scale.clip_seconds = 15;
  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
  Otif otif(workload.spec, scale);
  const std::vector<sim::Clip> valid = otif.ValidClips();
  const AccuracyFn valid_fn = workload.MakeAccuracyFn(&valid);
  otif.Prepare(valid_fn, Tuner::Options{});

  PrepareDigests out;
  Fnv1a64 curve;
  for (const TunerPoint& p : otif.curve()) {
    curve.String(p.config.ToString());
    curve.Pod(p.val_seconds);
    curve.Pod(p.val_accuracy);
    curve.String(p.chosen_module);
  }
  out.curve = curve.value();

  Fnv1a64 theta;
  theta.String(otif.theta_best().ToString());
  for (const WindowSize& w : otif.trained().window_sizes) {
    theta.Pod(w.w);
    theta.Pod(w.h);
  }
  out.theta_and_w = theta.value();

  Tuner tuner(&valid, &otif.trained(), valid_fn, Tuner::Options{});
  tuner.Run(otif.theta_best());
  Fnv1a64 profiles;
  for (const Tuner::ProxyProfile& p : tuner.proxy_profiles()) {
    profiles.Pod(p.resolution_index);
    profiles.Pod(p.threshold);
    profiles.Pod(p.relative_detector_cost);
    profiles.Pod(p.proxy_sec_per_frame);
    profiles.Pod(p.recall);
  }
  for (const Tuner::DetectionProfile& p : tuner.detection_profiles()) {
    profiles.String(p.arch);
    profiles.Pod(p.scale);
    profiles.Pod(p.per_frame_sec);
    profiles.Pod(p.accuracy);
  }
  out.profiles = profiles.value();

  const std::vector<sim::Clip> test = otif.TestClips();
  const EvalResult r =
      otif.Execute(otif.FastestWithinTolerance(0.05).config, test,
                   workload.MakeAccuracyFn(&test));
  Fnv1a64 exec;
  for (const std::vector<track::Track>& tracks : r.tracks_per_clip) {
    exec.Pod(tracks.size());
    for (const track::Track& t : tracks) {
      exec.Pod(t.id);
      exec.Pod(t.cls);
      exec.Pod(t.detections.size());
      for (const track::Detection& d : t.detections) {
        exec.Pod(d.frame);
        exec.Pod(d.box.cx);
        exec.Pod(d.box.cy);
        exec.Pod(d.box.w);
        exec.Pod(d.box.h);
        exec.Pod(d.confidence);
      }
    }
  }
  for (const models::CostCategory cat :
       {models::CostCategory::kDecode, models::CostCategory::kProxy,
        models::CostCategory::kDetect, models::CostCategory::kTrack,
        models::CostCategory::kRefine}) {
    exec.Pod(r.clock.Seconds(cat));
  }
  out.execute = exec.value();
  return out;
}

TEST(OtifTest, PrepareMatchesGoldenDigest) {
  // A fixed reference across commits for the whole user job at quickstart
  // scale: the tuner curve, theta_best and W, the tuner's cached module
  // profiles, and the tracks Execute extracts at the chosen point. Change a
  // constant only in a change meant to alter these outputs, and say why in
  // CHANGES.md.
  const int saved = ThreadPool::Default()->num_threads();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const PrepareDigests d = DigestPrepareAtPoolWidth(threads);
    EXPECT_EQ(d.curve, 0xd1017ff32176d646ull)
        << std::hex << d.curve;
    EXPECT_EQ(d.theta_and_w, 0x2182db53b1759a8full)
        << std::hex << d.theta_and_w;
    EXPECT_EQ(d.profiles, 0x889c4f3ec1f04212ull)
        << std::hex << d.profiles;
    EXPECT_EQ(d.execute, 0xda8a88220a19c7c5ull)
        << std::hex << d.execute;
  }
  ThreadPool::SetDefaultThreads(saved);
}

}  // namespace
}  // namespace otif::core

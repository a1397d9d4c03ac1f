// OTIF benchmark program: runs one closed-loop workload through the public
// entry points (Otif::Prepare, Otif::Execute, core::EvaluateConfigWith) and
// prints a one-line JSON report on stdout. otifbench/run.py builds this
// binary, drives it and turns the report into the benchmark's metrics.
//
// Usage:
//   otif_bench --workload job|execute_cold|execute_warm --seed N
//              --seconds S --trace 0|1 [--timeline PATH]
//
// One caller issues each repetition ("rep") only after the previous one
// returned, until S seconds have been measured. The default pool is pinned
// to kPoolWidth lanes. Set-up (clip simulation, model construction, the
// first-touch warm-up pass and, for execute_warm, the cache fill) happens
// before the timed window, several times, and is reported separately.
//
// With --trace 0 the program runs as a user runs it (telemetry aggregates
// at their default, timeline and profiler off). With --trace 1 the first
// half of the window is measured that way, the second half with the
// sampling profiler running and the timeline armed around Otif::Prepare;
// the report then also carries the telemetry snapshot, profiler shares and
// (with --timeline) the Chrome trace of the last traced Prepare.
//
// It adds no instrumentation inside the library: per-layer numbers
// come from the library's own spans and counters, read from outside.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/best_config.h"
#include "core/otif.h"
#include "core/pipeline.h"
#include "eval/workload.h"
#include "mem/buffer_pool.h"
#include "models/cost_model.h"
#include "models/proxy.h"
#include "obs/profiler.h"
#include "sim/dataset.h"
#include "sim/world.h"
#include "util/json_writer.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace {

using otif::core::EvalResult;
using otif::core::PipelineConfig;

/// Pool width of every workload. The host is shared, so the benchmark
/// leaves lanes free for its neighbours; the width is reported.
constexpr int kPoolWidth = 2;
/// Set-up runs at least kSetupReps times and until kSetupMinSeconds of it
/// have run; setup_s is the median. A set-up of a few milliseconds thus
/// still yields a stable median.
constexpr int kSetupReps = 3;
constexpr double kSetupMinSeconds = 0.5;

/// Execute workloads: clip count and length. 64 x 300 frames keeps the
/// warm working set (19200 frames) under ProxyScoreCache::kDefaultCapacity
/// (65536), so no warm rep evicts, and is enough clips for per-clip
/// overhead to show.
constexpr int kExecuteClips = 64;
constexpr int kExecuteFrames = 300;
/// Clips of the cold workload's first-touch pass (threads, buffer-pool
/// blocks, arena chunks); the cache is cleared after it.
constexpr int kColdWarmupClips = 8;
/// Clip split for the execute workloads (0..2 are Otif's train/valid/test).
constexpr int kExecuteSplit = 3;
/// Unseen clips the job executes its chosen configuration on.
constexpr int kJobTestClips = 64;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// --- Output digests ----------------------------------------------------------
//
// FNV-1a64 over the same fields as bench_throughput's ResultDigest. Tracks
// are digested per clip; the simulated clock, total seconds and accuracy
// that EvaluateConfigWith merges across clips form one set digest.

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

void DigestBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

template <typename T>
void DigestValue(uint64_t* h, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  DigestBytes(h, &value, sizeof(value));
}

uint64_t TracksDigest(const std::vector<otif::track::Track>& tracks) {
  uint64_t h = kFnvOffset;
  for (const otif::track::Track& t : tracks) {
    DigestValue(&h, t.id);
    DigestValue(&h, t.cls);
    for (const otif::track::Detection& d : t.detections) {
      DigestValue(&h, d.frame);
      DigestValue(&h, d.box.cx);
      DigestValue(&h, d.box.cy);
      DigestValue(&h, d.box.w);
      DigestValue(&h, d.box.h);
      DigestValue(&h, d.cls);
      DigestValue(&h, d.confidence);
    }
  }
  return h;
}

uint64_t SetDigest(const EvalResult& r) {
  uint64_t h = kFnvOffset;
  for (int c = 0; c < otif::models::kNumCostCategories; ++c) {
    DigestValue(&h,
                r.clock.Seconds(static_cast<otif::models::CostCategory>(c)));
  }
  DigestValue(&h, r.seconds);
  DigestValue(&h, r.accuracy);
  return h;
}

/// What one rep produced. `clip_digests` has one entry per executed clip
/// (per pass, for multi-pass reps) and `set_digests` one per pass.
struct RepOutput {
  double prepare_s = 0.0;
  double execute_s = 0.0;
  double sim_s = 0.0;
  double accuracy = 0.0;
  int64_t frames = 0;  // Sampled frames executed.
  int64_t tuner_evaluations = 0;
  std::vector<uint64_t> clip_digests;
  std::vector<uint64_t> set_digests;
};

/// Sampled frames the pipeline processes for `clips` at gap `gap`.
int64_t SampledFrames(const std::vector<otif::sim::Clip>& clips, int gap) {
  int64_t n = 0;
  for (const otif::sim::Clip& clip : clips) {
    n += (clip.num_frames() + gap - 1) / gap;
  }
  return n;
}

void AppendEval(const EvalResult& r, const std::vector<otif::sim::Clip>& clips,
                int gap, RepOutput* out) {
  for (const auto& tracks : r.tracks_per_clip) {
    out->clip_digests.push_back(TracksDigest(tracks));
  }
  out->set_digests.push_back(SetDigest(r));
  out->sim_s += r.seconds;
  out->frames += SampledFrames(clips, gap);
}

int64_t CounterValue(const char* name) {
  return otif::telemetry::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Workload seed -> dataset seed. The synthetic dataset's own seed is 8;
/// every workload seed selects a distinct, reproducible set of clips.
uint64_t DatasetSeed(uint64_t workload_seed) {
  return 0x0715f00dULL + workload_seed * 0x9e3779b97f4a7c15ULL;
}

// --- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds inputs and models and runs the lazy first-touch work. Called
  /// several times; each call replaces the previous state.
  virtual void Setup() = 0;
  /// One closed-loop repetition. `traced` arms the timeline around Prepare.
  virtual RepOutput Rep(bool traced) = 0;
  /// Fills `out` with the digests of the same rep run on the serial
  /// executor with one worker; false when the workload has no such
  /// reference.
  virtual bool SerialReference(RepOutput* out) = 0;
  /// Clips whose outputs one rep checks (the report's `attempted`).
  virtual int64_t ClipsPerRep() const = 0;
};

/// `job`: the full user job at quickstart scale. Each rep constructs a
/// fresh Otif on the synthetic dataset's own seed (3 train, 2 valid clips of
/// 15 s), prepares it, picks FastestWithinTolerance(0.05) and executes that
/// configuration on kJobTestClips unseen clips selected by the workload
/// seed. Preparing on fixed training data keeps the tuner's choice, and so
/// the executed configuration, the same for every seed, as for a camera
/// that is prepared once and then queried over many unseen clips; the
/// seed varies what is executed.
class JobWorkload : public Workload {
 public:
  explicit JobWorkload(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    workload_ = otif::eval::MakeTrackWorkload(otif::sim::DatasetId::kSynthetic);
    scale_ = otif::core::RunScale{};
    scale_.train_clips = 3;
    scale_.valid_clips = 2;
    scale_.test_clips = kJobTestClips;
    scale_.clip_seconds = 15;
    const otif::core::Otif system(workload_.spec, scale_);
    valid_ = system.ValidClips();
    otif::sim::DatasetSpec unseen = workload_.spec;
    unseen.seed = DatasetSeed(seed_);
    test_ = otif::core::Otif(unseen, scale_).TestClips();
    valid_metric_ = workload_.MakeAccuracyFn(&valid_);
    test_metric_ = workload_.MakeAccuracyFn(&test_);
  }

  RepOutput Rep(bool traced) override {
    RepOutput out;
    const int64_t evals_before = CounterValue("tuner.evaluations");
    otif::core::Otif system(workload_.spec, scale_);
    const double t0 = Now();
    {
      // Timeline marker for the Prepare window; prepare.* phases are the
      // library spans that fall inside it.
      if (traced) {
        otif::telemetry::timeline::ClearEvents();
        otif::telemetry::timeline::SetCollectionEnabled(true);
      }
      otif::telemetry::ScopedSpan span(
          otif::telemetry::GetSpan("bench/prepare"));
      system.Prepare(valid_metric_, otif::core::Tuner::Options{});
    }
    if (traced) otif::telemetry::timeline::SetCollectionEnabled(false);
    const double t1 = Now();
    const otif::core::TunerPoint& chosen = system.FastestWithinTolerance(0.05);
    const EvalResult run = system.Execute(chosen.config, test_, test_metric_);
    const double t2 = Now();
    out.prepare_s = t1 - t0;
    out.execute_s = t2 - t1;
    out.accuracy = run.accuracy;
    out.tuner_evaluations = CounterValue("tuner.evaluations") - evals_before;
    AppendEval(run, test_, chosen.config.sampling_gap, &out);
    return out;
  }

  bool SerialReference(RepOutput*) override { return false; }
  int64_t ClipsPerRep() const override {
    return static_cast<int64_t>(test_.size());
  }

 private:
  const uint64_t seed_;
  otif::eval::TrackWorkload workload_;
  otif::core::RunScale scale_;
  std::vector<otif::sim::Clip> valid_;
  std::vector<otif::sim::Clip> test_;
  otif::core::AccuracyFn valid_metric_;
  otif::core::AccuracyFn test_metric_;
};

/// `execute_cold` / `execute_warm`: EvaluateConfigWith over kExecuteClips
/// unseen clips with a fixed-seed untrained proxy (as bench_throughput).
/// Cold clears the proxy score cache before every rep, so every frame is
/// scored. Warm fills the cache during set-up and re-executes the clip set
/// once per StandardProxyThresholds() value each rep, the tuner's
/// re-evaluation pattern, so every lookup hits.
class ExecuteWorkload : public Workload {
 public:
  ExecuteWorkload(uint64_t seed, bool warm) : seed_(seed), warm_(warm) {}

  void Setup() override {
    workload_ = otif::eval::MakeTrackWorkload(otif::sim::DatasetId::kSynthetic);
    workload_.spec.seed = DatasetSeed(seed_);
    const otif::sim::DatasetSpec& spec = workload_.spec;
    clips_.clear();
    clips_.reserve(kExecuteClips);
    for (int c = 0; c < kExecuteClips; ++c) {
      clips_.push_back(otif::sim::SimulateClip(
          spec, otif::sim::ClipSeed(spec, kExecuteSplit, c), kExecuteFrames));
    }
    metric_ = workload_.MakeAccuracyFn(&clips_);
    trained_ = std::make_unique<otif::core::TrainedModels>();
    const auto resolutions = otif::models::StandardProxyResolutions();
    trained_->proxies.push_back(std::make_unique<otif::models::ProxyModel>(
        resolutions.back(), /*seed=*/1234));
    trained_->window_sizes = {otif::core::WindowSize{64, 64},
                              otif::core::WindowSize{128, 96},
                              otif::core::WindowSize{spec.width, spec.height}};
    config_ = PipelineConfig{};
    config_.use_proxy = true;
    config_.proxy_resolution_index = 0;
    config_.proxy_threshold = 0.3;
    // First touch: buffer-pool blocks, arena chunks, executor threads. For
    // the warm workload this pass over every clip is the cache fill.
    if (warm_) {
      Run(config_);
    } else {
      const std::vector<otif::sim::Clip> head(
          clips_.begin(), clips_.begin() + kColdWarmupClips);
      otif::core::EvaluateConfigWith(otif::core::ExecutorKindFromEnv(),
                                     config_, trained_.get(), head,
                                     workload_.MakeAccuracyFn(&head));
      trained_->proxy_cache.Clear();
    }
  }

  RepOutput Rep(bool /*traced*/) override {
    RepOutput out;
    const double t0 = Now();
    if (warm_) {
      for (const double threshold : otif::core::StandardProxyThresholds()) {
        PipelineConfig config = config_;
        config.proxy_threshold = threshold;
        const EvalResult r = Run(config);
        AppendEval(r, clips_, config.sampling_gap, &out);
        out.accuracy += r.accuracy;
      }
      out.accuracy /=
          static_cast<double>(otif::core::StandardProxyThresholds().size());
    } else {
      trained_->proxy_cache.Clear();
      const EvalResult r = Run(config_);
      AppendEval(r, clips_, config_.sampling_gap, &out);
      out.accuracy = r.accuracy;
    }
    out.execute_s = Now() - t0;
    return out;
  }

  /// The repo's determinism contract: the same rep on the serial executor
  /// with one worker must give bit-identical outputs. The cold reference
  /// starts from an empty cache; the warm one reads the filled cache.
  bool SerialReference(RepOutput* out) override {
    otif::ThreadPool::SetDefaultThreads(1);
    if (!warm_) trained_->proxy_cache.Clear();
    const std::vector<double> thresholds =
        warm_ ? otif::core::StandardProxyThresholds()
              : std::vector<double>{config_.proxy_threshold};
    for (const double threshold : thresholds) {
      PipelineConfig config = config_;
      config.proxy_threshold = threshold;
      const EvalResult r = otif::core::EvaluateConfigWith(
          otif::core::ExecutorKind::kSerial, config, trained_.get(), clips_,
          metric_);
      AppendEval(r, clips_, config.sampling_gap, out);
    }
    otif::ThreadPool::SetDefaultThreads(kPoolWidth);
    return true;
  }

  int64_t ClipsPerRep() const override {
    const size_t passes =
        warm_ ? otif::core::StandardProxyThresholds().size() : 1;
    return static_cast<int64_t>(clips_.size() * passes);
  }

 private:
  EvalResult Run(const PipelineConfig& config) const {
    return otif::core::EvaluateConfigWith(otif::core::ExecutorKindFromEnv(),
                                          config, trained_.get(), clips_,
                                          metric_);
  }

  const uint64_t seed_;
  const bool warm_;
  otif::eval::TrackWorkload workload_;
  std::vector<otif::sim::Clip> clips_;
  otif::core::AccuracyFn metric_;
  std::unique_ptr<otif::core::TrainedModels> trained_;
  PipelineConfig config_;
};

// --- Report ------------------------------------------------------------------

struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  RepOutput out;
};

void WriteDigests(otif::JsonWriter& w, std::string_view key,
                  const std::vector<uint64_t>& digests) {
  w.Key(key).BeginArray();
  for (const uint64_t d : digests) {
    w.Value(otif::StrFormat("%016llx", static_cast<unsigned long long>(d)));
  }
  w.EndArray();
}

void WriteSamples(otif::JsonWriter& w, const std::vector<Sample>& samples) {
  w.BeginArray();
  for (const Sample& s : samples) {
    w.BeginObject();
    w.Key("wall_s").Value(s.wall_s);
    w.Key("cpu_s").Value(s.cpu_s);
    w.Key("prepare_s").Value(s.out.prepare_s);
    w.Key("execute_s").Value(s.out.execute_s);
    w.Key("sim_s").Value(s.out.sim_s);
    w.Key("accuracy").Value(s.out.accuracy);
    w.Key("frames").Value(s.out.frames);
    w.Key("tuner_evaluations").Value(s.out.tuner_evaluations);
    WriteDigests(w, "clip_digests", s.out.clip_digests);
    WriteDigests(w, "set_digests", s.out.set_digests);
    w.EndObject();
  }
  w.EndArray();
}

/// Runs reps until `seconds` of wall time are measured (at least one rep).
std::vector<Sample> Measure(Workload* workload, double seconds, bool traced) {
  std::vector<Sample> samples;
  const double deadline = Now() + seconds;
  do {
    Sample s;
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    s.out = workload->Rep(traced);
    s.wall_s = Now() - t0;
    s.cpu_s = ProcessCpuSeconds() - cpu0;
    samples.push_back(std::move(s));
  } while (Now() < deadline);
  return samples;
}

/// Share of profiler samples whose stack has a frame containing any of
/// `needles` (each sample counted once however many frames match).
double StackShare(const otif::obs::Profile& prof,
                  std::initializer_list<std::string_view> needles) {
  if (prof.samples <= 0) return 0.0;
  int64_t hit = 0;
  for (const otif::obs::ProfileStack& stack : prof.stacks) {
    const bool match = std::any_of(
        stack.frames.begin(), stack.frames.end(), [&](const std::string& f) {
          return std::any_of(needles.begin(), needles.end(),
                             [&](std::string_view n) {
                               return f.find(n) != std::string::npos;
                             });
        });
    if (match) hit += stack.count;
  }
  return static_cast<double>(hit) / static_cast<double>(prof.samples);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "otif_bench: %s\nusage: otif_bench --workload "
               "job|execute_cold|execute_warm --seed N --seconds S "
               "--trace 0|1 [--timeline PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string timeline_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      trace = value[0] - '0';
    } else if (flag == "--timeline") {
      timeline_path = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || trace < 0 || seconds <= 0.0) {
    return Usage("missing arguments");
  }

  std::unique_ptr<Workload> workload;
  if (workload_name == "job") {
    workload = std::make_unique<JobWorkload>(seed);
  } else if (workload_name == "execute_cold") {
    workload = std::make_unique<ExecuteWorkload>(seed, /*warm=*/false);
  } else if (workload_name == "execute_warm") {
    workload = std::make_unique<ExecuteWorkload>(seed, /*warm=*/true);
  } else {
    return Usage("unknown --workload");
  }

  // OTIF_LOG_LEVEL and OTIF_TRACE_TIMELINE_EVENTS (timeline ring size).
  otif::InitObservabilityFromEnv();
  otif::ThreadPool::SetDefaultThreads(kPoolWidth);

  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (static_cast<int>(setup_s.size()) < kSetupReps ||
         setup_total < kSetupMinSeconds) {
    const double t0 = Now();
    workload->Setup();
    setup_s.push_back(Now() - t0);
    setup_total += setup_s.back();
  }

  // Untraced window: the whole run for --trace 0, the first half for
  // --trace 1 (the baseline trace.overhead_frac is taken against).
  const double untraced_seconds = trace == 1 ? seconds / 2.0 : seconds;
  const std::vector<Sample> untraced =
      Measure(workload.get(), untraced_seconds, /*traced=*/false);

  // Traced window.
  std::vector<Sample> traced;
  otif::telemetry::TelemetrySnapshot snapshot;
  otif::obs::Profile profile;
  bool profiled = false;
  double traced_wall = 0.0;
  otif::mem::BufferPool::Stats mem_before;
  otif::mem::BufferPool::Stats mem_after;
  if (trace == 1) {
    otif::telemetry::SetEnabled(true);
    otif::telemetry::ResetAll();
    mem_before = otif::mem::BufferPool::Global().GetStats();
    const otif::Status started = otif::obs::CpuProfiler::Global().Start();
    if (!started.ok()) {
      std::fprintf(stderr, "profiler unavailable: %s\n",
                   started.ToString().c_str());
    }
    const double t0 = Now();
    traced = Measure(workload.get(), seconds / 2.0, /*traced=*/true);
    traced_wall = Now() - t0;
    if (started.ok()) {
      otif::StatusOr<otif::obs::Profile> stopped =
          otif::obs::CpuProfiler::Global().Stop();
      if (stopped.ok()) {
        profile = std::move(stopped.value());
        profiled = true;
      }
    }
    mem_after = otif::mem::BufferPool::Global().GetStats();
    snapshot = otif::telemetry::CaptureSnapshot();
    if (!timeline_path.empty()) {
      const otif::Status written =
          otif::telemetry::timeline::WriteChromeTrace(timeline_path);
      if (!written.ok()) {
        std::fprintf(stderr, "timeline export failed: %s\n",
                     written.ToString().c_str());
        return 1;
      }
    }
  }

  // Output check against the serial single-worker reference, after the
  // measured window so it neither counts as set-up nor disturbs the cache
  // state the reps measured.
  RepOutput reference;
  const bool has_reference = workload->SerialReference(&reference);

  otif::JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(workload_name);
  w.Key("seed").Value(seed);
  w.Key("pool_width").Value(kPoolWidth);
  w.Key("executor").Value(
      otif::core::ExecutorKindName(otif::core::ExecutorKindFromEnv()));
  w.Key("build_type").Value(OTIF_BENCH_BUILD_TYPE);
  w.Key("compiler").Value(OTIF_BENCH_COMPILER);
  w.Key("clips_per_rep").Value(workload->ClipsPerRep());
  w.Key("setup_s").BeginArray();
  for (const double s : setup_s) w.Value(s);
  w.EndArray();
  w.Key("peak_rss_mb").Value(PeakRssMb());
  w.Key("untraced");
  WriteSamples(w, untraced);
  w.Key("reference");
  if (has_reference) {
    WriteSamples(w, {Sample{0.0, 0.0, reference}});
  } else {
    w.Null();
  }
  if (trace == 1) {
    w.Key("traced");
    WriteSamples(w, traced);
    w.Key("traced_wall_s").Value(traced_wall);
    w.Key("memory").BeginObject();
    w.Key("pool_hits").Value(mem_after.hits - mem_before.hits);
    w.Key("pool_misses").Value(mem_after.misses - mem_before.misses);
    w.Key("arena_allocations")
        .Value(mem_after.arena_allocs - mem_before.arena_allocs);
    w.Key("bytes_retained").Value(mem_after.bytes_retained);
    w.EndObject();
    w.Key("profile").BeginObject();
    w.Key("enabled").Value(profiled);
    w.Key("samples").Value(profile.samples);
    w.Key("dropped").Value(profile.dropped);
    w.Key("shares").BeginObject();
    w.Key("gemm").Value(StackShare(profile, {"otif::nn::GemmBias"}));
    w.Key("im2col").Value(StackShare(profile, {"otif::nn::Im2Col"}));
    w.Key("relu").Value(StackShare(profile, {"otif::nn::Relu::"}));
    w.Key("conv_ref_forward")
        .Value(StackShare(profile, {"otif::nn::Conv2d::InferReference",
                                    "otif::nn::Conv2d::Forward"}));
    w.Key("conv_backward")
        .Value(StackShare(profile, {"otif::nn::Conv2d::Backward"}));
    w.EndObject();
    w.Key("top_frames").BeginArray();
    for (const auto& [symbol, count] : otif::obs::TopFrames(profile, 25)) {
      w.BeginObject();
      w.Key("symbol").Value(symbol);
      w.Key("count").Value(count);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Key("telemetry").RawValue(otif::telemetry::SnapshotToJson(snapshot));
  }
  w.EndObject();
  std::printf("%s\n", std::move(w).TakeString().c_str());
  std::fflush(stdout);
  return 0;
}

// Determinism tests for the staged pipeline executor: parallel execution
// over the worker pool must reproduce the single-threaded results
// bit-for-bit (tracks, simulated clock charges, coverage diagnostics).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "core/proxy_cache.h"
#include "core/tuner.h"
#include "mem/buffer_pool.h"
#include "models/detector.h"
#include "query/queries.h"
#include "sim/dataset.h"
#include "sim/raster.h"
#include "track/metrics.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

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

AccuracyFn CountAccuracyFn(const std::vector<sim::Clip>* clips) {
  return [clips](const std::vector<std::vector<track::Track>>& per_clip) {
    double sum = 0.0;
    for (size_t c = 0; c < clips->size(); ++c) {
      const int gt = query::GroundTruthVehicleCount((*clips)[c], 10);
      const int est = query::CountVehicleTracks(per_clip[c], 10);
      sum += track::CountAccuracy(est, gt);
    }
    return sum / static_cast<double>(clips->size());
  };
}

/// Trained artifacts for the matrix: one lightly trained proxy (enough to
/// produce non-trivial cell scores), a freshly seeded (deterministic)
/// recurrent tracker net, and a hand-picked window set. No refiner: the
/// refine path needs S*, which is out of scope for these tests.
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

void ExpectIdentical(const EvalResult& a, const EvalResult& b) {
  // Exact floating-point equality: the parallel schedule must not change a
  // single bit of the accounting.
  for (const models::CostCategory cat :
       {models::CostCategory::kDecode, models::CostCategory::kProxy,
        models::CostCategory::kDetect, models::CostCategory::kTrack,
        models::CostCategory::kRefine}) {
    EXPECT_EQ(a.clock.Seconds(cat), b.clock.Seconds(cat))
        << "category " << static_cast<int>(cat);
  }
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.accuracy, b.accuracy);
  ASSERT_EQ(a.tracks_per_clip.size(), b.tracks_per_clip.size());
  for (size_t c = 0; c < a.tracks_per_clip.size(); ++c) {
    const auto& ta = a.tracks_per_clip[c];
    const auto& tb = b.tracks_per_clip[c];
    ASSERT_EQ(ta.size(), tb.size()) << "clip " << c;
    for (size_t t = 0; t < ta.size(); ++t) {
      EXPECT_EQ(ta[t].id, tb[t].id);
      EXPECT_EQ(ta[t].cls, tb[t].cls);
      ASSERT_EQ(ta[t].detections.size(), tb[t].detections.size());
      for (size_t d = 0; d < ta[t].detections.size(); ++d) {
        const track::Detection& da = ta[t].detections[d];
        const track::Detection& db = tb[t].detections[d];
        EXPECT_EQ(da.frame, db.frame);
        EXPECT_EQ(da.box.cx, db.box.cx);
        EXPECT_EQ(da.box.cy, db.box.cy);
        EXPECT_EQ(da.box.w, db.box.w);
        EXPECT_EQ(da.box.h, db.box.h);
        EXPECT_EQ(da.confidence, db.confidence);
      }
    }
  }
}

class PipelineStagesDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetDefaultThreads(1); }

  /// Evaluates `config` serially and with a 4-lane pool; both must agree
  /// bit-for-bit. The proxy cache is cleared before each run so the
  /// parallel pass exercises concurrent compute+insert, not just hits.
  void CheckConfig(const PipelineConfig& config,
                   const TrainedModels* trained) {
    const auto fn = CountAccuracyFn(&clips_);
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    const EvalResult serial = EvaluateConfig(config, trained, clips_, fn);
    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    const EvalResult parallel = EvaluateConfig(config, trained, clips_, fn);
    ExpectIdentical(serial, parallel);
  }

  std::vector<sim::Clip> clips_ = MakeClips();
};

TEST_F(PipelineStagesDeterminismTest, SortNoProxy) {
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = false;
  CheckConfig(config, nullptr);
}

TEST_F(PipelineStagesDeterminismTest, SortWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(PipelineStagesDeterminismTest, RecurrentNoProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.use_proxy = false;
  config.sampling_gap = 4;
  CheckConfig(config, trained.get());
}

TEST_F(PipelineStagesDeterminismTest, RecurrentWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

// FNV-1a64 over every track field and the per-category simulated seconds,
// in clip, track, detection and category order.
uint64_t EvalDigest(const EvalResult& r) {
  uint64_t h = 14695981039346656037ull;
  const auto hash = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const std::vector<track::Track>& tracks : r.tracks_per_clip) {
    const size_t n = tracks.size();
    hash(&n, sizeof(n));
    for (const track::Track& t : tracks) {
      hash(&t.id, sizeof(t.id));
      hash(&t.cls, sizeof(t.cls));
      const size_t m = t.detections.size();
      hash(&m, sizeof(m));
      for (const track::Detection& d : t.detections) {
        hash(&d.frame, sizeof(d.frame));
        hash(&d.box.cx, sizeof(d.box.cx));
        hash(&d.box.cy, sizeof(d.box.cy));
        hash(&d.box.w, sizeof(d.box.w));
        hash(&d.box.h, sizeof(d.box.h));
        hash(&d.confidence, sizeof(d.confidence));
      }
    }
  }
  for (const models::CostCategory cat :
       {models::CostCategory::kDecode, models::CostCategory::kProxy,
        models::CostCategory::kDetect, models::CostCategory::kTrack,
        models::CostCategory::kRefine}) {
    const double s = r.clock.Seconds(cat);
    hash(&s, sizeof(s));
  }
  return h;
}

TEST_F(PipelineStagesDeterminismTest, RenderCouplingMatchesGoldenDigests) {
  // A fixed reference across commits for how the proxy and the recurrent
  // tracker share low-resolution frames: {SORT, recurrent} x {proxy on,
  // off}, each evaluated with a cleared score cache (every proxy lookup
  // misses) and again with the warm cache (every lookup hits). Both runs
  // must give the recorded digest. Change a constant only in a change meant
  // to alter pipeline output, and say why in CHANGES.md.
  //
  // The threshold and the full-frame window keep detections flowing with
  // the proxy on (at 0.3 this lightly trained proxy marks every frame
  // empty), so the recurrent tracker's association depends on which pixels
  // it reads: rendering its frames at 40x24 instead of the proxy resolution
  // changes the recurrent/proxy digest.
  struct Case {
    const char* name;
    TrackerKind tracker;
    bool use_proxy;
    int sampling_gap;
    uint64_t golden;
  };
  const Case cases[] = {
      {"sort/no-proxy", TrackerKind::kSort, false, 1,
       0x001a89c8085d4350ull},
      {"sort/proxy", TrackerKind::kSort, true, 2, 0xec1f6eadaa09ba0full},
      {"recurrent/no-proxy", TrackerKind::kRecurrent, false, 4,
       0x6b2280870be28c06ull},
      {"recurrent/proxy", TrackerKind::kRecurrent, true, 2,
       0x0d2bb66468a129b8ull},
  };
  const auto trained = MakeTrained(clips_);
  trained->window_sizes.back() = WindowSize{320, 240};
  const auto fn = CountAccuracyFn(&clips_);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PipelineConfig config;
    config.tracker = c.tracker;
    config.use_proxy = c.use_proxy;
    config.proxy_threshold = 0.1;
    config.sampling_gap = c.sampling_gap;
    trained->proxy_cache.Clear();
    ThreadPool::SetDefaultThreads(1);
    const uint64_t cold =
        EvalDigest(EvaluateConfig(config, trained.get(), clips_, fn));
    ThreadPool::SetDefaultThreads(4);
    const uint64_t warm =
        EvalDigest(EvaluateConfig(config, trained.get(), clips_, fn));
    EXPECT_EQ(cold, c.golden) << std::hex << cold;
    EXPECT_EQ(warm, c.golden) << std::hex << warm;
  }
}

TEST_F(PipelineStagesDeterminismTest, ProxyCacheCountsHitsAcrossRuns) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  const auto fn = CountAccuracyFn(&clips_);
  trained->proxy_cache.Clear();
  EvaluateConfig(config, trained.get(), clips_, fn);
  const int64_t misses_first = trained->proxy_cache.misses();
  EXPECT_GT(misses_first, 0);
  EXPECT_GT(trained->proxy_cache.size(), 0u);
  const int64_t hits_before = trained->proxy_cache.hits();
  EvaluateConfig(config, trained.get(), clips_, fn);
  // Second evaluation re-scores the same frames: all lookups hit.
  EXPECT_EQ(trained->proxy_cache.misses(), misses_first);
  EXPECT_GE(trained->proxy_cache.hits() - hits_before, misses_first);
}

/// Calls of the proxy/render span since the last telemetry::ResetAll().
int64_t ProxyRenderCount() {
  const telemetry::TelemetrySnapshot snapshot = telemetry::CaptureSnapshot();
  const telemetry::SpanSample* span =
      telemetry::FindSpan(snapshot, "proxy/render");
  return span == nullptr ? int64_t{0} : span->count;
}

TEST_F(PipelineStagesDeterminismTest, ProxyRendersOnlyCacheMisses) {
  // Frames render on demand: the proxy renders a frame only when its score
  // lookup misses, and SORT never reads pixels. The proxy/render span counts
  // the proxy's renders, so a cold run shows exactly one per miss and a warm
  // run (every lookup hits) none.
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  const auto fn = CountAccuracyFn(&clips_);
  const bool telemetry_was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  trained->proxy_cache.Clear();
  telemetry::ResetAll();
  const int64_t misses_before = trained->proxy_cache.misses();
  EvaluateConfig(config, trained.get(), clips_, fn);
  const int64_t misses = trained->proxy_cache.misses() - misses_before;
  EXPECT_GT(misses, 0);
  EXPECT_EQ(ProxyRenderCount(), misses);

  telemetry::ResetAll();
  EvaluateConfig(config, trained.get(), clips_, fn);
  EXPECT_EQ(trained->proxy_cache.misses() - misses_before, misses);
  EXPECT_EQ(ProxyRenderCount(), 0);
  telemetry::SetEnabled(telemetry_was_enabled);
}

TEST_F(PipelineStagesDeterminismTest, TunerRendersOnlyCacheMisses) {
  // The tuner's caching phase scores sampled validation frames through the
  // same score tables as the proxy stage: it renders a frame (under the
  // proxy/render span) only when its lookup misses. No tuning round runs
  // and the initial configuration has the proxy off, so every proxy lookup
  // and render here is the caching phase's.
  const auto trained = MakeTrained(clips_);
  trained->window_sizes.back() = WindowSize{320, 240};
  const std::vector<sim::Clip> validation(clips_.begin(), clips_.begin() + 1);
  Tuner::Options options;
  options.max_iterations = 0;
  options.tracker = TrackerKind::kSort;
  PipelineConfig theta_best;
  theta_best.sampling_gap = 4;
  const bool telemetry_was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  trained->proxy_cache.Clear();
  telemetry::ResetAll();
  const int64_t misses_before = trained->proxy_cache.misses();
  Tuner(&validation, trained.get(), CountAccuracyFn(&validation), options)
      .Run(theta_best);
  const int64_t misses = trained->proxy_cache.misses() - misses_before;
  EXPECT_GT(misses, 0);
  EXPECT_EQ(ProxyRenderCount(), misses);

  // A second walk finds every sampled frame in the tables.
  telemetry::ResetAll();
  const int64_t hits_before = trained->proxy_cache.hits();
  Tuner(&validation, trained.get(), CountAccuracyFn(&validation), options)
      .Run(theta_best);
  EXPECT_EQ(trained->proxy_cache.misses() - misses_before, misses);
  EXPECT_EQ(trained->proxy_cache.hits() - hits_before, misses);
  EXPECT_EQ(ProxyRenderCount(), 0);
  telemetry::SetEnabled(telemetry_was_enabled);
}

nn::Tensor Scores(std::initializer_list<float> values) {
  nn::Tensor t({static_cast<int>(values.size())});
  int i = 0;
  for (const float v : values) t[i++] = v;
  return t;
}

/// Looks `frame` up in `table` and records the outcome in `cache`, as the
/// consumers do (they record once per batch; this is a batch of one).
const float* CountedFind(const ProxyScoreCache& cache,
                         const ProxyScoreTable& table, int frame) {
  const float* scores = table.Find(frame);
  cache.RecordLookups(scores != nullptr ? 1 : 0, scores == nullptr ? 1 : 0);
  return scores;
}

/// Reads frame 0 of the one-frame, one-cell table of `seed`, or on a miss
/// "scores" it as `value` (counting the compute) and inserts it.
float FindOrInsert(const ProxyScoreCache& cache, uint64_t seed, float value,
                   int* computes = nullptr) {
  const std::shared_ptr<ProxyScoreTable> table = cache.Table(seed, 0, 1, 1);
  if (const float* scores = CountedFind(cache, *table, 0)) return scores[0];
  if (computes != nullptr) ++*computes;
  return table->Insert(0, Scores({value}))[0];
}

TEST(ProxyScoreCacheTest, EvictsFifoAtCapacity) {
  // The capacity counts frame slots; one-frame tables make it a table count.
  ProxyScoreCache cache(/*capacity=*/2);
  int computes = 0;
  EXPECT_EQ(FindOrInsert(cache, 1, 1.0f, &computes), 1.0f);
  EXPECT_EQ(FindOrInsert(cache, 2, 2.0f, &computes), 2.0f);
  EXPECT_EQ(FindOrInsert(cache, 3, 3.0f, &computes), 3.0f);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(computes, 3);
  // Table 1 was evicted (FIFO) and recomputes; table 3 is still resident.
  EXPECT_EQ(FindOrInsert(cache, 1, 1.5f, &computes), 1.5f);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(FindOrInsert(cache, 3, 9.0f, &computes), 3.0f);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 4);

  // Multi-frame tables evict whole, oldest first, and never the new table
  // even when it alone exceeds the capacity.
  ProxyScoreCache frames(/*capacity=*/5);
  frames.Table(1, 0, 3, 1);
  frames.Table(1, 1, 2, 1);
  EXPECT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames.evictions(), 0);
  frames.Table(2, 0, 2, 1);  // Evicts (1, 0): 3 slots.
  EXPECT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames.evictions(), 3);
  frames.Table(3, 0, 8, 1);  // Evicts both older tables; keeps itself.
  EXPECT_EQ(frames.size(), 8u);
  EXPECT_EQ(frames.evictions(), 7);
}

TEST(ProxyScoreCacheTest, CountsEvictionsAndResetsCounters) {
  ProxyScoreCache cache(/*capacity=*/2);
  FindOrInsert(cache, 1, 1.0f);
  FindOrInsert(cache, 2, 2.0f);
  FindOrInsert(cache, 3, 3.0f);  // Evicts table 1.
  FindOrInsert(cache, 4, 4.0f);  // Evicts table 2.
  FindOrInsert(cache, 4, 9.0f);  // Hit.
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0 / 5.0);

  // Clear drops tables but keeps counters (documented contract) ...
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.evictions(), 2);

  // ... while ResetCounters starts a fresh measurement interval without
  // touching the tables.
  FindOrInsert(cache, 5, 5.0f);
  cache.ResetCounters();
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(FindOrInsert(cache, 5, 9.0f), 5.0f);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(ProxyScoreCacheTest, ConcurrentLookupOrInsertIsConsistent) {
  // 256 tasks over 16 frames of one table: each fetches the table, and on a
  // miss scores and inserts the frame. Whatever the interleaving, every
  // task reads the frame's one value and every lookup is counted once.
  ProxyScoreCache cache;
  ThreadPool pool(4);
  std::vector<float> got(256, -1.0f);
  pool.ParallelFor(256, [&](int64_t i) {
    const int frame = static_cast<int>(i % 16);
    const std::shared_ptr<ProxyScoreTable> table = cache.Table(7, 0, 16, 1);
    const float* scores = CountedFind(cache, *table, frame);
    if (scores == nullptr) {
      scores = table->Insert(frame, Scores({static_cast<float>(frame)}));
    }
    got[static_cast<size_t>(i)] = scores[0];
  });
  for (int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], static_cast<float>(i % 16));
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.hits() + cache.misses(), 256);
  EXPECT_GE(cache.misses(), 16);
}

TEST(ProxyScoreCacheTest, HandleOutlivesEvictionAndClear) {
  constexpr int kFrames = 4;
  constexpr int kCells = 3;
  ProxyScoreCache cache(/*capacity=*/kFrames);
  const std::shared_ptr<ProxyScoreTable> held =
      cache.Table(1, 0, kFrames, kCells);
  std::vector<float> expected;
  for (int f = 0; f < kFrames; ++f) {
    const nn::Tensor scores =
        Scores({0.1f * f, 0.25f + f, 1.0f / (f + 3.0f)});
    held->Insert(f, scores);
    expected.insert(expected.end(), scores.data(), scores.data() + kCells);
  }
  const auto expect_held_intact = [&] {
    for (int f = 0; f < kFrames; ++f) {
      const float* scores = held->Find(f);
      ASSERT_NE(scores, nullptr) << "frame " << f;
      for (int c = 0; c < kCells; ++c) {
        EXPECT_EQ(scores[c], expected[static_cast<size_t>(f * kCells + c)])
            << "frame " << f << " cell " << c;
      }
    }
  };
  // Churn the buffer pool after each drop, so storage released too early
  // would be handed out and overwritten.
  const auto churn_pool = [] {
    std::vector<mem::PooledBuffer> buffers;
    for (int i = 0; i < 8; ++i) {
      buffers.push_back(mem::BufferPool::Global().Acquire(kFrames * kCells));
      std::fill(buffers.back().data(),
                buffers.back().data() + kFrames * kCells, -7.0f);
    }
  };

  // A second table takes the cache past its capacity: the held one goes.
  const std::shared_ptr<ProxyScoreTable> other =
      cache.Table(2, 0, kFrames, kCells);
  EXPECT_EQ(cache.evictions(), kFrames);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kFrames));
  churn_pool();
  expect_held_intact();
  // The cache no longer shares it: the same key gets a fresh, empty table.
  const std::shared_ptr<ProxyScoreTable> refetched =
      cache.Table(1, 0, kFrames, kCells);
  EXPECT_NE(refetched.get(), held.get());
  EXPECT_EQ(refetched->Find(0), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  churn_pool();
  expect_held_intact();
}

TEST(ProxyScoreCacheTest, ConcurrentReadersAndWriters) {
  // Lock-free readers poll every frame while writers race to fill them with
  // writer-specific grids. First write wins: each frame ends with exactly
  // one writer's grid, every writer's Insert returns that grid, and a
  // reader never sees a partial grid or a grid change after it appeared.
  constexpr int kFrames = 64;
  constexpr int kCells = 15;
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  ProxyScoreCache cache;
  const std::shared_ptr<ProxyScoreTable> table =
      cache.Table(9, 0, kFrames, kCells);
  std::atomic<int> writers_left{kWriters};
  // Winner recorded by each writer's Insert, per frame.
  std::vector<std::vector<float>> inserted(
      kWriters, std::vector<float>(kFrames, -1.0f));
  std::vector<std::vector<float>> observed(
      kReaders, std::vector<float>(kFrames, -1.0f));
  std::vector<int> torn(kReaders, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      nn::Tensor grid({kCells});
      for (int i = 0; i < kFrames; ++i) {
        // Writers sweep in different orders so they collide mid-table.
        const int f = (i * (2 * w + 1) + 17 * w) % kFrames;
        for (int c = 0; c < kCells; ++c) grid[c] = f * 10.0f + w;
        inserted[static_cast<size_t>(w)][static_cast<size_t>(f)] =
            table->Insert(f, grid)[kCells - 1];
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float>& seen = observed[static_cast<size_t>(r)];
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writers_left.load(std::memory_order_acquire) == 0;
        for (int f = 0; f < kFrames; ++f) {
          const float* scores = table->Find(f);
          if (scores == nullptr) continue;
          for (int c = 1; c < kCells; ++c) {
            if (scores[c] != scores[0]) ++torn[static_cast<size_t>(r)];
          }
          float& first = seen[static_cast<size_t>(f)];
          if (first < 0.0f) {
            first = scores[0];
          } else if (first != scores[0]) {
            ++torn[static_cast<size_t>(r)];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int f = 0; f < kFrames; ++f) {
    const float* scores = table->Find(f);
    ASSERT_NE(scores, nullptr) << "frame " << f;
    const float winner = scores[0];
    EXPECT_EQ(std::floor(winner / 10.0f), static_cast<float>(f));
    for (int c = 0; c < kCells; ++c) EXPECT_EQ(scores[c], winner);
    for (int w = 0; w < kWriters; ++w) {
      EXPECT_EQ(inserted[static_cast<size_t>(w)][static_cast<size_t>(f)],
                winner)
          << "writer " << w << " frame " << f;
    }
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(observed[static_cast<size_t>(r)][static_cast<size_t>(f)],
                winner)
          << "reader " << r << " frame " << f;
    }
  }
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(torn[static_cast<size_t>(r)], 0);
}

TEST(ProxyScoreCacheDeathTest, MismatchedTableShapeAborts) {
  ProxyScoreCache cache;
  cache.Table(5, 1, 10, 15);
  EXPECT_DEATH(cache.Table(5, 1, 11, 15), "score table of clip 5");
  EXPECT_DEATH(cache.Table(5, 1, 10, 16), "score table of clip 5");
}

}  // namespace
}  // namespace otif::core

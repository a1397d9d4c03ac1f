#include "core/proxy_cache.h"

#include <algorithm>

#include "util/logging.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace otif::core {
namespace {

/// Global mirrors of the per-cache counters so cache behavior shows up in
/// telemetry snapshots without plumbing cache pointers into report code.
/// Written only when telemetry is enabled; the cache's own atomics stay the
/// source of truth for its accessors.
struct CacheTelemetry {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* evictions;
};

const CacheTelemetry& GetCacheTelemetry() {
  static const CacheTelemetry t{
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.hits"),
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.misses"),
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.evictions"),
  };
  return t;
}

// Frames per batched proxy invocation, recorded where the model is invoked.
telemetry::Histogram* ProxyInvocationFrames() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "proxy.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return h;
}

}  // namespace

// --- ProxyScoreTable ---------------------------------------------------------

ProxyScoreTable::ProxyScoreTable(int num_frames, int cells)
    : num_frames_(num_frames), cells_(cells) {
  OTIF_CHECK_GE(num_frames, 0);
  OTIF_CHECK_GT(cells, 0);
  const size_t frames = static_cast<size_t>(num_frames);
  storage_ = mem::BufferPool::Global().Acquire(frames *
                                               static_cast<size_t>(cells));
  ready_.reset(new std::atomic<uint8_t>[frames]());
}

void ProxyScoreTable::CheckFrame(int frame) const {
  OTIF_CHECK(frame >= 0 && frame < num_frames_)
      << "frame " << frame << " outside a " << num_frames_
      << "-frame score table";
}

const float* ProxyScoreTable::Insert(int frame, const nn::Tensor& scores) {
  CheckFrame(frame);
  OTIF_CHECK_EQ(scores.size(), static_cast<int64_t>(cells_));
  std::atomic<uint8_t>& ready = ready_[static_cast<size_t>(frame)];
  float* plane = Plane(frame);
  std::lock_guard<std::mutex> lock(insert_mu_);
  // Another writer may have filled the frame meanwhile; first write wins.
  if (ready.load(std::memory_order_relaxed) == 0) {
    std::copy(scores.data(), scores.data() + cells_, plane);
    ready.store(1, std::memory_order_release);
  }
  return plane;
}

// --- ProxyScoreCache ---------------------------------------------------------

ProxyScoreCache::ProxyScoreCache(size_t capacity) : capacity_(capacity) {
  OTIF_CHECK_GE(capacity, 1u);
}

std::shared_ptr<ProxyScoreTable> ProxyScoreCache::Table(
    uint64_t clip_seed, int resolution_index, int num_frames,
    int cells) const {
  const TableKey key{clip_seed, resolution_index};
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = tables_.find(key); it != tables_.end()) {
    const ProxyScoreTable& table = *it->second;
    OTIF_CHECK(table.num_frames() == num_frames && table.cells() == cells)
        << "score table of clip " << clip_seed << " resolution "
        << resolution_index << " is " << table.num_frames() << "x"
        << table.cells() << ", asked for " << num_frames << "x" << cells;
    return it->second;
  }
  auto table = std::make_shared<ProxyScoreTable>(num_frames, cells);
  tables_.emplace(key, table);
  table_order_.push_back(key);
  frames_held_ += static_cast<size_t>(num_frames);
  // The sweep never evicts the fresh table: it sits at the back of the
  // order, and the loop stops when it is the only table left.
  while (frames_held_ > capacity_ && table_order_.size() > 1) {
    const auto oldest = tables_.find(table_order_.front());
    const int64_t slots = oldest->second->num_frames();
    frames_held_ -= static_cast<size_t>(slots);
    tables_.erase(oldest);
    table_order_.pop_front();
    evictions_.fetch_add(slots, std::memory_order_relaxed);
    if (telemetry::Enabled()) GetCacheTelemetry().evictions->Add(slots);
  }
  return table;
}

void ProxyScoreCache::RecordLookups(int64_t hits, int64_t misses) const {
  if (hits > 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses > 0) misses_.fetch_add(misses, std::memory_order_relaxed);
  if (telemetry::Enabled()) {
    if (hits > 0) GetCacheTelemetry().hits->Add(hits);
    if (misses > 0) GetCacheTelemetry().misses->Add(misses);
  }
}

void ProxyScoreCache::Clear() const {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.clear();
  table_order_.clear();
  frames_held_ = 0;
}

void ProxyScoreCache::ResetCounters() const {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

double ProxyScoreCache::hit_rate() const {
  const int64_t h = hits();
  const int64_t lookups = h + misses();
  return lookups > 0 ? static_cast<double>(h) / lookups : 0.0;
}

size_t ProxyScoreCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_held_;
}

// --- ScoreFrames -------------------------------------------------------------

void ScoreFrames(
    const ProxyScoreCache& cache, ProxyScoreTable* table,
    const models::ProxyModel& proxy, const std::vector<int>& frames,
    const std::function<const video::Image&(size_t)>& render,
    std::vector<const float*>* planes) {
  planes->resize(frames.size());
  std::vector<size_t> missing;  // Allocates only when a lookup misses.
  {
    OTIF_SPAN("proxy/score");
    for (size_t i = 0; i < frames.size(); ++i) {
      (*planes)[i] = table->Find(frames[i]);
      if ((*planes)[i] == nullptr) missing.push_back(i);
    }
  }
  cache.RecordLookups(static_cast<int64_t>(frames.size() - missing.size()),
                      static_cast<int64_t>(missing.size()));
  if (missing.empty()) return;
  std::vector<const video::Image*> images;
  images.reserve(missing.size());
  for (size_t i : missing) {
    OTIF_SPAN("proxy/render");
    images.push_back(&render(i));
  }
  OTIF_SPAN("proxy/score");
  const std::vector<nn::Tensor> fresh = proxy.ScoreBatch(images);
  if (telemetry::Enabled()) {
    ProxyInvocationFrames()->Record(static_cast<double>(images.size()));
  }
  for (size_t m = 0; m < missing.size(); ++m) {
    const size_t i = missing[m];
    (*planes)[i] = table->Insert(frames[i], fresh[m]);
  }
}

}  // namespace otif::core

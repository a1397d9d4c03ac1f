#ifndef OTIF_CORE_PROXY_CACHE_H_
#define OTIF_CORE_PROXY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mem/buffer_pool.h"
#include "models/proxy.h"
#include "nn/tensor.h"
#include "video/image.h"

namespace otif::core {

/// The proxy scores of one clip at one proxy resolution: a dense row-major
/// `num_frames x cells` float plane (one `cells`-float grid per frame, from
/// mem::BufferPool) plus one ready flag per frame.
///
/// Concurrency protocol: Find is lock-free (an acquire load of the frame's
/// flag, then a pointer into the plane). Insert takes the table's mutex,
/// writes the frame's grid only if its flag is still clear (first write
/// wins), and publishes it with a release store of the flag. A grid is
/// written once, before its flag is set, and never changes afterwards, so a
/// reader that saw the flag reads fully written floats with no lock and no
/// copy.
class ProxyScoreTable {
 public:
  ProxyScoreTable(int num_frames, int cells);

  ProxyScoreTable(const ProxyScoreTable&) = delete;
  ProxyScoreTable& operator=(const ProxyScoreTable&) = delete;

  int num_frames() const { return num_frames_; }
  int cells() const { return cells_; }

  /// The `cells()` scores of `frame`, or nullptr when none were inserted.
  const float* Find(int frame) const {
    CheckFrame(frame);
    return ready_[static_cast<size_t>(frame)].load(
               std::memory_order_acquire) != 0
               ? Plane(frame)
               : nullptr;
  }

  /// Stores `scores` (exactly cells() floats) for `frame` unless the frame
  /// already has scores; the first write wins, since scoring is
  /// deterministic per frame. Returns the stored grid.
  const float* Insert(int frame, const nn::Tensor& scores);

 private:
  void CheckFrame(int frame) const;
  float* Plane(int frame) const {
    return storage_.data() + static_cast<size_t>(frame) * cells_;
  }

  const int num_frames_;
  const int cells_;
  mem::PooledBuffer storage_;
  std::unique_ptr<std::atomic<uint8_t>[]> ready_;
  std::mutex insert_mu_;  // Serializes Insert; Find never takes it.
};

/// Thread-safe bounded cache of proxy scores: one ProxyScoreTable per
/// (clip seed, resolution index). Tuner evaluations re-score the same
/// validation frames under many thresholds and configurations, so the hit
/// rate is high. A consumer fetches a clip's table once, under the cache
/// lock, and then reads and fills it without touching the cache again.
///
/// The bound counts frame slots (the num_frames of every held table): when
/// a new table takes the total past the capacity, the oldest tables are
/// evicted whole (FIFO), never the new one. Scoring is deterministic, so
/// eviction only costs recomputation, never changes results. A handle
/// (shared_ptr) keeps its table valid after eviction or Clear; its later
/// inserts are simply no longer shared.
///
/// All methods are const and internally synchronized: the cache lives in
/// TrainedModels, which pipeline runs share across worker threads.
class ProxyScoreCache {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit ProxyScoreCache(size_t capacity = kDefaultCapacity);

  ProxyScoreCache(const ProxyScoreCache&) = delete;
  ProxyScoreCache& operator=(const ProxyScoreCache&) = delete;

  /// Returns the table of (clip_seed, resolution_index), creating an empty
  /// `num_frames x cells` one when absent (which may evict older tables).
  /// A table that exists with another shape is a check failure: one clip
  /// and resolution always have the same frame count and grid.
  std::shared_ptr<ProxyScoreTable> Table(uint64_t clip_seed,
                                         int resolution_index, int num_frames,
                                         int cells) const;

  /// Adds a consumer's lookup outcomes (frames found / not found in a
  /// table) to the hit and miss counters. Consumers record once per batch.
  void RecordLookups(int64_t hits, int64_t misses) const;

  /// Drops all tables. Counters are kept *by design*: Clear is used to
  /// bound memory between phases while hit/miss/evict statistics keep
  /// describing the whole session. Call ResetCounters() to start a fresh
  /// measurement interval (e.g. between benchmark repetitions).
  void Clear() const;

  /// Zeroes the hit/miss/evict counters without touching the tables, so
  /// run reports do not accumulate across repetitions.
  void ResetCounters() const;

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Frame slots evicted with their tables.
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Hits / lookups over the counters' lifetime; 0 when no lookups ran.
  double hit_rate() const;
  /// Frame slots held, summed over the tables.
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct TableKey {
    uint64_t clip_seed;
    int resolution_index;
    bool operator==(const TableKey& o) const {
      return clip_seed == o.clip_seed &&
             resolution_index == o.resolution_index;
    }
  };
  struct TableKeyHash {
    size_t operator()(const TableKey& k) const {
      return std::hash<uint64_t>()(k.clip_seed * 31 +
                                   static_cast<uint64_t>(k.resolution_index));
    }
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  mutable std::unordered_map<TableKey, std::shared_ptr<ProxyScoreTable>,
                             TableKeyHash>
      tables_;                                // Guarded by mu_.
  mutable std::deque<TableKey> table_order_;  // Guarded by mu_; FIFO.
  mutable size_t frames_held_ = 0;            // Guarded by mu_.
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> evictions_{0};
};

/// The proxy's one scoring path, shared by ProxyStage and the tuner: sets
/// planes[i] to the scores of frames[i] in `table`. Only lookup misses are
/// rendered (`render(i)`, under proxy/render), scored in one ScoreBatch and
/// inserted; lookups and scoring run under proxy/score, and `cache` counts
/// the hits and misses once per call.
void ScoreFrames(
    const ProxyScoreCache& cache, ProxyScoreTable* table,
    const models::ProxyModel& proxy, const std::vector<int>& frames,
    const std::function<const video::Image&(size_t)>& render,
    std::vector<const float*>* planes);

}  // namespace otif::core

#endif  // OTIF_CORE_PROXY_CACHE_H_

#include "core/executor/streaming_executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/executor/channel.h"
#include "core/executor/cross_clip_batcher.h"
#include "core/stages.h"
#include "models/proxy.h"
#include "obs/run_progress.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::core {
namespace {

using executor::Channel;
using executor::CrossClipBatcher;

// Same names and bounds as the serial stages' invocation histograms, so
// serial and streaming batch sizes report through comparable metrics.
telemetry::Histogram* ProxyInvocationFrames() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "proxy.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return h;
}

telemetry::Histogram* DetectInvocationFrames() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "detect.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return h;
}

// Groups processed per stage worker group (occupancy counters; the
// wall-clock side lives in the shared "stage/<name>" spans).
telemetry::Counter* StageGroupsCounter(const char* stage) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      std::string("executor.stage.") + stage + ".groups");
}

// Recovery counters (fault runs only; never incremented while disarmed).
telemetry::Counter* RetriesCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Global().GetCounter("executor.retries");
  return c;
}

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

/// How many consecutive injected transient errors exhaust a stage's retry
/// budget for one group.
constexpr int kMaxFaultAttempts = 4;

/// Consults a model-invocation fault site before the stage compute runs.
/// Transient (kError) decisions retry in place with bounded exponential
/// backoff; because the fault fires PRE-invocation, no stage state was
/// touched and the retry is just a fresh decision with the next attempt
/// token — replay-deterministic and independent of worker interleaving.
/// kStall sleeps (latency spike) and succeeds; other kinds are not
/// meaningful for an invocation and pass through. Returns non-OK only
/// after kMaxFaultAttempts consecutive error decisions.
Status AttemptStage(fault::Site* site, int clip, int group, int* retries) {
  for (int attempt = 0;; ++attempt) {
    // Token encodes (clip, group, attempt): each retry re-rolls the site
    // RNG, and the roll sequence is a pure function of the work item.
    const int64_t token =
        (static_cast<int64_t>(clip) * 1000003 + group) * 16 + attempt;
    fault::Injection inj;
    if (!site->Inject(clip, token, &inj)) return Status::OK();
    if (inj.kind == fault::Kind::kStall) {
      std::this_thread::sleep_for(std::chrono::milliseconds(inj.stall_ms));
      return Status::OK();
    }
    if (inj.kind != fault::Kind::kError) return Status::OK();
    if (attempt + 1 >= kMaxFaultAttempts) {
      return Status::IoError(
          StrFormat("injected %s fault: clip %d group %d failed %d attempts",
                    site->name().c_str(), clip, group, kMaxFaultAttempts));
    }
    ++*retries;
    RetriesCounter()->Add(1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(1 << attempt, 4)));
  }
}

int ParseEnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  if (end != nullptr && *end == '\0' && n >= 1 && n <= (1 << 20)) {
    return static_cast<int>(n);
  }
  OTIF_LOG(kWarning) << name << "=\"" << value
                     << "\" is not a positive integer; ignoring it";
  return fallback;
}

/// Options with every zero default resolved against the pool width and the
/// pipeline's frame_batch.
struct ResolvedOptions {
  int streams;
  int batch_target;
  int batch_wait_us;
  int channel_capacity;
  int stage_workers;
};

ResolvedOptions Resolve(const StreamingOptions& options, int frame_batch) {
  const int width = ThreadPool::Default()->num_threads();
  ResolvedOptions r;
  r.stage_workers = options.stage_workers > 0 ? options.stage_workers
                                              : std::max(1, width / 2);
  r.streams =
      options.num_streams > 0 ? options.num_streams : std::max(2, width);
  // A stage has at most stage_workers requests pending at once, each
  // carrying at most frame_batch frames; a target above that bound could
  // never fill and every wave would wait out the deadline.
  const int want =
      options.batch_target_frames > 0 ? options.batch_target_frames : 32;
  r.batch_target = std::max(1, std::min(want, r.stage_workers * frame_batch));
  r.batch_wait_us = options.batch_wait_us > 0 ? options.batch_wait_us : 500;
  r.channel_capacity =
      options.channel_capacity > 0
          ? options.channel_capacity
          : std::max({4, 2 * r.stage_workers, r.streams});
  return r;
}

/// One frame_batch group of one clip flowing through the stage channels.
/// Carries (clip, sequence) identity for the commit-side reassembly.
struct Group {
  int clip_index = -1;
  int group_index = 0;
  std::vector<FrameContext> ctxs;

  std::vector<FrameContext*> Batch() {
    std::vector<FrameContext*> batch;
    batch.reserve(ctxs.size());
    for (FrameContext& ctx : ctxs) batch.push_back(&ctx);
    return batch;
  }
};

/// One clip's cache-missed proxy frames awaiting a cross-clip scoring wave.
struct ProxyRequest {
  const models::ProxyModel* proxy = nullptr;
  const std::vector<const video::Image*>* frames = nullptr;
  std::vector<nn::Tensor> out;
};

/// One clip's frame group awaiting a cross-clip detector wave.
struct DetectRequest {
  const models::SimulatedDetector* detector = nullptr;
  const sim::Clip* clip = nullptr;
  const std::vector<int>* frames = nullptr;
  double scale = 1.0;
  std::vector<track::FrameDetections> out;
};

/// Leader body of a proxy wave: one ScoreBatch invocation spanning every
/// stream's frames, split back per request. ScoreBatch is per-frame
/// deterministic, so the split results match per-clip invocations exactly.
void ProcessProxyWave(const std::vector<ProxyRequest*>& wave) {
  std::vector<const video::Image*> frames;
  for (const ProxyRequest* r : wave) {
    frames.insert(frames.end(), r->frames->begin(), r->frames->end());
  }
  std::vector<nn::Tensor> scores = wave.front()->proxy->ScoreBatch(frames);
  if (telemetry::Enabled()) {
    ProxyInvocationFrames()->Record(static_cast<double>(frames.size()));
  }
  size_t k = 0;
  for (ProxyRequest* r : wave) {
    const size_t n = r->frames->size();
    r->out.assign(std::make_move_iterator(scores.begin() + k),
                  std::make_move_iterator(scores.begin() + k + n));
    k += n;
  }
}

/// Leader body of a detect wave: one DetectBatchMulti invocation spanning
/// every stream's frames. Detections are seeded per (clip, frame, arch,
/// scale), so batch composition cannot change them.
void ProcessDetectWave(const std::vector<DetectRequest*>& wave) {
  std::vector<models::SimulatedDetector::ClipBatchRequest> requests;
  requests.reserve(wave.size());
  int total_frames = 0;
  for (const DetectRequest* r : wave) {
    requests.push_back({r->clip, *r->frames});
    total_frames += static_cast<int>(r->frames->size());
  }
  std::vector<std::vector<track::FrameDetections>> dets =
      wave.front()->detector->DetectBatchMulti(requests,
                                               wave.front()->scale);
  if (telemetry::Enabled()) {
    DetectInvocationFrames()->Record(static_cast<double>(total_frames));
  }
  for (size_t i = 0; i < wave.size(); ++i) {
    wave[i]->out = std::move(dets[i]);
  }
}

/// Per-clip execution state: the serial pipeline's per-run stage objects
/// plus the commit-side reassembly buffer. Compute halves touch a
/// ClipWork's stages from several workers concurrently (they are pure per
/// the stage contract); everything below `commit_mu` is commit-ordered.
struct ClipWork {
  ClipWork(const PipelineConfig& config, const TrainedModels* trained,
           const sim::Clip& c, const models::DetectorArch& arch)
      : clip(&c),
        source(c, config, trained),
        decode(config, c),
        proxy(config, trained, c, arch),
        detect(config, c, arch),
        track(config, trained, c),
        refine(config, trained, c),
        stages{&decode, &proxy, &detect, &track, &refine} {}

  const sim::Clip* clip;
  FrameSource source;  // Low-res frames for this clip's contexts.
  DecodeStage decode;
  ProxyStage proxy;
  DetectStage detect;
  TrackStage track;
  RefineStage refine;
  std::array<Stage*, internal::kNumStages> stages;

  PipelineResult result;
  int total_groups = 0;

  std::mutex commit_mu;
  std::map<int, Group> pending;  // Out-of-order arrivals; commit_mu.
  int next_group = 0;            // Next group index to commit; commit_mu.
  bool finalized = false;        // EndClip ran; commit_mu.

  // Fault-recovery state (written only during fault runs). Workers read
  // the atomics to drop or degrade this clip's groups; the plain fields
  // are written once by the quarantine winner and read by Run after the
  // worker join (which provides the happens-before edge).
  std::atomic<bool> quarantined{false};
  std::atomic<bool> proxy_degraded{false};
  Status fail_status;
  int fail_retries = 0;
};

/// Marks a clip as failed (first caller wins): from now on the source stops
/// emitting its groups, workers drop in-flight ones, and the commit side
/// discards its reassembly buffer. Reported through the quarantine counter,
/// the live-progress registry (/statusz), and the flight recorder.
void QuarantineClip(ClipWork* w, int clip, const Status& status,
                    int retries) {
  if (w->quarantined.exchange(true)) return;
  w->fail_status = status;
  w->fail_retries = retries;
  QuarantinedCounter()->Add(1);
  OTIF_LOG(kWarning) << "clip " << clip << " quarantined after " << retries
                     << " retrie(s): " << status.ToString()
                     << " — remaining clips continue";
  if (obs::ProgressEnabled()) {
    obs::RunProgress::Global().MarkClipQuarantined(clip, status.ToString());
  }
  telemetry::timeline::ReportError(
      status, "streaming_executor: quarantined clip " + std::to_string(clip));
}

/// Replays the serial driver's per-group stage sequence for one group:
/// frame counting, then decode / proxy-commit / detect-commit / track /
/// refine under the shared per-stage spans. Caller holds the clip's
/// commit_mu and commits groups in index order, which reproduces the
/// serial charge and tracker-update order exactly.
void CommitGroup(ClipWork* w, Group* g) {
  std::vector<FrameContext*> batch = g->Batch();
  PipelineResult* result = &w->result;
  result->frames_processed += static_cast<int>(batch.size());
  {
    telemetry::ScopedSpan span(internal::StageSpan(0));
    w->decode.ProcessBatch(batch, result);
  }
  {
    telemetry::ScopedSpan span(internal::StageSpan(1));
    w->proxy.CommitBatch(batch, result);
  }
  {
    telemetry::ScopedSpan span(internal::StageSpan(2));
    w->detect.CommitBatch(batch, result);
  }
  {
    telemetry::ScopedSpan span(internal::StageSpan(3));
    w->track.ProcessBatch(batch, result);
  }
  {
    telemetry::ScopedSpan span(internal::StageSpan(4));
    w->refine.ProcessBatch(batch, result);
  }
  // Live progress: one relaxed flag load when introspection is off.
  if (obs::ProgressEnabled()) {
    obs::RunProgress::Global().OnFramesCommitted(
        g->clip_index, static_cast<int64_t>(batch.size()));
  }
}

/// Runs the serial EndClip sequence and folds the finished clip into the
/// run-level telemetry (same call the serial driver makes).
void FinalizeClip(ClipWork* w) {
  for (int s = 0; s < internal::kNumStages; ++s) {
    telemetry::ScopedSpan span(internal::StageSpan(s));
    w->stages[static_cast<size_t>(s)]->EndClip(&w->result);
  }
  if (telemetry::Enabled()) internal::RecordRunTelemetry(w->result);
}

}  // namespace

StreamingOptions StreamingOptionsFromEnv() {
  StreamingOptions options;
  options.num_streams = ParseEnvInt("OTIF_STREAMS", 0);
  options.batch_target_frames = ParseEnvInt("OTIF_BATCH_TARGET", 0);
  options.batch_wait_us = ParseEnvInt("OTIF_BATCH_WAIT_US", 0);
  return options;
}

/// Everything one Run call owns: the stage channels, the two cross-clip
/// batchers, and the per-clip work. Lives on Run's stack; Cancel reaches
/// it through the executor's `active_` pointer.
struct StreamingExecutor::RunState {
  RunState(const models::DetectorArch& a, const ResolvedOptions& opts)
      : arch(a),
        proxy_ch(static_cast<size_t>(opts.channel_capacity), "proxy"),
        detect_ch(static_cast<size_t>(opts.channel_capacity), "detect"),
        commit_ch(static_cast<size_t>(opts.channel_capacity), "commit"),
        proxy_batcher("proxy",
                      {opts.batch_target,
                       std::chrono::microseconds(opts.batch_wait_us)},
                      &ProcessProxyWave),
        detect_batcher("detect",
                       {opts.batch_target,
                        std::chrono::microseconds(opts.batch_wait_us)},
                       &ProcessDetectWave) {}

  models::DetectorArch arch;
  Channel<Group> proxy_ch;
  Channel<Group> detect_ch;
  Channel<Group> commit_ch;
  CrossClipBatcher<ProxyRequest> proxy_batcher;
  CrossClipBatcher<DetectRequest> detect_batcher;
  std::vector<std::unique_ptr<ClipWork>> clips;

  std::atomic<int> proxy_live{0};
  std::atomic<int> detect_live{0};
  std::atomic<bool> cancelled{false};

  /// Unblocks every worker: closed channels stop the loops, closed
  /// batchers fail pending Submits (whose callers fall back to direct
  /// invocations and then observe the closed downstream channel).
  void CancelAll() {
    cancelled.store(true, std::memory_order_relaxed);
    proxy_ch.Close();
    detect_ch.Close();
    commit_ch.Close();
    proxy_batcher.Close();
    detect_batcher.Close();
  }
};

namespace {

/// Source stage: interleaves up to `streams` clips round-robin, emitting
/// one frame_batch group per turn, so groups of many distinct clips are in
/// flight together — that interleaving is what the cross-clip batchers
/// feed on. Closes the proxy channel when all clips are emitted.
void SourceLoop(StreamingExecutor::RunState* s, const PipelineConfig& config,
                const std::vector<sim::Clip>& clips, int streams) {
  struct Cursor {
    int clip_index;
    int frame = 0;
    int group = 0;
  };
  std::vector<Cursor> open;
  size_t next_clip = 0;
  const auto refill = [&] {
    while (static_cast<int>(open.size()) < streams &&
           next_clip < clips.size()) {
      const int ci = static_cast<int>(next_clip++);
      // Zero-group clips were finalized at setup; nothing to emit.
      if (clips[static_cast<size_t>(ci)].num_frames() > 0) {
        open.push_back(Cursor{ci});
      }
    }
  };
  refill();
  size_t rr = 0;
  while (!open.empty()) {
    if (rr >= open.size()) rr = 0;
    Cursor& cur = open[rr];
    // A quarantined clip stops at the source: drop its cursor so the
    // remaining streams get its emission slots.
    if (s->clips[static_cast<size_t>(cur.clip_index)]->quarantined.load(
            std::memory_order_relaxed)) {
      open.erase(open.begin() + static_cast<long>(rr));
      refill();
      continue;
    }
    const sim::Clip& clip = clips[static_cast<size_t>(cur.clip_index)];
    Group g;
    g.clip_index = cur.clip_index;
    g.group_index = cur.group++;
    // Fresh contexts per group, bound to the clip's frame source; their
    // frame buffers (the low-res render, if a stage asks for one, and the
    // stage tensors filled downstream) recycle through the shared
    // mem::BufferPool, so per-group construction stays heap-quiet once the
    // pool is warm.
    FrameSource* const source =
        &s->clips[static_cast<size_t>(cur.clip_index)]->source;
    g.ctxs.reserve(static_cast<size_t>(config.frame_batch));
    for (int b = 0; b < config.frame_batch && cur.frame < clip.num_frames();
         ++b, cur.frame += config.sampling_gap) {
      FrameContext ctx;
      ctx.frame = cur.frame;
      ctx.source = source;
      g.ctxs.push_back(std::move(ctx));
    }
    if (cur.frame >= clip.num_frames()) {
      open.erase(open.begin() + static_cast<long>(rr));
      refill();
    } else {
      ++rr;
    }
    if (!s->proxy_ch.Push(std::move(g))) break;  // Cancelled.
  }
  s->proxy_ch.Close();
}

void ProxyWorkerLoop(StreamingExecutor::RunState* s) {
  telemetry::Counter* const groups = StageGroupsCounter("proxy");
  Group g;
  while (s->proxy_ch.Pop(&g)) {
    ClipWork& w = *s->clips[static_cast<size_t>(g.clip_index)];
    if (w.quarantined.load(std::memory_order_relaxed)) continue;  // Drop.
    telemetry::timeline::ScopedContext tctx({.clip = g.clip_index});
    // Graceful degradation: once this clip's proxy invocation has failed
    // persistently, skip proxy compute entirely — frames keep
    // proxy_ran == false and the detect stage falls back to full-frame
    // detection (correct, just without the proxy's frame selection).
    bool run_proxy = !w.proxy_degraded.load(std::memory_order_relaxed);
    if (run_proxy && fault::Enabled()) {
      static fault::Site* const site = fault::GetSite("proxy.invoke");
      int retries = 0;
      const Status st =
          AttemptStage(site, g.clip_index, g.group_index, &retries);
      if (!st.ok()) {
        if (!w.proxy_degraded.exchange(true)) {
          DegradedCounter()->Add(1);
          OTIF_LOG(kWarning)
              << "clip " << g.clip_index << ": proxy stage failing ("
              << st.ToString()
              << "); degrading to full-frame detection — accuracy may drop";
        }
        run_proxy = false;
      }
    }
    std::vector<FrameContext*> batch = g.Batch();
    if (run_proxy) {
      telemetry::ScopedSpan span(internal::StageSpan(1));
      w.proxy.ComputeBatch(batch);
    }
    if (telemetry::Enabled()) groups->Add(1);
    if (!s->detect_ch.Push(std::move(g))) break;
  }
  // Last worker out: release any partial wave (latency aid; the deadline
  // would release it anyway) and signal end-of-stream downstream.
  if (s->proxy_live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    s->proxy_batcher.Flush();
    s->detect_ch.Close();
  }
}

void DetectWorkerLoop(StreamingExecutor::RunState* s) {
  telemetry::Counter* const groups = StageGroupsCounter("detect");
  Group g;
  while (s->detect_ch.Pop(&g)) {
    ClipWork& w = *s->clips[static_cast<size_t>(g.clip_index)];
    if (w.quarantined.load(std::memory_order_relaxed)) continue;  // Drop.
    telemetry::timeline::ScopedContext tctx({.clip = g.clip_index});
    if (fault::Enabled()) {
      static fault::Site* const site = fault::GetSite("detect.invoke");
      int retries = 0;
      const Status st =
          AttemptStage(site, g.clip_index, g.group_index, &retries);
      if (!st.ok()) {
        // Detection has no degraded fallback — a clip whose detector keeps
        // failing is quarantined and this group dropped; the source and
        // commit sides drain the rest of the clip.
        QuarantineClip(&w, g.clip_index, st, retries);
        continue;
      }
    }
    std::vector<FrameContext*> batch = g.Batch();
    {
      telemetry::ScopedSpan span(internal::StageSpan(2));
      w.detect.ComputeBatch(batch);
    }
    if (telemetry::Enabled()) groups->Add(1);
    if (!s->commit_ch.Push(std::move(g))) break;
  }
  if (s->detect_live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    s->detect_batcher.Flush();
    s->commit_ch.Close();
  }
}

void CommitWorkerLoop(StreamingExecutor::RunState* s) {
  telemetry::Counter* const groups = StageGroupsCounter("commit");
  Group g;
  while (s->commit_ch.Pop(&g)) {
    ClipWork& w = *s->clips[static_cast<size_t>(g.clip_index)];
    telemetry::timeline::ScopedContext tctx({.clip = g.clip_index});
    std::lock_guard<std::mutex> lock(w.commit_mu);
    if (w.quarantined.load(std::memory_order_relaxed)) {
      // Drain: discard this group and any out-of-order arrivals buffered
      // for the failed clip (its result is discarded wholesale).
      w.pending.clear();
      continue;
    }
    w.pending.emplace(g.group_index, std::move(g));
    // Drain every consecutively-ready group: the reassembly buffer holds
    // out-of-order arrivals until their predecessors committed.
    while (true) {
      const auto it = w.pending.find(w.next_group);
      if (it == w.pending.end()) break;
      Group ready = std::move(it->second);
      w.pending.erase(it);
      CommitGroup(&w, &ready);
      ++w.next_group;
      if (telemetry::Enabled()) groups->Add(1);
    }
    if (!w.finalized && w.next_group >= w.total_groups) {
      FinalizeClip(&w);
      w.finalized = true;
    }
  }
}

}  // namespace

StreamingExecutor::StreamingExecutor(PipelineConfig config,
                                     const TrainedModels* trained,
                                     StreamingOptions options)
    : config_(std::move(config)), trained_(trained), options_(options) {}

Status StreamingExecutor::ValidateConfig(const PipelineConfig& config,
                                         const TrainedModels* trained) {
  if (config.sampling_gap < 1) {
    return Status::InvalidArgument("sampling_gap must be >= 1");
  }
  if (config.frame_batch < 1) {
    return Status::InvalidArgument("frame_batch must be >= 1");
  }
  if (!(config.detector_scale > 0.0) || config.detector_scale > 1.0) {
    return Status::InvalidArgument("detector_scale must be in (0, 1]");
  }
  bool known_arch = false;
  for (const models::DetectorArch& a : models::StandardDetectorArchs()) {
    if (a.name == config.detector_arch) known_arch = true;
  }
  if (!known_arch) {
    return Status::InvalidArgument("unknown detector architecture: " +
                                   config.detector_arch);
  }
  if (trained == nullptr) {
    if (config.use_proxy) {
      return Status::FailedPrecondition("use_proxy requires trained models");
    }
    if (config.tracker != TrackerKind::kSort) {
      return Status::FailedPrecondition(
          "the recurrent tracker requires trained models");
    }
    if (config.refine) {
      return Status::FailedPrecondition("refine requires trained models");
    }
  } else if (config.use_proxy) {
    if (config.proxy_resolution_index < 0 ||
        static_cast<size_t>(config.proxy_resolution_index) >=
            trained->proxies.size()) {
      return Status::InvalidArgument("proxy_resolution_index out of range");
    }
    if (trained->window_sizes.empty()) {
      return Status::FailedPrecondition(
          "use_proxy requires a trained window size set");
    }
  }
  return Status::OK();
}

StatusOr<StreamingRunReport> StreamingExecutor::Run(
    const std::vector<sim::Clip>& clips) {
  OTIF_RETURN_IF_ERROR(ValidateConfig(config_, trained_));
  if (clips.empty()) return StreamingRunReport{};

  const ResolvedOptions opts = Resolve(options_, config_.frame_batch);
  RunState state(models::ArchByName(models::StandardDetectorArchs(),
                                    config_.detector_arch),
                 opts);

  // Register the run with the live-progress registry (no-op when
  // introspection is off). Totals are the sampled frames each clip will
  // commit — the same quantity CommitGroup reports.
  if (obs::ProgressEnabled()) {
    std::vector<int64_t> totals;
    totals.reserve(clips.size());
    for (const sim::Clip& clip : clips) {
      totals.push_back((clip.num_frames() + config_.sampling_gap - 1) /
                       config_.sampling_gap);
    }
    obs::RunProgress::Global().BeginRun("streaming", std::move(totals));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_) {
      return Status::Cancelled("streaming executor was cancelled");
    }
    OTIF_CHECK(active_ == nullptr)
        << "StreamingExecutor::Run called concurrently";
    active_ = &state;
  }

  // Per-clip setup: stage objects, cross-clip batching hooks, BeginClip
  // charges (the serial driver also runs BeginClip before any batch).
  state.clips.reserve(clips.size());
  for (size_t i = 0; i < clips.size(); ++i) {
    const sim::Clip& clip = clips[i];
    auto work =
        std::make_unique<ClipWork>(config_, trained_, clip, state.arch);
    const int samples =
        (clip.num_frames() + config_.sampling_gap - 1) / config_.sampling_gap;
    work->total_groups =
        (samples + config_.frame_batch - 1) / config_.frame_batch;

    RunState* const rs = &state;
    work->proxy.set_score_batch_fn(
        [rs](const models::ProxyModel& proxy,
             const std::vector<const video::Image*>& frames) {
          ProxyRequest req;
          req.proxy = &proxy;
          req.frames = &frames;
          if (rs->proxy_batcher.Submit(&req,
                                       static_cast<int>(frames.size()))) {
            return std::move(req.out);
          }
          // Cancelled mid-flight: a direct invocation is bit-identical, so
          // the in-flight group still completes with correct values.
          return proxy.ScoreBatch(frames);
        });
    work->detect.set_detect_batch_fn(
        [rs](const models::SimulatedDetector& detector, const sim::Clip& c,
             const std::vector<int>& frames, double scale) {
          DetectRequest req;
          req.detector = &detector;
          req.clip = &c;
          req.frames = &frames;
          req.scale = scale;
          if (rs->detect_batcher.Submit(&req,
                                        static_cast<int>(frames.size()))) {
            return std::move(req.out);
          }
          return detector.DetectBatch(c, frames, scale);
        });

    {
      telemetry::timeline::ScopedContext tctx(
          {.clip = static_cast<int64_t>(i)});
      for (int s = 0; s < internal::kNumStages; ++s) {
        telemetry::ScopedSpan span(internal::StageSpan(s));
        work->stages[static_cast<size_t>(s)]->BeginClip(&work->result);
      }
      if (work->total_groups == 0) {
        FinalizeClip(work.get());
        work->finalized = true;
      }
    }
    state.clips.push_back(std::move(work));
  }

  state.proxy_live.store(opts.stage_workers, std::memory_order_relaxed);
  state.detect_live.store(opts.stage_workers, std::memory_order_relaxed);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(1 + 3 * opts.stage_workers));
  threads.emplace_back(
      [&] { SourceLoop(&state, config_, clips, opts.streams); });
  for (int t = 0; t < opts.stage_workers; ++t) {
    threads.emplace_back([&] { ProxyWorkerLoop(&state); });
    threads.emplace_back([&] { DetectWorkerLoop(&state); });
    threads.emplace_back([&] { CommitWorkerLoop(&state); });
  }
  for (std::thread& t : threads) t.join();

  if (obs::ProgressEnabled()) obs::RunProgress::Global().EndRun();

  {
    std::lock_guard<std::mutex> lock(mu_);
    active_ = nullptr;
  }
  if (state.cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("streaming executor run was cancelled");
  }

  StreamingRunReport report;
  report.results.reserve(state.clips.size());
  for (size_t i = 0; i < state.clips.size(); ++i) {
    ClipWork* w = state.clips[i].get();
    if (w->quarantined.load(std::memory_order_relaxed)) {
      FailedClip failed;
      failed.clip_index = static_cast<int>(i);
      failed.status = w->fail_status;
      failed.retries = w->fail_retries;
      report.failed_clips.push_back(std::move(failed));
      // Positional placeholder so results[i] still addresses clip i.
      report.results.emplace_back();
      continue;
    }
    if (!w->finalized) {
      // Reachable only under injected pipe faults (e.g. an early channel
      // close): the dataflow shut down before this clip drained. Report
      // it as a run-level error instead of crashing the process.
      return Status::Internal(StrFormat(
          "clip %zu left unfinalized: the stage pipeline shut down early",
          i));
    }
    if (w->proxy_degraded.load(std::memory_order_relaxed)) {
      report.degraded_clips.push_back(static_cast<int>(i));
    }
    report.results.push_back(std::move(w->result));
  }
  return report;
}

void StreamingExecutor::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  if (active_ != nullptr) active_->CancelAll();
}

}  // namespace otif::core

// Per-worker event tracing for the runtime (the observability layer's
// first half; src/obs/metrics.h is the second).
//
// Design constraints (docs/architecture.md, "Observability"):
//   - Compiled-in but cheap: every instrumentation site guards on one
//     pointer test. A run without a tracer pays a single predictable
//     branch per site and nothing else.
//   - Allocation- and lock-free when enabled: each worker writes into
//     its own fixed-capacity ring, pre-allocated at construction. A
//     full ring drops further events and counts the drops instead of
//     growing, locking, or overwriting earlier events (overwriting
//     would orphan begin/end pairs).
//   - Single-writer: ring i is written only by the thread running
//     worker i. Channel receive-side instants fire inside the
//     receiver's drain, which runs on the receiving worker's thread,
//     so they keep the invariant. Exporters read only after the run.
//
// Timestamps are raw steady_clock ticks (nanoseconds on the platforms
// we build for); the exporters rebase them against the tracer's
// construction epoch.
#ifndef PDATALOG_OBS_TRACE_H_
#define PDATALOG_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/histogram.h"

namespace pdatalog {

// Everything a trace event can name. Span phases bracket the worker
// loop's stages with Begin/End pairs; instant phases mark point events.
enum class TracePhase : uint16_t {
  // Span phases.
  kInit = 0,  // Worker::Init routing its opening batch / sequential round 0
  kDrain,     // draining the incoming channels into t_in
  kProbe,     // a worker's evaluator batch (Init's too) / sequential round
  kInsert,    // bulk t_in ingest (Relation::InsertBlock)
  kEncode,    // wire-encoding an outgoing block (serialized mode)
  kFlush,     // end-of-round flush of the accumulation blocks
  kIdle,      // idle backoff while waiting for peers or termination
  kPool,      // final pooling (engine ring)
  // Serving-engine span phases (src/server/): the maintenance thread's
  // ring brackets update absorption and incremental re-evaluation;
  // query spans are recorded by whichever thread owns the ring.
  kQuery,     // one point query answered from a snapshot
  kApply,     // one update batch absorbed into the base relations
  kMaintain,  // incremental re-evaluation to the new fixpoint
  // Instant phases.
  kRound,         // round boundary; arg = round number
  kRetransmit,    // unacked frames re-sent; arg = frames
  kCorruptFrame,  // receiver discarded a corrupt frame
  kDupFrame,      // receiver discarded a duplicate frame
  kFlowSend,      // block frame enqueued; arg = PackFlowArg(dest, seq)
  kFlowRecv,      // block frame drained; arg = PackFlowArg(source, seq)
};

// Flow instants pair each frame's send with its delivery so the
// exporter can draw sender->receiver arrows and the analyzer can chain
// critical-path segments across workers. The flow identity is the
// existing (channel, per-channel frame sequence) pair — nothing is
// added to the wire format — packed into the event's 32-bit arg:
// the peer processor id in the top 10 bits (the CLI caps processors at
// 1024) and the frame sequence in the low 22 bits. Channels stop
// emitting flow instants past 2^22 frames rather than wrapping.
inline constexpr int kFlowSeqBits = 22;
inline constexpr uint32_t kFlowMaxSeq = (uint32_t{1} << kFlowSeqBits) - 1;
inline constexpr int kFlowMaxPeer = (1 << (32 - kFlowSeqBits)) - 1;

inline uint32_t PackFlowArg(int peer, uint64_t seq) {
  return (static_cast<uint32_t>(peer) << kFlowSeqBits) |
         (static_cast<uint32_t>(seq) & kFlowMaxSeq);
}
inline int FlowPeer(uint32_t arg) {
  return static_cast<int>(arg >> kFlowSeqBits);
}
inline uint32_t FlowSeq(uint32_t arg) { return arg & kFlowMaxSeq; }

// Stable lowercase name used by the exporters and tests.
const char* TracePhaseName(TracePhase phase);

enum class TraceEventKind : uint16_t { kBegin = 0, kEnd, kInstant };

// One POD ring entry.
struct TraceEvent {
  uint64_t ts;   // steady_clock ticks (ns)
  uint32_t arg;  // phase-specific payload (round number, tuple count)
  TracePhase phase;
  TraceEventKind kind;
};
static_assert(sizeof(TraceEvent) == 16, "TraceEvent must stay compact");

// Default per-ring capacity: 64K events = 1 MiB per worker.
inline constexpr size_t kDefaultTraceRingCapacity = size_t{1} << 16;

// A fixed-capacity, single-writer event buffer. All storage is
// allocated in the constructor; Begin/End/Instant never allocate or
// lock, and a full ring counts drops instead of failing.
class TraceRing {
 public:
  TraceRing(int id, size_t capacity) : id_(id), events_(capacity) {}
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Begin(TracePhase phase, uint32_t arg = 0) {
    Append(phase, TraceEventKind::kBegin, arg);
  }
  void End(TracePhase phase) { Append(phase, TraceEventKind::kEnd, 0); }
  void Instant(TracePhase phase, uint32_t arg = 0) {
    Append(phase, TraceEventKind::kInstant, arg);
  }

  // Replay/test hook: appends a fully formed event with the caller's
  // timestamp instead of stamping the clock. Same drop-newest overflow
  // semantics as Begin/End/Instant. The analyzer tests use this to
  // build synthetic traces with known geometry.
  void Append(const TraceEvent& event) {
    const size_t used = used_.load(std::memory_order_relaxed);
    if (used == events_.size()) {
      dropped_.store(dropped_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
      return;
    }
    events_[used] = event;
    used_.store(used + 1, std::memory_order_relaxed);
  }

  int id() const { return id_; }
  size_t capacity() const { return events_.size(); }
  size_t size() const { return used_.load(std::memory_order_relaxed); }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const TraceEvent& event(size_t i) const { return events_[i]; }

  static uint64_t NowTicks() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  void Append(TracePhase phase, TraceEventKind kind, uint32_t arg) {
    Append(TraceEvent{NowTicks(), arg, phase, kind});
  }

  int id_;
  // Relaxed atomics, still single-writer: the serving engine's live
  // sampler reads size()/dropped() while the owning thread appends, so
  // the counters must be tear-free (the events themselves are only read
  // post-run, as before).
  std::atomic<size_t> used_{0};
  std::atomic<uint64_t> dropped_{0};
  std::vector<TraceEvent> events_;
};

// One ring per worker plus one for the engine thread (partitioning,
// pooling). ring(i) for i in [0, num_workers) is worker i's ring;
// ring(num_workers) == engine_ring().
class Tracer {
 public:
  explicit Tracer(int num_workers,
                  size_t ring_capacity = kDefaultTraceRingCapacity);

  int num_workers() const { return num_workers_; }
  int num_rings() const { return static_cast<int>(rings_.size()); }
  TraceRing* ring(int i) { return rings_[static_cast<size_t>(i)].get(); }
  const TraceRing& ring(int i) const {
    return *rings_[static_cast<size_t>(i)];
  }
  TraceRing* engine_ring() { return ring(num_workers_); }

  // Time base for exporters: ticks at construction.
  uint64_t epoch_ticks() const { return epoch_; }

  uint64_t total_events() const;
  uint64_t total_dropped() const;

 private:
  int num_workers_;
  uint64_t epoch_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

// RAII span: emits Begin on construction and End on destruction. A
// null ring disables both at the cost of one branch — this is the only
// fast-path cost of compiled-in instrumentation. An optional histogram
// additionally records the span's duration in ticks on destruction;
// like the ring it is skipped (one branch) when null.
class TraceScope {
 public:
  TraceScope(TraceRing* ring, TracePhase phase, uint32_t arg = 0,
             Histogram* histogram = nullptr)
      : ring_(ring), phase_(phase), histogram_(histogram) {
    if (ring_ != nullptr) ring_->Begin(phase, arg);
    if (histogram_ != nullptr) start_ticks_ = TraceRing::NowTicks();
  }
  ~TraceScope() {
    if (ring_ != nullptr) ring_->End(phase_);
    if (histogram_ != nullptr) {
      histogram_->Record(TraceRing::NowTicks() - start_ticks_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRing* ring_;
  TracePhase phase_;
  Histogram* histogram_;
  uint64_t start_ticks_ = 0;
};

}  // namespace pdatalog

#endif  // PDATALOG_OBS_TRACE_H_

// The abstract architecture of Section 3: reliable point-to-point
// channels `ij` between every pair of processors, realized "by either
// shared memory or message passing". "If a processor i puts some data in
// channel ij, then processor j (and no other processor) receives this
// data without error within some finite time."
//
// The unit of communication is a *block*: a run of same-predicate tuples
// accumulated by the sender and shipped as one frame — one header, one
// checksum, one sequence number, one publication — instead of one frame
// per tuple. Statistics stay tuple-granular (total_sent counts tuples)
// so the Mattern termination counters and the channel matrix keep their
// paper semantics; frames are tracked separately.
//
// A channel moves one frame type, TupleBlock, through one mutex-guarded
// queue. The realization only decides how a frame is represented: a
// shared-memory frame carries its tuples in `values`, a message-passing
// frame carries the encoded block (core/wire.h) in `wire` instead.
// Senders append under the lock; the receiver drains the whole backlog
// under one lock acquisition.
//
// The reliability assumption is exactly that — an assumption — so the
// channel also supports a deterministic fault-injection mode
// (core/fault.h) that violates it on purpose, and an optional
// at-least-once retransmit protocol (per-channel sequence numbers,
// receiver-side dedup and in-order delivery, sender-side resend of
// unacknowledged frames) that restores it. Both are opt-in and run on a
// seq-stamped slow-path queue under the same mutex. Faults and
// sequence numbers apply per frame: a dropped block loses all its
// tuples, one retransmission recovers all of them. Only two steps look
// at the representation: a corrupt fault flips a byte of a frame that
// has `wire` bytes (object frames have none and arrive intact), and the
// reliable receiver discards such a frame when its checksum fails.
#ifndef PDATALOG_CORE_CHANNEL_H_
#define PDATALOG_CORE_CHANNEL_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/fault.h"
#include "datalog/symbol_table.h"
#include "storage/tuple.h"

namespace pdatalog {

class TraceRing;  // obs/trace.h; receive-side discard instants

// Single source of truth for the block frame's layout (core/wire.cc
// implements the encoder against these constants; tests/block_test.cc
// asserts WireBytes() == EncodeBlock().size() across arities so the
// byte statistics cannot drift from the real encoder).
//
// Block frame (little-endian):
//   u32 predicate id | u16 (kBlockArityFlag | arity) | u32 count |
//   count * u32 per column (columnar: column 0's values, then column
//   1's, ...) | u32 checksum
//
// The arity word's high bit marks the frame as a block; the decoder
// rejects a frame without it.
inline constexpr size_t kWireValueBytes = 4;     // u32 per column
inline constexpr size_t kWireChecksumBytes = 4;  // FNV-1a over the frame
inline constexpr int kMaxWireArity = 32;

inline constexpr uint16_t kBlockArityFlag = 0x8000;
// u32 predicate + u16 flagged arity + u32 tuple count.
inline constexpr size_t kBlockHeaderBytes = 10;
// Sanity cap on the per-frame tuple count; bounds decode-side buffer
// growth against a corrupted count field that beat the checksum.
inline constexpr uint32_t kMaxBlockTuples = 1u << 20;

constexpr size_t BlockWireBytes(int arity, uint32_t count) {
  return kBlockHeaderBytes +
         static_cast<size_t>(arity) * count * kWireValueBytes +
         kWireChecksumBytes;
}

// A run of same-predicate tuples shipped as one frame. Send-side blocks
// accumulate row-major (append order) and the wire encoder transposes
// to the columnar layout; decoded blocks keep the wire's column-major
// layout (`columnar` set) so the receive path can append them to the
// column store without ever re-rowifying. A message-passing frame keeps
// the header fields, leaves `values` empty and carries the encoded
// block in `wire`.
struct TupleBlock {
  Symbol predicate = 0;
  int arity = 0;
  uint32_t count = 0;
  bool columnar = false;      // layout of `values`; false = row-major
  std::vector<Value> values;  // count * arity
  std::vector<uint8_t> wire;  // encoded frame; empty for object frames

  void Append(const Value* vals, int n) {
    assert(!columnar);
    values.insert(values.end(), vals, vals + n);
    ++count;
  }
  // Layout-aware single-cell read (tests and cold paths).
  Value value(uint32_t r, int c) const {
    return columnar ? values[static_cast<size_t>(c) * count + r]
                    : values[static_cast<size_t>(r) * arity + c];
  }
  // Row pointer; only meaningful for send-side (row-major) blocks.
  const Value* row(uint32_t r) const {
    assert(!columnar);
    return values.data() + static_cast<size_t>(r) * arity;
  }
  size_t WireBytes() const { return BlockWireBytes(arity, count); }
  // Keeps capacity for the next accumulation cycle.
  void Reset() {
    count = 0;
    columnar = false;
    values.clear();
  }
};

// A single directed channel. Each channel has exactly one sending
// worker and one receiving worker in the engine (the queue also
// tolerates multiple senders, which the stress tests exercise).
// Accounting counters are atomics incremented on the send side and read
// from anywhere; mutex_ guards the queues and the fault/retransmit
// slow-path state.
class Channel {
 public:
  Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Enqueues one frame: one publication, one sequence number, one
  // fault-injection decision for all `frame.count` tuples.
  void Send(TupleBlock frame);

  // Moves all pending (deliverable) frames into `out` (appending).
  // Returns the number of *tuples* drained — in retransmit mode this
  // counts only newly delivered logical tuples, never duplicates. In
  // retransmit mode, encoded frames whose checksum the injector broke
  // are discarded here (and later retransmitted by the sender) instead
  // of being surfaced.
  size_t Drain(std::vector<TupleBlock>* out);

  // Whether anything is drainable now or will become drainable without
  // sender action (delayed frames count; out-of-order frames held back
  // by a lost predecessor do not — those need a retransmit).
  bool HasPending() const;

  // --- fault injection / retransmit (configure before the run) ---

  // Installs a fault injector for this channel; (from, to) seed the
  // per-channel decision stream deterministically.
  void ConfigureFaults(const FaultSpec& spec, int from, int to);

  // Enables the at-least-once protocol: frames carry sequence numbers,
  // the receiver delivers in order exactly once, and the sender keeps
  // copies of unacknowledged frames for RetransmitUnacked().
  void EnableRetransmit();

  // Sender side: re-enqueues every unacknowledged frame the receiver is
  // still missing. Retransmissions bypass fault injection (faults apply
  // to first transmissions), so one resend recovers a loss. Returns the
  // number of frames re-enqueued.
  size_t RetransmitUnacked();

  // Injected-event counts for this channel (zeroes when no injector).
  FaultCounters fault_counters() const;

  // Observability hook: drains emit instant events (corrupt frame
  // discarded, duplicate discarded) on `ring`. Drains run only on the
  // receiving worker's thread, so the ring must be the receiver's;
  // configure before the run, alongside faults/retransmit. These
  // discards happen only on the fault/retransmit slow path, so the
  // default fast path never touches the ring.
  void set_receive_trace(TraceRing* ring) {
    std::lock_guard<std::mutex> lock(mutex_);
    recv_trace_ = ring;
  }

  // Observability hook: pair each frame's send with its delivery via
  // flow instants (obs/trace.h, kFlowSend/kFlowRecv). `send_ring` must
  // be the sending worker's ring and `recv_ring` the receiver's — sends
  // run on the sender's thread and drains on the receiver's, so both
  // keep the single-writer invariant. Flow identity is (from, to,
  // per-channel frame index); nothing changes on the wire. The send
  // instant is recorded before the frame is published and the receive
  // instant after it is drained, so the queue lock's happens-before
  // edge keeps send ts < recv ts. Only the default fast path emits
  // flows: once faults or retransmit are configured, delivery order no
  // longer matches the frame counter (drops, duplicates, reordering),
  // so flows are suppressed there.
  void set_flow_trace(int from, int to, TraceRing* send_ring,
                      TraceRing* recv_ring) {
    std::lock_guard<std::mutex> lock(mutex_);
    flow_from_ = from;
    flow_to_ = to;
    send_trace_ = send_ring;
    recv_trace_ = recv_ring;
  }

  // Total tuples ever sent on this channel (monotone; for stats).
  // Counts logical sends: a dropped tuple still counts, a retransmit
  // does not count again.
  uint64_t total_sent() const {
    return total_sent_.load(std::memory_order_relaxed);
  }

  // Total wire bytes ever sent on this channel.
  uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  // Total frames ever sent on this channel; total_sent() / total_frames()
  // is the achieved batching factor.
  uint64_t total_frames() const {
    return total_frames_.load(std::memory_order_relaxed);
  }

 private:
  // Slow-path state, allocated only when faults or retransmit are
  // configured. All fields are guarded by mutex_.
  struct Extras {
    std::unique_ptr<FaultInjector> injector;  // null: retransmit only
    bool reliable = false;

    uint64_t next_seq = 0;      // sender: next sequence number
    uint64_t deliver_next = 0;  // receiver: next in-order seq (= ack)
    uint64_t drain_calls = 0;   // receiver: poll clock for delays

    // Seq-stamped in-flight queue (the slow path bypasses the
    // fast-path queue entirely).
    std::vector<std::pair<uint64_t, TupleBlock>> queue;

    // Delayed frames, released once drain_calls reaches release_at.
    struct Delayed {
      uint64_t seq;
      TupleBlock frame;
      uint64_t release_at;
    };
    std::vector<Delayed> delayed;

    // Receiver: frames ahead of a gap (reliable mode only).
    std::map<uint64_t, TupleBlock> ahead;

    // Sender: copies awaiting acknowledgement (reliable mode only).
    std::deque<std::pair<uint64_t, TupleBlock>> unacked;

    FaultCounters counters;
  };

  Extras& EnsureExtras();
  // Flow-instant emitters for the fault-free fast path. `frame` is the
  // frame's index (the value total_frames_ held before that frame was
  // counted). NoteFlowSend runs on the sender's thread before the frame
  // is published; NoteFlowRecv on the receiver's thread after the
  // drain. delivered_frames_ is receiver-only state; the trace/endpoint
  // pointers are configured before the run starts.
  void NoteFlowSend(uint64_t frame);
  void NoteFlowRecv(size_t frames);
  // Seq-stamping/fault-injecting slow path (mutex_ held). Accounting
  // (total_sent_/total_bytes_/total_frames_) happens in Send, before
  // the frame is visible to the receiver.
  void EnqueueLocked(TupleBlock frame);
  void DrainLocked(std::vector<TupleBlock>* out);
  void ReleaseMatureLocked();
  // Delivers one in-order frame and flushes any directly following
  // frames buffered in `ahead`.
  void DeliverLocked(TupleBlock frame, std::vector<TupleBlock>* out);

  mutable std::mutex mutex_;  // the queue below and Extras state
  // Fast-path queue (no faults, no retransmit), FIFO and lossless.
  std::vector<TupleBlock> queue_;
  std::unique_ptr<Extras> fx_;
  TraceRing* recv_trace_ = nullptr;  // receiver's ring (drain instants)
  TraceRing* send_trace_ = nullptr;  // sender's ring (flow sends)
  int flow_from_ = -1;               // channel endpoints for flow args
  int flow_to_ = -1;
  uint64_t delivered_frames_ = 0;  // fast-path frames drained so far
  std::atomic<uint64_t> total_sent_{0};    // tuples
  std::atomic<uint64_t> total_bytes_{0};   // wire bytes
  std::atomic<uint64_t> total_frames_{0};  // frames
};

// The full P x P channel matrix. channel(i, j) carries data from
// processor i to processor j; self-channels (i == i) model a processor
// routing tuples to itself and are not counted as communication.
class CommNetwork {
 public:
  explicit CommNetwork(int num_processors)
      : num_processors_(num_processors),
        channels_(static_cast<size_t>(num_processors) * num_processors) {}

  int num_processors() const { return num_processors_; }

  Channel& channel(int from, int to) {
    return channels_[static_cast<size_t>(from) * num_processors_ + to];
  }
  const Channel& channel(int from, int to) const {
    return channels_[static_cast<size_t>(from) * num_processors_ + to];
  }

  // Installs `spec` on every cross channel (self-channels stay
  // fault-free: a processor handing tuples to itself is not
  // communication, per Section 3).
  void InstallFaults(const FaultSpec& spec) {
    for (int i = 0; i < num_processors_; ++i) {
      for (int j = 0; j < num_processors_; ++j) {
        if (i != j) channel(i, j).ConfigureFaults(spec, i, j);
      }
    }
  }

  // Enables the at-least-once protocol on every cross channel.
  void EnableRetransmit() {
    for (int i = 0; i < num_processors_; ++i) {
      for (int j = 0; j < num_processors_; ++j) {
        if (i != j) channel(i, j).EnableRetransmit();
      }
    }
  }

  bool AnyPending() const {
    for (const Channel& c : channels_) {
      if (c.HasPending()) return true;
    }
    return false;
  }

  FaultCounters AggregateFaultCounters() const {
    FaultCounters total;
    for (const Channel& c : channels_) total += c.fault_counters();
    return total;
  }

  // Per-channel tuple totals, [from][to].
  std::vector<std::vector<uint64_t>> SentMatrix() const {
    std::vector<std::vector<uint64_t>> m(
        num_processors_, std::vector<uint64_t>(num_processors_, 0));
    for (int i = 0; i < num_processors_; ++i) {
      for (int j = 0; j < num_processors_; ++j) {
        m[i][j] = channel(i, j).total_sent();
      }
    }
    return m;
  }

  // Per-channel wire bytes, [from][to].
  std::vector<std::vector<uint64_t>> BytesMatrix() const {
    std::vector<std::vector<uint64_t>> m(
        num_processors_, std::vector<uint64_t>(num_processors_, 0));
    for (int i = 0; i < num_processors_; ++i) {
      for (int j = 0; j < num_processors_; ++j) {
        m[i][j] = channel(i, j).total_bytes();
      }
    }
    return m;
  }

  // Per-channel frame totals, [from][to].
  std::vector<std::vector<uint64_t>> FramesMatrix() const {
    std::vector<std::vector<uint64_t>> m(
        num_processors_, std::vector<uint64_t>(num_processors_, 0));
    for (int i = 0; i < num_processors_; ++i) {
      for (int j = 0; j < num_processors_; ++j) {
        m[i][j] = channel(i, j).total_frames();
      }
    }
    return m;
  }

 private:
  int num_processors_;
  // Non-movable elements are fine: the vector is sized once at
  // construction and never reallocates.
  std::vector<Channel> channels_;
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_CHANNEL_H_

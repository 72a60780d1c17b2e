#include "core/channel.h"

#include <cassert>

#include "core/wire.h"
#include "obs/trace.h"

namespace pdatalog {

// --- send / drain ---
//
// Fast path (no faults, no retransmit): accounting via single increments
// on the atomic counters, flow instant, then append to the queue under
// mutex_. The counter bump happens before the frame is published, so a
// receiver that observed the frame also observes counters covering it
// (the Mattern detector's CountSend in the worker has the same
// ordering). Slow path: the seq-stamped Extras queue, same lock.

void Channel::Send(TupleBlock frame) {
  total_bytes_.fetch_add(frame.WireBytes(), std::memory_order_relaxed);
  total_sent_.fetch_add(frame.count, std::memory_order_relaxed);
  uint64_t index = total_frames_.fetch_add(1, std::memory_order_relaxed);
  if (fx_ == nullptr) NoteFlowSend(index);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ != nullptr) {
    EnqueueLocked(std::move(frame));
  } else {
    queue_.push_back(std::move(frame));
  }
}

size_t Channel::Drain(std::vector<TupleBlock>* out) {
  size_t start = out->size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fx_ != nullptr) {
      DrainLocked(out);
    } else {
      out->reserve(start + queue_.size());
      for (TupleBlock& b : queue_) out->push_back(std::move(b));
      queue_.clear();
    }
  }
  if (fx_ == nullptr) NoteFlowRecv(out->size() - start);
  size_t tuples = 0;
  for (size_t i = start; i < out->size(); ++i) tuples += (*out)[i].count;
  return tuples;
}

bool Channel::HasPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ == nullptr) return !queue_.empty();
  return !fx_->queue.empty() || !fx_->delayed.empty();
}

Channel::Extras& Channel::EnsureExtras() {
  // Configuration happens before the run; nothing may be in flight when
  // the channel switches to the slow path.
  assert(queue_.empty());
  if (fx_ == nullptr) fx_ = std::make_unique<Extras>();
  return *fx_;
}

void Channel::ConfigureFaults(const FaultSpec& spec, int from, int to) {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureExtras().injector =
      std::make_unique<FaultInjector>(spec, from, to);
}

void Channel::EnableRetransmit() {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureExtras().reliable = true;
}

void Channel::NoteFlowSend(uint64_t frame) {
  if (send_trace_ == nullptr) return;
  // Past the 22-bit sequence space, stop emitting rather than wrap (the
  // receiver side applies the same cutoff, so pairing stays consistent).
  if (frame > kFlowMaxSeq) return;
  send_trace_->Instant(TracePhase::kFlowSend, PackFlowArg(flow_to_, frame));
}

void Channel::NoteFlowRecv(size_t frames) {
  if (send_trace_ == nullptr) {
    delivered_frames_ += frames;
    return;
  }
  // The fast path is FIFO and lossless, so the k-th frame drained is
  // the k-th frame sent; a running delivery counter reconstructs each
  // frame's sequence without touching the wire format.
  for (size_t k = 0; k < frames; ++k) {
    uint64_t seq = delivered_frames_ + k;
    if (seq > kFlowMaxSeq) break;
    if (recv_trace_ != nullptr) {
      recv_trace_->Instant(TracePhase::kFlowRecv,
                           PackFlowArg(flow_from_, seq));
    }
  }
  delivered_frames_ += frames;
}

void Channel::EnqueueLocked(TupleBlock frame) {
  Extras& fx = *fx_;
  uint64_t seq = fx.next_seq++;
  if (fx.reliable) fx.unacked.emplace_back(seq, frame);
  FaultInjector::Action action = fx.injector != nullptr
                                     ? fx.injector->Next()
                                     : FaultInjector::Action::kDeliver;
  switch (action) {
    case FaultInjector::Action::kDrop:
      ++fx.counters.dropped;
      return;  // never enqueued — every tuple of the frame is lost
    case FaultInjector::Action::kDuplicate:
      ++fx.counters.duplicated;
      fx.queue.emplace_back(seq, frame);
      fx.queue.emplace_back(seq, std::move(frame));
      return;
    case FaultInjector::Action::kReorder:
      ++fx.counters.reordered;
      fx.queue.insert(fx.queue.begin(), {seq, std::move(frame)});
      return;
    case FaultInjector::Action::kDelay:
      ++fx.counters.delayed;
      fx.delayed.push_back(
          {seq, std::move(frame),
           fx.drain_calls + fx.injector->delay_polls()});
      return;
    case FaultInjector::Action::kCorrupt:
      // An object frame has no bytes to flip: deliver it intact, without
      // counting. An encoded frame loses its checksum.
      if (!frame.wire.empty()) {
        ++fx.counters.corrupted;
        frame.wire[fx.injector->CorruptOffset(frame.wire.size())] ^= 0xa5;
      }
      [[fallthrough]];
    case FaultInjector::Action::kDeliver:
      fx.queue.emplace_back(seq, std::move(frame));
      return;
  }
}

void Channel::ReleaseMatureLocked() {
  Extras& fx = *fx_;
  size_t kept = 0;
  for (size_t k = 0; k < fx.delayed.size(); ++k) {
    Extras::Delayed& d = fx.delayed[k];
    if (d.release_at <= fx.drain_calls) {
      fx.queue.emplace_back(d.seq, std::move(d.frame));
    } else {
      // Compact in place; guard the no-release case against
      // self-move-assignment, which would gut the frame's buffers.
      if (kept != k) fx.delayed[kept] = std::move(d);
      ++kept;
    }
  }
  fx.delayed.resize(kept);
}

void Channel::DeliverLocked(TupleBlock frame, std::vector<TupleBlock>* out) {
  Extras& fx = *fx_;
  out->push_back(std::move(frame));
  ++fx.deliver_next;
  // Flush consecutive frames that were buffered ahead of the gap.
  for (auto it = fx.ahead.find(fx.deliver_next); it != fx.ahead.end();
       it = fx.ahead.find(fx.deliver_next)) {
    out->push_back(std::move(it->second));
    fx.ahead.erase(it);
    ++fx.deliver_next;
  }
}

void Channel::DrainLocked(std::vector<TupleBlock>* out) {
  Extras& fx = *fx_;
  ++fx.drain_calls;
  ReleaseMatureLocked();
  if (!fx.reliable) {
    for (auto& [seq, b] : fx.queue) out->push_back(std::move(b));
    fx.queue.clear();
    return;
  }
  for (auto& [seq, b] : fx.queue) {
    if (seq < fx.deliver_next) {
      ++fx.counters.duplicates_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kDupFrame);
      }
      continue;
    }
    // An encoded frame the injector corrupted fails its checksum; treat
    // it as lost (no delivery, no ack) so the sender's resend recovers
    // it.
    if (!b.wire.empty() && !FrameChecksumOk(b.wire.data(), b.wire.size())) {
      ++fx.counters.corrupt_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kCorruptFrame);
      }
      continue;
    }
    if (seq == fx.deliver_next) {
      DeliverLocked(std::move(b), out);
    } else if (!fx.ahead.emplace(seq, std::move(b)).second) {
      ++fx.counters.duplicates_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kDupFrame);
      }
    }
  }
  fx.queue.clear();
}

size_t Channel::RetransmitUnacked() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ == nullptr || !fx_->reliable) return 0;
  Extras& fx = *fx_;
  while (!fx.unacked.empty() && fx.unacked.front().first < fx.deliver_next) {
    fx.unacked.pop_front();
  }
  size_t resent = 0;
  for (const auto& [seq, b] : fx.unacked) {
    if (fx.ahead.count(seq) != 0) continue;  // receiver already holds it
    fx.queue.emplace_back(seq, b);
    ++fx.counters.retransmitted;
    ++resent;
  }
  return resent;
}

FaultCounters Channel::fault_counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fx_ != nullptr ? fx_->counters : FaultCounters{};
}

}  // namespace pdatalog

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
// ordering). Slow path: the seq-stamped Extras queues, same lock.

void Channel::SendBlock(TupleBlock block) {
  total_bytes_.fetch_add(block.WireBytes(), std::memory_order_relaxed);
  total_sent_.fetch_add(block.count, std::memory_order_relaxed);
  uint64_t frame = total_frames_.fetch_add(1, std::memory_order_relaxed);
  if (fx_ == nullptr) NoteFlowSend(frame);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ != nullptr) {
    EnqueueBlockLocked(std::move(block));
  } else {
    queue_.push_back(std::move(block));
  }
}

size_t Channel::DrainBlocks(std::vector<TupleBlock>* out) {
  size_t start = out->size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fx_ != nullptr) {
      DrainBlocksLocked(out);
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

void Channel::SendBytes(std::vector<uint8_t> bytes, uint32_t tuples) {
  total_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  total_sent_.fetch_add(tuples, std::memory_order_relaxed);
  uint64_t frame = total_frames_.fetch_add(1, std::memory_order_relaxed);
  if (fx_ == nullptr) NoteFlowSend(frame);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ != nullptr) {
    SendBytesLocked(std::move(bytes));
  } else {
    byte_queue_.push_back(std::move(bytes));
  }
}

size_t Channel::DrainBytes(std::vector<std::vector<uint8_t>>* out) {
  size_t frames;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fx_ != nullptr) return DrainBytesLocked(out);
    frames = byte_queue_.size();
    out->reserve(out->size() + frames);
    for (auto& b : byte_queue_) out->push_back(std::move(b));
    byte_queue_.clear();
  }
  NoteFlowRecv(frames);
  return frames;
}

bool Channel::HasPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ != nullptr) return HasPendingLocked();
  return !queue_.empty() || !byte_queue_.empty();
}

Channel::Extras& Channel::EnsureExtras() {
  // Configuration happens before the run; nothing may be in flight when
  // the channel switches to the slow path.
  assert(queue_.empty() && byte_queue_.empty());
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

void Channel::EnqueueBlockLocked(TupleBlock block) {
  Extras& fx = *fx_;
  uint64_t seq = fx.next_seq++;
  if (fx.reliable) fx.unacked.emplace_back(seq, block);
  FaultInjector::Action action = fx.injector != nullptr
                                     ? fx.injector->Next()
                                     : FaultInjector::Action::kDeliver;
  switch (action) {
    case FaultInjector::Action::kDrop:
      ++fx.counters.dropped;
      return;  // never enqueued — every tuple of the block is lost
    case FaultInjector::Action::kDuplicate:
      ++fx.counters.duplicated;
      fx.queue.emplace_back(seq, block);
      fx.queue.emplace_back(seq, std::move(block));
      return;
    case FaultInjector::Action::kReorder:
      ++fx.counters.reordered;
      fx.queue.insert(fx.queue.begin(), {seq, std::move(block)});
      return;
    case FaultInjector::Action::kDelay:
      ++fx.counters.delayed;
      fx.delayed.push_back(
          {seq, std::move(block),
           fx.drain_calls + fx.injector->delay_polls()});
      return;
    case FaultInjector::Action::kCorrupt:
      // Block-object mode has no bytes to flip; only serialized
      // channels can corrupt. Deliver intact, without counting.
    case FaultInjector::Action::kDeliver:
      fx.queue.emplace_back(seq, std::move(block));
      return;
  }
}

void Channel::SendBytesLocked(std::vector<uint8_t> bytes) {
  Extras& fx = *fx_;
  uint64_t seq = fx.next_seq++;
  if (fx.reliable) fx.unacked_bytes.emplace_back(seq, bytes);
  FaultInjector::Action action = fx.injector != nullptr
                                     ? fx.injector->Next()
                                     : FaultInjector::Action::kDeliver;
  switch (action) {
    case FaultInjector::Action::kDrop:
      ++fx.counters.dropped;
      return;
    case FaultInjector::Action::kDuplicate:
      ++fx.counters.duplicated;
      fx.byte_queue.emplace_back(seq, bytes);
      fx.byte_queue.emplace_back(seq, std::move(bytes));
      return;
    case FaultInjector::Action::kReorder:
      ++fx.counters.reordered;
      fx.byte_queue.insert(fx.byte_queue.begin(), {seq, std::move(bytes)});
      return;
    case FaultInjector::Action::kDelay:
      ++fx.counters.delayed;
      fx.delayed_bytes.push_back(
          {seq, std::move(bytes),
           fx.drain_calls + fx.injector->delay_polls()});
      return;
    case FaultInjector::Action::kCorrupt: {
      ++fx.counters.corrupted;
      if (!bytes.empty()) {
        bytes[fx.injector->CorruptOffset(bytes.size())] ^= 0xa5;
      }
      fx.byte_queue.emplace_back(seq, std::move(bytes));
      return;
    }
    case FaultInjector::Action::kDeliver:
      fx.byte_queue.emplace_back(seq, std::move(bytes));
      return;
  }
}

void Channel::ReleaseMatureLocked() {
  Extras& fx = *fx_;
  if (!fx.delayed.empty()) {
    size_t kept = 0;
    for (size_t k = 0; k < fx.delayed.size(); ++k) {
      Extras::DelayedBlock& d = fx.delayed[k];
      if (d.release_at <= fx.drain_calls) {
        fx.queue.emplace_back(d.seq, std::move(d.block));
      } else {
        // Compact in place; guard the no-release case against
        // self-move-assignment, which would gut the block's buffer.
        if (kept != k) fx.delayed[kept] = std::move(d);
        ++kept;
      }
    }
    fx.delayed.resize(kept);
  }
  if (!fx.delayed_bytes.empty()) {
    size_t kept = 0;
    for (size_t k = 0; k < fx.delayed_bytes.size(); ++k) {
      Extras::DelayedBytes& d = fx.delayed_bytes[k];
      if (d.release_at <= fx.drain_calls) {
        fx.byte_queue.emplace_back(d.seq, std::move(d.bytes));
      } else {
        if (kept != k) fx.delayed_bytes[kept] = std::move(d);
        ++kept;
      }
    }
    fx.delayed_bytes.resize(kept);
  }
}

void Channel::DeliverBlockLocked(TupleBlock block,
                                 std::vector<TupleBlock>* out) {
  Extras& fx = *fx_;
  out->push_back(std::move(block));
  ++fx.deliver_next;
  // Flush consecutive frames that were buffered ahead of the gap.
  for (auto it = fx.ahead.find(fx.deliver_next); it != fx.ahead.end();
       it = fx.ahead.find(fx.deliver_next)) {
    out->push_back(std::move(it->second));
    fx.ahead.erase(it);
    ++fx.deliver_next;
  }
}

void Channel::DeliverBytesLocked(std::vector<uint8_t> bytes,
                                 std::vector<std::vector<uint8_t>>* out,
                                 size_t* delivered) {
  Extras& fx = *fx_;
  out->push_back(std::move(bytes));
  ++*delivered;
  ++fx.deliver_next;
  for (auto it = fx.ahead_bytes.find(fx.deliver_next);
       it != fx.ahead_bytes.end();
       it = fx.ahead_bytes.find(fx.deliver_next)) {
    out->push_back(std::move(it->second));
    fx.ahead_bytes.erase(it);
    ++*delivered;
    ++fx.deliver_next;
  }
}

size_t Channel::DrainBlocksLocked(std::vector<TupleBlock>* out) {
  Extras& fx = *fx_;
  ++fx.drain_calls;
  ReleaseMatureLocked();
  size_t start = out->size();
  if (!fx.reliable) {
    for (auto& [seq, b] : fx.queue) out->push_back(std::move(b));
    fx.queue.clear();
    return out->size() - start;
  }
  for (auto& [seq, b] : fx.queue) {
    if (seq < fx.deliver_next) {
      ++fx.counters.duplicates_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kDupFrame);
      }
    } else if (seq == fx.deliver_next) {
      DeliverBlockLocked(std::move(b), out);
    } else if (!fx.ahead.emplace(seq, std::move(b)).second) {
      ++fx.counters.duplicates_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kDupFrame);
      }
    }
  }
  fx.queue.clear();
  return out->size() - start;
}

size_t Channel::DrainBytesLocked(std::vector<std::vector<uint8_t>>* out) {
  Extras& fx = *fx_;
  ++fx.drain_calls;
  ReleaseMatureLocked();
  size_t delivered = 0;
  if (!fx.reliable) {
    for (auto& [seq, b] : fx.byte_queue) {
      out->push_back(std::move(b));
      ++delivered;
    }
    fx.byte_queue.clear();
    return delivered;
  }
  for (auto& [seq, b] : fx.byte_queue) {
    if (seq < fx.deliver_next) {
      ++fx.counters.duplicates_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kDupFrame);
      }
      continue;
    }
    // A frame the injector corrupted fails its checksum; treat it as
    // lost (no delivery, no ack) so the sender's resend recovers it.
    if (!FrameChecksumOk(b.data(), b.size())) {
      ++fx.counters.corrupt_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kCorruptFrame);
      }
      continue;
    }
    if (seq == fx.deliver_next) {
      DeliverBytesLocked(std::move(b), out, &delivered);
    } else if (!fx.ahead_bytes.emplace(seq, std::move(b)).second) {
      ++fx.counters.duplicates_discarded;
      if (recv_trace_ != nullptr) {
        recv_trace_->Instant(TracePhase::kDupFrame);
      }
    }
  }
  fx.byte_queue.clear();
  return delivered;
}

bool Channel::HasPendingLocked() const {
  const Extras& fx = *fx_;
  return !fx.queue.empty() || !fx.byte_queue.empty() ||
         !fx.delayed.empty() || !fx.delayed_bytes.empty();
}

size_t Channel::RetransmitUnacked() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ == nullptr || !fx_->reliable) return 0;
  Extras& fx = *fx_;
  while (!fx.unacked.empty() && fx.unacked.front().first < fx.deliver_next) {
    fx.unacked.pop_front();
  }
  while (!fx.unacked_bytes.empty() &&
         fx.unacked_bytes.front().first < fx.deliver_next) {
    fx.unacked_bytes.pop_front();
  }
  size_t resent = 0;
  for (const auto& [seq, b] : fx.unacked) {
    if (fx.ahead.count(seq) != 0) continue;  // receiver already holds it
    fx.queue.emplace_back(seq, b);
    ++fx.counters.retransmitted;
    ++resent;
  }
  for (const auto& [seq, b] : fx.unacked_bytes) {
    if (fx.ahead_bytes.count(seq) != 0) continue;
    fx.byte_queue.emplace_back(seq, b);
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

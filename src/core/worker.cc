#include "core/worker.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "core/wire.h"
#include "obs/trace.h"

namespace pdatalog {

StatusOr<std::unique_ptr<Worker>> Worker::Create(
    const RewriteBundle* bundle, int id, const Database* edb,
    std::unordered_map<int, std::unique_ptr<Relation>> fragments,
    CommNetwork* network, TerminationDetector* detector,
    RebalanceCoordinator* rebalance) {
  std::unique_ptr<Worker> worker(new Worker(bundle, id, edb,
                                            std::move(fragments), network,
                                            detector, rebalance));
  Status status = worker->Setup();
  if (!status.ok()) return status;
  return worker;
}

Worker::Worker(const RewriteBundle* bundle, int id, const Database* edb,
               std::unordered_map<int, std::unique_ptr<Relation>> fragments,
               CommNetwork* network, TerminationDetector* detector,
               RebalanceCoordinator* rebalance)
    : bundle_(bundle),
      id_(id),
      num_processors_(bundle->num_processors),
      edb_(edb),
      network_(network),
      detector_(detector),
      rebalance_(rebalance),
      fragments_(std::move(fragments)) {}

Status Worker::Setup() {
  const Program& program = bundle_->per_processor[id_];
  PDATALOG_RETURN_IF_ERROR(Validate(program, &info_));
  for (const auto& [orig, in_sym] : bundle_->in_name) {
    if (info_.arity.emplace(in_sym, bundle_->arity.at(orig)).second) {
      // This t_in never occurs in the local program (no rule consumes
      // the predicate); register it so receives still have a home.
      info_.predicates.push_back(in_sym);
    }
    info_.base.erase(in_sym);
    info_.derived.insert(in_sym);
  }

  // The t_out / t_in relations, handed to the evaluator below. A
  // Database keeps its relations at stable addresses, so the worker
  // goes on appending received blocks to the t_in relations the
  // evaluator owns.
  Database local;
  num_derived_ = static_cast<int>(bundle_->derived.size());
  for (Symbol p : bundle_->derived) {
    int arity = bundle_->arity.at(p);
    out_rels_.push_back(&local.GetOrCreate(bundle_->out_name.at(p), arity));
    in_rels_[p] = &local.GetOrCreate(bundle_->in_name.at(p), arity);
  }
  out_sent_end_.assign(num_derived_, 0);
  send_blocks_.resize(static_cast<size_t>(num_processors_) * num_derived_);

  // Bind every base occurrence to the relation it reads: this worker's
  // fragment, the shared replicated EDB relation, or an empty stand-in
  // for a predicate without facts.
  std::vector<std::vector<const Relation*>> bound(program.rules.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    bound[r].resize(program.rules[r].body.size(), nullptr);
  }
  auto predicate_of = [&](const BaseOccurrence& occ) {
    return program.rules[occ.rule_index].body[occ.body_index].predicate;
  };
  for (size_t k = 0; k < bundle_->base_occurrences.size(); ++k) {
    const BaseOccurrence& occ = bundle_->base_occurrences[k];
    const Relation* rel;
    if (occ.access == BaseOccurrence::Access::kFragment) {
      rel = fragments_.at(static_cast<int>(k)).get();
    } else {
      Symbol pred = predicate_of(occ);
      rel = edb_->Find(pred);
      if (rel == nullptr) {
        rel = &empty_bases_.GetOrCreate(pred, bundle_->arity.at(pred));
      }
    }
    bound[occ.rule_index][occ.body_index] = rel;
  }

  // Hash constraints and routing go through the shared registry, or
  // through the rebalancer's per-worker view when rebalancing is on.
  const ConstraintEvaluator* constraints = bundle_->registry.get();
  if (rebalance_ != nullptr) {
    remap_view_ = rebalance_->MakeView(id_);
    constraints = remap_view_.get();
  }
  router_ = TupleRouter(bundle_->sends[id_], num_processors_, constraints);

  StatusOr<IncrementalEvaluator> eval = IncrementalEvaluator::Create(
      program, info_, EvalOptions(), std::move(local), constraints,
      std::move(bound));
  if (!eval.ok()) return eval.status();
  eval_.emplace(std::move(*eval));

  // Index the base relations this worker owns; shared EDB relations are
  // pre-indexed by the engine before workers start.
  for (const auto& [pred, mask] : eval_->compiled().required_indexes()) {
    if (Relation* empty = empty_bases_.Find(pred)) empty->EnsureIndex(mask);
    for (auto& [k, fragment] : fragments_) {
      if (predicate_of(bundle_->base_occurrences[k]) == pred) {
        fragment->EnsureIndex(mask);
      }
    }
  }
  return Status::Ok();
}

void Worker::set_trace(TraceRing* ring) {
  trace_ = ring;
  // Bulk ingests into the t_in relations happen on this worker's thread
  // (DrainChannels), so they may share the worker's ring — and, when
  // tracing is on, the worker's ingest histograms.
  for (const auto& [pred, rel] : in_rels_) {
    rel->set_trace(ring);
    rel->set_insert_profile(ring != nullptr ? &profile_.insert_ns : nullptr);
    rel->set_insert_tuples(ring != nullptr ? &profile_.insert_tuples
                                           : nullptr);
  }
  // The batch join kernel records surviving keys per probe batch.
  eval_->set_probe_batch(ring != nullptr ? &profile_.probe_batch : nullptr);
}

const Relation& Worker::OutputRelation(Symbol p) const {
  const Relation* rel = eval_->Find(bundle_->out_name.at(p));
  assert(rel != nullptr);
  return *rel;
}

void Worker::BeginRoundLog(uint64_t received) {
  RoundLog& log = round_logs_.emplace_back();
  log.received = received;
  log.sent_to.assign(num_processors_, 0);
}

Status Worker::Evaluate() {
  StatusOr<EvalStats> batch = eval_->Evaluate();
  if (!batch.ok()) return batch.status();
  stats_.firings += batch->firings;
  stats_.out_inserted += batch->tuples_inserted;
  stats_.rows_examined += batch->rows_examined;
  stats_.batch_fallbacks += batch->batch_fallbacks;
  round_logs_.back().firings = batch->firings;
  return Status::Ok();
}

Status Worker::Init() {
  TraceScope span(trace_, TracePhase::kInit);
  BeginRoundLog(0);
  PDATALOG_RETURN_IF_ERROR(Evaluate());
  // Route the initial output delta (Section 3: tuples derived by the
  // initialization rule flow through the sending rules like any other).
  SendOutputs();
  return send_status_;
}

StatusOr<size_t> Worker::IngestBlock(const TupleBlock& block, int from) {
  auto in_it = in_rels_.find(block.predicate);
  Relation* in_rel = in_it == in_rels_.end() ? nullptr : in_it->second;
  if (in_rel == nullptr || in_rel->arity() != block.arity) {
    // A corrupted frame can pass the checksum only with probability
    // 2^-32, but a bug in the sending rules would land here too; both
    // must fail the run rather than feed wrong tuples to the fixpoint.
    return Status::Internal(
        "worker " + std::to_string(id_) +
        ": received tuple block for unknown predicate id " +
        std::to_string(block.predicate) + " (arity " +
        std::to_string(block.arity) + ") from processor " +
        std::to_string(from));
  }
  stats_.in_inserted += in_rel->InsertBlock(
      block.values.data(), block.arity, block.count, block.columnar);
  return static_cast<size_t>(block.count);
}

StatusOr<size_t> Worker::DrainChannels() {
  TraceScope span(trace_, TracePhase::kDrain, 0,
                  trace_ != nullptr ? &profile_.drain_ns : nullptr);
  size_t total = 0;
  size_t frames = 0;
  for (int j = 0; j < num_processors_; ++j) {
    frame_buffer_.clear();
    network_->channel(j, id_).Drain(&frame_buffer_);
    frames += frame_buffer_.size();
    for (const TupleBlock& frame : frame_buffer_) {
      // A message-passing frame carries one encoded block; decoding it
      // keeps the receive counter in decoded tuples, matching the
      // block-granular CountSend(n) on the send side.
      const TupleBlock* block = &frame;
      if (!frame.wire.empty()) {
        size_t offset = 0;
        Status decoded = DecodeBlockInto(frame.wire, &offset, &decode_block_);
        if (!decoded.ok()) {
          return Status(decoded.code(),
                        "worker " + std::to_string(id_) +
                            ": bad frame on channel " + std::to_string(j) +
                            "->" + std::to_string(id_) + ": " +
                            decoded.message());
        }
        block = &decode_block_;
      }
      StatusOr<size_t> n = IngestBlock(*block, j);
      if (!n.ok()) return n.status();
      total += *n;
    }
  }
  // Queue depth observed by this drain (frames across all inbound
  // channels, zero included — idle polls drain too, and an empty drain
  // is a real queue-depth sample).
  if (trace_ != nullptr) {
    profile_.queue_frames.Record(static_cast<uint64_t>(frames));
  }
  if (total == 0) return size_t{0};
  detector_->CountReceive(id_, total);
  stats_.received += total;
  return total;
}

void Worker::FlushBlock(int dest, TupleBlock* block) {
  if (block->count == 0) return;
  if (trace_ != nullptr) {
    profile_.block_tuples.Record(block->count);
  }
  // Count the whole block before it becomes visible to the receiver
  // (Mattern's rule), in one detector call instead of one per tuple.
  detector_->CountSend(id_, block->count);
  ++stats_.frames;
  TupleBlock frame;
  if (serialize_messages_) {
    // Message passing: the frame keeps the header fields and carries the
    // encoding; the accumulation buffer stays here for the next cycle.
    frame.predicate = block->predicate;
    frame.arity = block->arity;
    frame.count = block->count;
    Status encoded;
    {
      TraceScope enc(trace_, TracePhase::kEncode, block->count);
      encoded = EncodeBlock(*block, &frame.wire);
    }
    if (!encoded.ok()) {
      // Plan validation rejects arity > kMaxWireArity up front, so
      // this is defensive. The frame is not enqueued; the latched
      // status aborts the run before quiescence is ever declared.
      if (send_status_.ok()) send_status_ = std::move(encoded);
      block->Reset();
      return;
    }
  } else {
    frame = std::move(*block);
  }
  block->Reset();
  network_->channel(id_, dest).Send(std::move(frame));
}

void Worker::FlushSends() {
  TraceScope span(trace_, TracePhase::kFlush, 0,
                  trace_ != nullptr ? &profile_.flush_ns : nullptr);
  for (int dest = 0; dest < num_processors_; ++dest) {
    for (int slot = 0; slot < num_derived_; ++slot) {
      FlushBlock(dest, &send_blocks_[static_cast<size_t>(dest) *
                                         num_derived_ +
                                     slot]);
    }
  }
}

void Worker::SendOutputs() {
  for (int slot = 0; slot < num_derived_; ++slot) {
    const size_t end = out_rels_[slot]->size();
    SendNewRows(slot, out_sent_end_[slot], end);
    out_sent_end_[slot] = end;
  }
  FlushSends();
}

void Worker::SendNewRows(int slot, size_t begin, size_t end) {
  if (begin >= end) return;
  const Symbol pred = bundle_->derived[slot];
  const Relation& out = *out_rels_[slot];
  const int arity = out.arity();
  RoundLog& log = round_logs_.back();

  // Gather up to 256 rows out of the column store, route them in one
  // batch (one predicate lookup, per-row stamp dedup: the channel
  // predicate t_ij is a set, so a tuple travels each channel at most
  // once no matter how many sending rules select it), then append each
  // row to its destinations' accumulation blocks.
  constexpr size_t kRouteBatch = 256;
  send_rows_.resize(kRouteBatch * static_cast<size_t>(arity > 0 ? arity : 1));
  const ColumnStore& store = out.store();
  for (size_t base = begin; base < end; base += kRouteBatch) {
    const uint32_t n =
        static_cast<uint32_t>(std::min(kRouteBatch, end - base));
    for (uint32_t r = 0; r < n; ++r) {
      store.CopyRow(base + r,
                    send_rows_.data() + static_cast<size_t>(r) * arity);
    }
    dests_.clear();
    stats_.broadcasts += static_cast<uint64_t>(router_.RouteBatch(
        pred, send_rows_.data(), arity, n, &dests_, &route_offsets_));
    if (dests_.empty()) continue;
    for (uint32_t r = 0; r < n; ++r) {
      const Value* row = send_rows_.data() + static_cast<size_t>(r) * arity;
      for (uint32_t k = route_offsets_[r]; k < route_offsets_[r + 1]; ++k) {
        int dest = dests_[k];
        TupleBlock& block =
            send_blocks_[static_cast<size_t>(dest) * num_derived_ + slot];
        if (block.count == 0) {
          block.predicate = pred;
          block.arity = arity;
        }
        block.Append(row, arity);
        ++log.sent_to[dest];
        if (dest == id_) {
          ++stats_.sent_self;
        } else {
          ++stats_.sent_cross;
        }
        // Mid-round flush once the block is full, bounding buffered
        // bytes and letting the receiver overlap ingestion with our
        // round.
        if (block.count >= static_cast<uint32_t>(block_tuples_)) {
          FlushBlock(dest, &block);
        }
      }
    }
  }
}

StatusOr<bool> Worker::Step() {
  if (!send_status_.ok()) return send_status_;
  // Pull the rebalancer's override epochs forward before routing
  // anything this round: acceptance widens on publish, routing switches
  // only once every worker has acknowledged (see core/rebalance.h).
  if (rebalance_ != nullptr) rebalance_->Sync(id_, remap_view_.get());
  StatusOr<size_t> got = DrainChannels();
  if (!got.ok()) return got.status();
  // Only a drain appends to t_in, so without one there is no delta.
  if (*got == 0) return false;

  const uint32_t round = static_cast<uint32_t>(++stats_.rounds);
  if (trace_ != nullptr) trace_->Instant(TracePhase::kRound, round);
  BeginRoundLog(*got);
  {
    TraceScope probe(trace_, TracePhase::kProbe, round,
                     trace_ != nullptr ? &profile_.probe_ns : nullptr);
    PDATALOG_RETURN_IF_ERROR(Evaluate());
  }
  SendOutputs();
  if (rebalance_ != nullptr) {
    rebalance_->ReportWindow(id_, remap_view_.get());
  }
  if (!send_status_.ok()) return send_status_;
  return true;
}

size_t Worker::RetransmitUnacked() {
  size_t resent = 0;
  for (int dest = 0; dest < num_processors_; ++dest) {
    if (dest == id_) continue;
    resent += network_->channel(id_, dest).RetransmitUnacked();
  }
  if (trace_ != nullptr && resent > 0) {
    trace_->Instant(TracePhase::kRetransmit, static_cast<uint32_t>(resent));
  }
  return resent;
}

namespace {

// Bounded backoff ladder for the idle poll loop: yields first (cheap
// wakeup while traffic is still flowing), then sleeps doubling from 1us
// up to the cap so an idle worker stops burning its core while
// termination latency stays well under a millisecond.
class IdleBackoff {
 public:
  void Pause() {
    if (yields_ < kYieldPolls) {
      ++yields_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    sleep_us_ = std::min<int64_t>(sleep_us_ * 2, kMaxSleepUs);
  }

  void Reset() {
    yields_ = 0;
    sleep_us_ = 1;
  }

 private:
  static constexpr int kYieldPolls = 16;
  static constexpr int64_t kMaxSleepUs = 256;
  int yields_ = 0;
  int64_t sleep_us_ = 1;
};

}  // namespace

Status Worker::RunLoop() {
  detector_->SetIdle(id_, false);
  Status init = Init();
  if (!init.ok()) {
    detector_->SetIdle(id_, true);
    detector_->Abort(init);
    return init;
  }
  IdleBackoff backoff;
  uint64_t idle_polls = 0;
  while (true) {
    // A peer may have aborted (or detection may have completed) while
    // this worker was mid-round.
    if (detector_->terminated()) return detector_->run_status();
    StatusOr<bool> progressed = Step();
    if (!progressed.ok()) {
      detector_->SetIdle(id_, true);
      detector_->Abort(progressed.status());
      return progressed.status();
    }
    if (*progressed) {
      backoff.Reset();
      idle_polls = 0;
      continue;
    }
    detector_->SetIdle(id_, true);
    TraceScope idle(trace_, TracePhase::kIdle, 0,
                    trace_ != nullptr ? &profile_.idle_ns : nullptr);
    while (true) {
      // An idle worker must keep acknowledging rebalance epochs: a
      // publish cannot commit until every worker — including ones with
      // no pending work — has widened its acceptance set.
      if (rebalance_ != nullptr) rebalance_->Sync(id_, remap_view_.get());
      if (detector_->TryDetect()) return detector_->run_status();
      bool pending = false;
      for (int j = 0; j < num_processors_; ++j) {
        if (network_->channel(j, id_).HasPending()) {
          pending = true;
          break;
        }
      }
      if (pending) {
        detector_->SetIdle(id_, false);
        break;
      }
      ++idle_polls;
      // In retransmit mode an idle worker periodically re-sends its
      // unacknowledged frames; a dropped first transmission is thus
      // recovered without any negative-acknowledgement machinery.
      if (retransmit_ && (idle_polls & 7) == 0 && RetransmitUnacked() > 0) {
        backoff.Reset();
      }
      backoff.Pause();
    }
  }
}

}  // namespace pdatalog

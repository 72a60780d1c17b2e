#include "core/worker.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "core/wire.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace pdatalog {

StatusOr<std::unique_ptr<Worker>> Worker::Create(
    const RewriteBundle* bundle, int id, const Database* edb,
    std::unordered_map<int, std::unique_ptr<Relation>> fragments,
    CommNetwork* network, TerminationDetector* detector) {
  std::unique_ptr<Worker> worker(new Worker(
      bundle, id, edb, std::move(fragments), network, detector));
  Status status = worker->Setup();
  if (!status.ok()) return status;
  return worker;
}

Worker::Worker(const RewriteBundle* bundle, int id, const Database* edb,
               std::unordered_map<int, std::unique_ptr<Relation>> fragments,
               CommNetwork* network, TerminationDetector* detector)
    : bundle_(bundle),
      id_(id),
      num_processors_(bundle->num_processors),
      edb_(edb),
      network_(network),
      detector_(detector),
      fragments_(std::move(fragments)) {}

Status Worker::Setup() {
  local_program_ = &bundle_->per_processor[id_];

  // Local classification: t_in predicates are fed by the channels, so
  // the semi-naive compiler must treat them as delta-tracked (derived).
  ProgramInfo local_info;
  PDATALOG_RETURN_IF_ERROR(Validate(*local_program_, &local_info));
  for (const auto& [orig, in_sym] : bundle_->in_name) {
    if (local_info.arity.find(in_sym) == local_info.arity.end()) {
      // This t_in never occurs in the local program (no rule consumes
      // the predicate); register it so receives still have a home.
      local_info.arity[in_sym] = bundle_->arity.at(orig);
      local_info.predicates.push_back(in_sym);
    }
    local_info.base.erase(in_sym);
    local_info.derived.insert(in_sym);
  }

  StatusOr<CompiledProgram> compiled =
      CompiledProgram::Compile(*local_program_, local_info);
  if (!compiled.ok()) return compiled.status();
  compiled_ = std::move(*compiled);

  // Local t_out / t_in relations, plus a buffered inserter per t_out
  // (the head relations the processing rules fire into).
  for (Symbol p : bundle_->derived) {
    int arity = bundle_->arity.at(p);
    Symbol out_sym = bundle_->out_name.at(p);
    Relation& out = local_db_.GetOrCreate(out_sym, arity);
    local_db_.GetOrCreate(bundle_->in_name.at(p), arity);
    in_old_end_[bundle_->in_name.at(p)] = 0;
    out_sent_end_[out_sym] = 0;
    head_inserters_.try_emplace(out_sym, &out);
  }

  // Occurrence lookup for fragment resolution.
  std::unordered_map<int64_t, int> occ_by_pos;
  for (size_t k = 0; k < bundle_->base_occurrences.size(); ++k) {
    const BaseOccurrence& occ = bundle_->base_occurrences[k];
    occ_by_pos[(static_cast<int64_t>(occ.rule_index) << 32) |
               occ.body_index] = static_cast<int>(k);
  }

  // Resolve every body atom to its data source.
  body_sources_.resize(local_program_->rules.size());
  for (size_t r = 0; r < local_program_->rules.size(); ++r) {
    const Rule& rule = local_program_->rules[r];
    body_sources_[r].resize(rule.body.size());
    for (size_t b = 0; b < rule.body.size(); ++b) {
      const Atom& atom = rule.body[b];
      if (Relation* local = local_db_.Find(atom.predicate)) {
        body_sources_[r][b] = local;  // t_in relation
        continue;
      }
      auto occ_it =
          occ_by_pos.find((static_cast<int64_t>(r) << 32) | b);
      assert(occ_it != occ_by_pos.end());
      const BaseOccurrence& occ = bundle_->base_occurrences[occ_it->second];
      if (occ.access == BaseOccurrence::Access::kFragment) {
        auto frag_it = fragments_.find(occ_it->second);
        assert(frag_it != fragments_.end());
        body_sources_[r][b] = frag_it->second.get();
      } else {
        const Relation* shared = edb_->Find(atom.predicate);
        if (shared == nullptr) {
          // No facts for this base predicate: use an empty local one.
          shared = &local_db_.GetOrCreate(atom.predicate,
                                          bundle_->arity.at(atom.predicate));
        }
        body_sources_[r][b] = shared;
      }
    }
  }

  // One accumulation block per (destination, derived predicate); the
  // slot order follows bundle_->derived so SendTuple indexes a flat
  // array instead of hashing.
  num_derived_ = static_cast<int>(bundle_->derived.size());
  pred_slot_.reserve(bundle_->derived.size());
  for (size_t k = 0; k < bundle_->derived.size(); ++k) {
    pred_slot_[bundle_->derived[k]] = static_cast<int>(k);
  }
  send_blocks_.resize(static_cast<size_t>(num_processors_) * num_derived_);

  // Precompile the sending rules: per-predicate routing tables with
  // resolved variable positions and flattened pattern checks, so
  // SendTuple never re-scans the spec list. set_rebalance() rebuilds
  // the router around its per-worker view.
  constraint_eval_ = bundle_->registry.get();
  router_ =
      TupleRouter(bundle_->sends[id_], num_processors_, constraint_eval_);

  // Indexes on static sources (fragments and empty locals); shared EDB
  // relations are pre-indexed by the engine before workers start.
  for (const auto& [pred, mask] : compiled_.required_indexes()) {
    for (size_t r = 0; r < local_program_->rules.size(); ++r) {
      const Rule& rule = local_program_->rules[r];
      for (size_t b = 0; b < rule.body.size(); ++b) {
        if (rule.body[b].predicate != pred) continue;
        // const_cast is safe here: fragments and local relations belong
        // to this worker and are only indexed before/between rounds.
        Relation* src = const_cast<Relation*>(body_sources_[r][b]);
        bool is_in_rel = in_old_end_.count(pred) > 0;
        bool is_shared_edb = edb_->Find(pred) == src;
        if (!is_in_rel && !is_shared_edb) src->EnsureIndex(mask);
      }
    }
  }
  return Status::Ok();
}

void Worker::set_rebalance(RebalanceCoordinator* coordinator) {
  rebalance_ = coordinator;
  if (coordinator == nullptr) return;
  remap_view_ = coordinator->MakeView(id_);
  constraint_eval_ = remap_view_.get();
  router_ =
      TupleRouter(bundle_->sends[id_], num_processors_, constraint_eval_);
}

void Worker::set_trace(TraceRing* ring) {
  trace_ = ring;
  // Bulk ingests into the t_in relations happen on this worker's thread
  // (DrainChannels), so they may share the worker's ring — and, when
  // tracing is on, the worker's ingest histograms.
  for (const auto& [in_sym, unused] : in_old_end_) {
    (void)unused;
    Relation* rel = local_db_.Find(in_sym);
    rel->set_trace(ring);
    rel->set_insert_profile(ring != nullptr ? &profile_.insert_ns : nullptr);
    rel->set_insert_tuples(ring != nullptr ? &profile_.insert_tuples
                                           : nullptr);
  }
  // The batch join kernel records surviving keys per probe batch.
  join_scratch_.probe_batch =
      ring != nullptr ? &profile_.probe_batch : nullptr;
}

const Relation& Worker::OutputRelation(Symbol p) const {
  const Relation* rel = local_db_.Find(bundle_->out_name.at(p));
  assert(rel != nullptr);
  return *rel;
}

void Worker::EnsureLocalIndexes() {
  for (const auto& [pred, mask] : compiled_.required_indexes()) {
    if (in_old_end_.count(pred) == 0) continue;  // only t_in grows
    local_db_.Find(pred)->EnsureIndex(mask);
  }
}

Status Worker::Init() {
  TraceScope span(trace_, TracePhase::kInit);
  round_logs_.emplace_back();
  current_log_ = &round_logs_.back();
  current_log_->sent_to.assign(num_processors_, 0);
  ExecStats es;
  for (size_t r = 0; r < local_program_->rules.size(); ++r) {
    const auto& variants = compiled_.rules()[r];
    if (variants.has_derived_body) continue;
    const Rule& rule = local_program_->rules[r];
    BatchInserter& inserter = head_inserters_.at(rule.head.predicate);
    std::vector<AtomInput> inputs(rule.body.size());
    for (size_t b = 0; b < rule.body.size(); ++b) {
      const Relation* src = body_sources_[r][b];
      inputs[b] = AtomInput{src, 0, src->size()};
    }
    JoinExecutor::Execute(
        variants.full, inputs, constraint_eval_,
        [&](const Value* values, int n) {
          stats_.out_inserted += inserter.Push(values, n);
        },
        &es, &join_scratch_);
    stats_.out_inserted += inserter.Flush();
  }
  stats_.firings += es.firings;
  stats_.rows_examined += es.rows_examined;
  stats_.batch_fallbacks += es.batch_fallbacks;
  current_log_->firings = es.firings;

  // Route the initial output delta (Section 3: tuples derived by the
  // initialization rule flow through the sending rules like any other).
  for (Symbol p : bundle_->derived) {
    Relation* out = local_db_.Find(bundle_->out_name.at(p));
    size_t& sent = out_sent_end_[bundle_->out_name.at(p)];
    SendNewRows(p, *out, sent, out->size());
    sent = out->size();
  }
  FlushSends();
  current_log_ = nullptr;
  return send_status_;
}

StatusOr<size_t> Worker::IngestBlock(const TupleBlock& block, int from) {
  auto in_it = bundle_->in_name.find(block.predicate);
  Relation* in_rel = in_it == bundle_->in_name.end()
                         ? nullptr
                         : local_db_.Find(in_it->second);
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
    Channel& channel = network_->channel(j, id_);
    block_buffer_.clear();
    channel.DrainBlocks(&block_buffer_);
    frames += block_buffer_.size();
    for (const TupleBlock& block : block_buffer_) {
      StatusOr<size_t> n = IngestBlock(block, j);
      if (!n.ok()) return n.status();
      total += *n;
    }
    if (serialize_messages_) {
      byte_buffer_.clear();
      channel.DrainBytes(&byte_buffer_);
      frames += byte_buffer_.size();
      // Count decoded tuples, not drained frames: the termination
      // detector's receive counter must agree with the block-granular
      // CountSend(n) on the send side.
      for (const std::vector<uint8_t>& bytes : byte_buffer_) {
        size_t offset = 0;
        while (offset < bytes.size()) {
          Status decoded = DecodeBlockInto(bytes, &offset, &decode_block_);
          if (!decoded.ok()) {
            return Status(decoded.code(),
                          "worker " + std::to_string(id_) +
                              ": bad frame on channel " + std::to_string(j) +
                              "->" + std::to_string(id_) + ": " +
                              decoded.message());
          }
          StatusOr<size_t> n = IngestBlock(decode_block_, j);
          if (!n.ok()) return n.status();
          total += *n;
        }
      }
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
  pending_received_ += total;
  return total;
}

void Worker::ProcessRound() {
  ++stats_.rounds;
  if (trace_ != nullptr) {
    trace_->Instant(TracePhase::kRound, static_cast<uint32_t>(stats_.rounds));
  }
  round_logs_.emplace_back();
  current_log_ = &round_logs_.back();
  current_log_->sent_to.assign(num_processors_, 0);
  current_log_->received = pending_received_;
  pending_received_ = 0;

  // Freeze this round's delta windows.
  std::unordered_map<Symbol, size_t> cur_end;
  for (auto& [in_sym, old_end] : in_old_end_) {
    (void)old_end;
    cur_end[in_sym] = local_db_.Find(in_sym)->size();
  }
  EnsureLocalIndexes();

  ExecStats es;
  {
    TraceScope probe(trace_, TracePhase::kProbe,
                     static_cast<uint32_t>(stats_.rounds),
                     trace_ != nullptr ? &profile_.probe_ns : nullptr);
    for (size_t r = 0; r < local_program_->rules.size(); ++r) {
      const auto& variants = compiled_.rules()[r];
      if (!variants.has_derived_body) continue;
      const Rule& rule = local_program_->rules[r];
      BatchInserter& inserter = head_inserters_.at(rule.head.predicate);

      for (const auto& [delta_idx, delta_rule] : variants.deltas) {
        std::vector<AtomInput> inputs(rule.body.size());
        bool empty_delta = false;
        for (size_t b = 0; b < rule.body.size(); ++b) {
          const Atom& atom = rule.body[b];
          const Relation* src = body_sources_[r][b];
          auto old_it = in_old_end_.find(atom.predicate);
          if (old_it == in_old_end_.end()) {  // base atom
            inputs[b] = AtomInput{src, 0, src->size()};
            continue;
          }
          size_t old_end = old_it->second;
          size_t cur = cur_end.at(atom.predicate);
          if (static_cast<int>(b) == delta_idx) {
            inputs[b] = AtomInput{src, old_end, cur};
            if (old_end == cur) empty_delta = true;
          } else if (static_cast<int>(b) < delta_idx) {
            inputs[b] = AtomInput{src, 0, old_end};
          } else {
            inputs[b] = AtomInput{src, 0, cur};
          }
        }
        if (empty_delta) continue;
        JoinExecutor::Execute(
            delta_rule, inputs, constraint_eval_,
            [&](const Value* values, int n) {
              stats_.out_inserted += inserter.Push(values, n);
            },
            &es, &join_scratch_);
        stats_.out_inserted += inserter.Flush();
      }
    }
  }
  stats_.firings += es.firings;
  stats_.rows_examined += es.rows_examined;
  stats_.batch_fallbacks += es.batch_fallbacks;
  current_log_->firings = es.firings;

  // Send the new outputs, then advance the t_in watermarks.
  for (Symbol p : bundle_->derived) {
    Relation* out = local_db_.Find(bundle_->out_name.at(p));
    size_t& sent = out_sent_end_[bundle_->out_name.at(p)];
    SendNewRows(p, *out, sent, out->size());
    sent = out->size();
  }
  for (auto& [in_sym, old_end] : in_old_end_) {
    old_end = cur_end.at(in_sym);
  }
  FlushSends();
  current_log_ = nullptr;
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
  Channel& channel = network_->channel(id_, dest);
  if (serialize_messages_) {
    std::vector<uint8_t> bytes;
    Status encoded;
    {
      TraceScope enc(trace_, TracePhase::kEncode, block->count);
      encoded = EncodeBlock(*block, &bytes);
    }
    if (!encoded.ok()) {
      // Plan validation rejects arity > kMaxWireArity up front, so
      // this is defensive. The block is not enqueued; the latched
      // status aborts the run before quiescence is ever declared.
      if (send_status_.ok()) send_status_ = std::move(encoded);
      block->Reset();
      return;
    }
    channel.SendBytes(std::move(bytes), block->count);
  } else {
    channel.SendBlock(std::move(*block));
  }
  block->Reset();
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

void Worker::SendNewRows(Symbol pred, const Relation& out, size_t begin,
                         size_t end) {
  if (begin >= end) return;
  const int arity = out.arity();
  int slot;
  if (pred == last_pred_) {
    slot = last_slot_;
  } else {
    slot = pred_slot_.at(pred);
    last_pred_ = pred;
    last_slot_ = slot;
  }

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
        if (current_log_ != nullptr) ++current_log_->sent_to[dest];
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
  bool has_delta = false;
  for (const auto& [in_sym, old_end] : in_old_end_) {
    if (old_end < local_db_.Find(in_sym)->size()) {
      has_delta = true;
      break;
    }
  }
  if (*got == 0 && !has_delta) return false;
  if (rebalance_ != nullptr) {
    Stopwatch round_watch;
    ProcessRound();
    rebalance_->ReportWindow(
        id_, static_cast<uint64_t>(round_watch.ElapsedSeconds() * 1e9),
        remap_view_.get());
  } else {
    ProcessRound();
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

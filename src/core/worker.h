// One processor of the abstract architecture: evaluates its rewritten
// program Q_i/R_i/T_i with a local semi-naive loop, sending output
// deltas through the channel network and receiving asynchronously
// (Section 3: "processor i does not wait for data from processor j").
#ifndef PDATALOG_CORE_WORKER_H_
#define PDATALOG_CORE_WORKER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/channel.h"
#include "core/partition.h"
#include "core/rebalance.h"
#include "core/rewrite.h"
#include "core/routing.h"
#include "core/termination.h"
#include "eval/seminaive.h"
#include "obs/histogram.h"
#include "storage/database.h"

namespace pdatalog {

class TraceRing;  // obs/trace.h; phase spans for this worker's thread

// Per-round record used by the BSP cost model (core/cost_model.h):
// round 0 is initialization; round k >= 1 is the k-th processing round.
struct RoundLog {
  uint64_t firings = 0;
  uint64_t received = 0;           // messages drained entering this round
  std::vector<uint64_t> sent_to;   // messages enqueued, by destination
};

// Per-worker latency/size distributions, recorded only while tracing
// is enabled (set_trace with a non-null ring) so the default hot path
// pays nothing beyond the existing null checks. All histograms are
// fixed-footprint (obs/histogram.h) and written only by the worker's
// own thread; the engine merges them into the run's MetricsRegistry
// (hist.* entries) after the workers have joined.
struct WorkerProfile {
  Histogram probe_ns;       // semi-naive pass duration, per round
  Histogram insert_ns;      // bulk t_in ingest duration, per block
  Histogram drain_ns;       // channel drain duration, per Step
  Histogram flush_ns;       // end-of-round flush duration
  Histogram idle_ns;        // idle backoff duration, per wait
  Histogram block_tuples;   // tuples per flushed block frame
  Histogram queue_frames;   // frames pending when a drain ran
  Histogram probe_batch;    // surviving keys per batch-kernel probe batch
  Histogram insert_tuples;  // tuples per ingested block (dedup-blind)
};

struct WorkerStats {
  int rounds = 0;
  uint64_t firings = 0;          // successful ground substitutions
  uint64_t out_inserted = 0;     // distinct tuples added to t_out
  uint64_t in_inserted = 0;      // distinct tuples added to t_in
  uint64_t received = 0;         // tuples drained (incl. self-channel)
  uint64_t sent_cross = 0;       // tuples to other processors
  uint64_t sent_self = 0;        // tuples routed to self
  uint64_t broadcasts = 0;       // tuples broadcast for undetermined sends
  uint64_t frames = 0;           // block frames flushed (all destinations)
  uint64_t rows_examined = 0;
  uint64_t batch_fallbacks = 0;  // joins the batch kernel could not cover
};

class Worker {
 public:
  // `fragments` are this worker's base fragments, moved in; replicated
  // base relations are read directly (and concurrently) from `edb`.
  // All pointers must outlive the worker.
  static StatusOr<std::unique_ptr<Worker>> Create(
      const RewriteBundle* bundle, int id, const Database* edb,
      std::unordered_map<int, std::unique_ptr<Relation>> fragments,
      CommNetwork* network, TerminationDetector* detector);

  // Evaluates the initialization rules (those without t_in body atoms)
  // and sends the resulting output delta. Call once before stepping.
  // Fails if an outgoing tuple cannot be encoded.
  Status Init();

  // Drains the incoming channels and, if anything new arrived, runs one
  // semi-naive round over the new t_in delta and sends the new outputs.
  // Returns false when there was nothing to do; a non-OK status (corrupt
  // or malformed incoming message, encode failure) must abort the run —
  // the worker's counters can no longer be trusted.
  StatusOr<bool> Step();

  // Thread body: Init() + Step() until global termination is detected
  // or any worker fails. A local failure is published through
  // TerminationDetector::Abort so peers stop too; the returned status
  // is this worker's own error, or the detector's run status.
  Status RunLoop();

  // Re-sends this worker's unacknowledged outgoing frames (retransmit
  // mode only; see Channel::RetransmitUnacked). Returns frames resent.
  size_t RetransmitUnacked();

  // Serialized (message-passing) mode: encode every outgoing block to
  // bytes and decode on receipt instead of passing TupleBlock objects
  // through shared memory. Set before Init().
  void set_serialize_messages(bool on) { serialize_messages_ = on; }

  // Retransmit mode: the idle loop periodically re-sends unacknowledged
  // frames. The engine must also have called CommNetwork::
  // EnableRetransmit. Set before Init().
  void set_retransmit(bool on) { retransmit_ = on; }

  // Flush threshold for the per-(destination, predicate) send blocks: a
  // block normally flushes at the end of the round, but flushes early
  // once it holds `n` tuples. n == 1 degenerates to one frame per tuple
  // (the old per-tuple protocol). Set before Init().
  void set_block_tuples(int n) { block_tuples_ = n; }

  // Skew-adaptive repartitioning: route and accept through a per-worker
  // RemapView of `coordinator`'s managed function, sync override epochs
  // at every Step and idle poll, and report busy windows after each
  // processing round. Null (the default) disables rebalancing. Set
  // before Init(); must be called after Create() because it rebuilds
  // the router around the view.
  void set_rebalance(RebalanceCoordinator* coordinator);

  // Observability: record phase spans (init/drain/probe/insert/encode/
  // flush/idle) and round instants on `ring`. The ring must be owned by
  // this worker's thread (the engine hands worker i ring i); it is also
  // propagated to the worker's t_in relations so bulk ingests appear as
  // insert spans. Null (the default) disables tracing at the cost of
  // one branch per site. Set before Init().
  void set_trace(TraceRing* ring);

  const WorkerStats& stats() const { return stats_; }
  const WorkerProfile& profile() const { return profile_; }
  const std::vector<RoundLog>& round_logs() const { return round_logs_; }
  const Database& local_db() const { return local_db_; }
  const CompiledProgram& compiled() const { return compiled_; }

  // The worker's t_out relation for original derived predicate `p`.
  const Relation& OutputRelation(Symbol p) const;

 private:
  Worker(const RewriteBundle* bundle, int id, const Database* edb,
         std::unordered_map<int, std::unique_ptr<Relation>> fragments,
         CommNetwork* network, TerminationDetector* detector);

  Status Setup();

  // Appends all pending channel blocks into the t_in relations (bulk
  // ingest via Relation::InsertBlock; no per-tuple objects).
  // Returns the number of tuples drained, or an error when an incoming
  // frame fails to decode or names an unknown predicate.
  StatusOr<size_t> DrainChannels();
  // Ingests one received block into its t_in relation; returns the
  // block's tuple count on success.
  StatusOr<size_t> IngestBlock(const TupleBlock& block, int from);

  // Runs the delta variants of every processing rule over the current
  // t_in deltas, then routes new t_out tuples.
  void ProcessRound();

  // Applies the sending rules to `out`'s freshly derived rows
  // [begin, end): gathers up to 256 rows out of the column store,
  // computes their destinations with one RouteBatch call, and appends
  // each row to its (destination, predicate) accumulation blocks. A
  // block that reaches block_tuples_ flushes immediately; FlushSends()
  // flushes the remainder at the end of the round.
  void SendNewRows(Symbol pred, const Relation& out, size_t begin,
                   size_t end);
  // Ships one accumulated block as a single frame: one CountSend(n),
  // one lock acquisition, one sequence number — shared by the
  // shared-memory, serialized, and retransmit configurations.
  void FlushBlock(int dest, TupleBlock* block);
  void FlushSends();

  void EnsureLocalIndexes();

  const RewriteBundle* bundle_;
  int id_;
  int num_processors_;
  const Database* edb_;
  CommNetwork* network_;
  TerminationDetector* detector_;

  const Program* local_program_;  // bundle_->per_processor[id_]
  CompiledProgram compiled_;

  Database local_db_;  // holds t_out / t_in relations (decorated names)
  // Base fragments keyed by occurrence index (see RewriteBundle).
  std::unordered_map<int, std::unique_ptr<Relation>> fragments_;
  // Resolved data source for every (rule, body atom): local t_in
  // relation, shared EDB relation, or fragment.
  std::vector<std::vector<const Relation*>> body_sources_;

  // Semi-naive watermarks.
  std::unordered_map<Symbol, size_t> in_old_end_;   // by t_in symbol
  std::unordered_map<Symbol, size_t> out_sent_end_; // by t_out symbol

  // Precompiled sending rules (pattern checks + routing positions per
  // predicate; see core/routing.h), built once in Setup().
  TupleRouter router_;
  // Hash-constraint + routing evaluator: the shared registry, or the
  // rebalancer's per-worker view when set_rebalance was called.
  const ConstraintEvaluator* constraint_eval_ = nullptr;
  RebalanceCoordinator* rebalance_ = nullptr;
  std::unique_ptr<RemapView> remap_view_;
  // One buffered inserter per head (t_out) relation: rule firings
  // batch through Relation::InsertBlock instead of one dedup probe
  // per firing. Flushed after every Execute call, before anything
  // reads the relation's size. Built in Setup().
  std::unordered_map<Symbol, BatchInserter> head_inserters_;
  std::vector<int> dests_;              // scratch for SendNewRows
  std::vector<uint32_t> route_offsets_; // per-row dest ranges into dests_
  std::vector<Value> send_rows_;        // row-major gather buffer
  JoinScratch join_scratch_;
  WorkerStats stats_;
  TraceRing* trace_ = nullptr;  // optional per-worker trace ring
  WorkerProfile profile_;       // recorded only when trace_ is set
  std::vector<RoundLog> round_logs_;
  RoundLog* current_log_ = nullptr;  // active during Init/ProcessRound
  uint64_t pending_received_ = 0;    // drained since the last round started
  bool serialize_messages_ = false;
  bool retransmit_ = false;
  int block_tuples_ = 256;  // flush threshold (see set_block_tuples)
  // First send-side failure (encode error); SendTuple runs deep inside
  // the join callbacks, so the error is latched here and surfaced by the
  // next Step()/Init() return.
  Status send_status_;
  std::vector<std::vector<uint8_t>> byte_buffer_;  // scratch for drains
  std::vector<TupleBlock> block_buffer_;           // scratch for drains
  TupleBlock decode_block_;  // reusable decode target (serialized mode)
  // Outgoing accumulation blocks, indexed [dest * num_derived + slot]
  // where slot is the predicate's position in bundle_->derived. Blocks
  // keep their buffer capacity across rounds.
  std::vector<TupleBlock> send_blocks_;
  int num_derived_ = 0;
  std::unordered_map<Symbol, int> pred_slot_;  // derived pred -> slot
  // Memoized slot lookup: derivations arrive predicate-by-predicate, so
  // the previous SendTuple's slot almost always answers the next one.
  Symbol last_pred_ = kInvalidSymbol;
  int last_slot_ = 0;
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_WORKER_H_

// One processor of the abstract architecture: channels, routing and
// termination around one IncrementalEvaluator (eval/incremental.h) that
// runs the rewritten program Q_i/R_i/T_i semi-naively. The worker
// drains received blocks into the evaluator's t_in relations, lets it
// run one round over them, and routes each t_out's new rows through the
// sending rules; receives are asynchronous (Section 3: "processor i
// does not wait for data from processor j").
#ifndef PDATALOG_CORE_WORKER_H_
#define PDATALOG_CORE_WORKER_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/channel.h"
#include "core/partition.h"
#include "core/rebalance.h"
#include "core/rewrite.h"
#include "core/routing.h"
#include "core/termination.h"
#include "eval/incremental.h"
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
  // `rebalance`, when non-null, enables skew-adaptive repartitioning:
  // the worker routes and accepts through a per-worker RemapView of the
  // coordinator's managed function, syncs override epochs at every Step
  // and idle poll, and reports its per-bucket work after each
  // processing round. All pointers must outlive the worker.
  static StatusOr<std::unique_ptr<Worker>> Create(
      const RewriteBundle* bundle, int id, const Database* edb,
      std::unordered_map<int, std::unique_ptr<Relation>> fragments,
      CommNetwork* network, TerminationDetector* detector,
      RebalanceCoordinator* rebalance = nullptr);

  // Runs the evaluator's opening batch, which fires the initialization
  // rules (those without t_in body atoms), and sends the resulting
  // output delta. Call once before stepping. Fails if an outgoing tuple
  // cannot be encoded.
  Status Init();

  // Drains the incoming channels and, if anything arrived, runs one
  // evaluator round over the new t_in delta and sends the new outputs.
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
  // The t_out / t_in relations (decorated names), owned by the evaluator.
  const Database& local_db() const { return eval_->db(); }
  const CompiledProgram& compiled() const { return eval_->compiled(); }

  // The worker's t_out relation for original derived predicate `p`.
  const Relation& OutputRelation(Symbol p) const;

 private:
  Worker(const RewriteBundle* bundle, int id, const Database* edb,
         std::unordered_map<int, std::unique_ptr<Relation>> fragments,
         CommNetwork* network, TerminationDetector* detector,
         RebalanceCoordinator* rebalance);

  Status Setup();

  // Appends all pending channel blocks into the t_in relations (bulk
  // ingest via Relation::InsertBlock; no per-tuple objects).
  // Returns the number of tuples drained, or an error when an incoming
  // frame fails to decode or names an unknown predicate.
  StatusOr<size_t> DrainChannels();
  // Ingests one received block into its t_in relation; returns the
  // block's tuple count on success.
  StatusOr<size_t> IngestBlock(const TupleBlock& block, int from);

  // Opens the log of a new round (round 0 is Init).
  void BeginRoundLog(uint64_t received);
  // Runs one evaluator batch and books it to the current round.
  Status Evaluate();

  // Routes every t_out's rows derived since the last call through the
  // sending rules, then flushes the remaining blocks.
  void SendOutputs();
  // Applies the sending rules to rows [begin, end) of the t_out relation
  // in `slot`: gathers up to 256 rows out of the column store, computes
  // their destinations with one RouteBatch call, and appends each row to
  // its (destination, predicate) accumulation blocks. A block that
  // reaches block_tuples_ flushes immediately; FlushSends() flushes the
  // remainder at the end of the round.
  void SendNewRows(int slot, size_t begin, size_t end);
  // Ships one accumulated block as a single frame: one CountSend(n),
  // one lock acquisition, one sequence number — shared by the
  // shared-memory, serialized, and retransmit configurations.
  void FlushBlock(int dest, TupleBlock* block);
  void FlushSends();

  const RewriteBundle* bundle_;
  int id_;
  int num_processors_;
  const Database* edb_;
  CommNetwork* network_;
  TerminationDetector* detector_;
  RebalanceCoordinator* rebalance_;
  // The rebalancer's per-worker view of the managed function; it checks
  // the hash constraints and drives routing when rebalancing is on.
  std::unique_ptr<RemapView> remap_view_;

  // Local classification of Q_i: t_in predicates are fed by the
  // channels, so the evaluator tracks them as derived.
  ProgramInfo info_;
  // Base fragments keyed by occurrence index (see RewriteBundle), and
  // empty stand-ins for base predicates without facts. Both are bound
  // occurrences of the evaluator.
  std::unordered_map<int, std::unique_ptr<Relation>> fragments_;
  Database empty_bases_;
  std::optional<IncrementalEvaluator> eval_;
  // The evaluator's t_in relations by original predicate: received
  // blocks are appended here and become the next round's delta.
  std::unordered_map<Symbol, Relation*> in_rels_;
  // Per derived predicate, in bundle_->derived order (its "slot"): the
  // evaluator's t_out relation and how much of it has been sent.
  std::vector<const Relation*> out_rels_;
  std::vector<size_t> out_sent_end_;

  // Precompiled sending rules (pattern checks + routing positions per
  // predicate; see core/routing.h), built once in Setup().
  TupleRouter router_;
  std::vector<int> dests_;              // scratch for SendNewRows
  std::vector<uint32_t> route_offsets_; // per-row dest ranges into dests_
  std::vector<Value> send_rows_;        // row-major gather buffer
  WorkerStats stats_;
  TraceRing* trace_ = nullptr;  // optional per-worker trace ring
  WorkerProfile profile_;       // recorded only when trace_ is set
  std::vector<RoundLog> round_logs_;
  bool serialize_messages_ = false;
  bool retransmit_ = false;
  int block_tuples_ = 256;  // flush threshold (see set_block_tuples)
  // First send-side failure (encode error). A block can flush deep
  // inside SendNewRows, so the error is latched here and surfaced by
  // the next Step()/Init() return.
  Status send_status_;
  std::vector<TupleBlock> frame_buffer_;  // scratch for drains
  TupleBlock decode_block_;  // reusable decode target (serialized mode)
  // Outgoing accumulation blocks, indexed [dest * num_derived + slot].
  // Blocks keep their buffer capacity across rounds.
  std::vector<TupleBlock> send_blocks_;
  int num_derived_ = 0;
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_WORKER_H_

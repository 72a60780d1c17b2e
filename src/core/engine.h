// The parallel evaluation engine: given a rewrite bundle and an input
// database, runs the per-processor programs on the abstract architecture
// (worker threads + channel network + termination detection) and pools
// the outputs (Section 3, "Final Pooling").
#ifndef PDATALOG_CORE_ENGINE_H_
#define PDATALOG_CORE_ENGINE_H_

#include <vector>

#include "core/fault.h"
#include "core/rebalance.h"
#include "core/rewrite.h"
#include "core/worker.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdatalog {

class Tracer;  // obs/trace.h

// Selects nothing (channels have one queue); kept for perfbench/common.cc.
enum class TransportKind { kMutex };

struct ParallelOptions {
  // true: one OS thread per processor with asynchronous receives and
  // Mattern termination detection (the paper's execution model).
  // false: deterministic round-robin scheduling of the same workers in
  // the calling thread; used by tests to get reproducible interleavings.
  bool use_threads = true;
  // true: realize the channels by message passing — every tuple is
  // encoded to bytes on send and decoded on receipt (core/wire.h) —
  // instead of moving objects through shared memory. Same results,
  // slightly slower; exists to validate the paper's "either shared
  // memory or message passing" claim.
  bool serialize_messages = false;
  // Deterministic fault injection on the cross-processor channels (see
  // core/fault.h). Corruption faults flip wire bytes and therefore
  // require serialize_messages. With faults enabled and retransmit off,
  // a run whose messages were lost/duplicated fails with a diagnostic
  // Status — never a silently wrong fixpoint.
  FaultSpec faults;
  // At-least-once delivery: senders keep unacknowledged copies of every
  // cross frame and idle workers periodically re-send them; receivers
  // deliver in order exactly once. Makes the fixpoint exact under drop/
  // duplicate/reorder/corrupt/delay faults.
  bool retransmit = false;
  // Selects nothing (channels have one queue); kept for perfbench/common.cc.
  TransportKind transport = TransportKind::kMutex;
  // Flush threshold for the block-oriented wire protocol: each worker
  // accumulates outgoing tuples per (destination, predicate) and ships
  // one frame per block — at the end of the round, or mid-round once a
  // block holds this many tuples. 1 reproduces the per-tuple protocol
  // (one frame per tuple); must be in [1, kMaxBlockTuples].
  int block_tuples = 256;
  // Observability: when set, worker i records phase spans on the
  // tracer's ring i and channel (i, j) records receive-side discard
  // instants on ring j. The tracer must be sized for at least
  // num_processors workers and must outlive the run. Null (the
  // default) disables tracing entirely.
  Tracer* tracer = nullptr;
  // Skew-adaptive repartitioning (core/rebalance.h): off unless
  // rebalance.skew_threshold > 0. Requires a bundle whose sending rules
  // use a determined kUniformHash/kSymmetricHash function and whose
  // base occurrences are all replicated (fragmented bases cannot follow
  // a moved bucket, so RunParallel rejects the combination).
  RebalanceOptions rebalance;
};

struct ParallelResult {
  // Pooled derived relations under their original predicate names. A
  // predicate whose sends partition it (SendsPartition, no rebalancer)
  // is the workers' t_in relations concatenated in worker order, its
  // dedup table unbuilt until first use; any other predicate is the
  // deduplicating merge of the t_outs, first occurrences in worker
  // order.
  Database output;

  std::vector<WorkerStats> workers;
  // worker_rounds[i] = per-round logs of processor i, for the BSP cost
  // model (core/cost_model.h).
  std::vector<std::vector<RoundLog>> worker_rounds;
  // channel_matrix[i][j] = tuples sent from processor i to j.
  std::vector<std::vector<uint64_t>> channel_matrix;
  // bytes_matrix[i][j] = wire bytes sent from processor i to j.
  std::vector<std::vector<uint64_t>> bytes_matrix;
  // frames_matrix[i][j] = block frames sent from processor i to j.
  std::vector<std::vector<uint64_t>> frames_matrix;

  uint64_t total_firings = 0;
  uint64_t cross_tuples = 0;   // inter-processor tuples
  uint64_t cross_bytes = 0;    // inter-processor wire bytes
  uint64_t cross_frames = 0;   // inter-processor block frames
  uint64_t self_tuples = 0;    // tuples sent on own channel (free)
  // Sum over processors of the distinct tuples their rules derived (t_out
  // rows, or t_in rows for a self-routed predicate); exceeds the pooled
  // output size exactly when computation was redundant.
  uint64_t out_tuples_total = 0;
  uint64_t pooled_tuples = 0;
  // Final pooling (Section 3, step 5) "might require communication from
  // all processors to a single processor": tuples and modelled bytes
  // (one per-tuple frame each) to ship every other processor's pooling
  // source (t_in for a partitioned predicate, else t_out; see `output`)
  // to collector 0 (its own tuples stay local). No channel moves them.
  uint64_t pooling_messages = 0;
  uint64_t pooling_bytes = 0;
  // Injected-fault totals summed over all channels (zero when fault
  // injection is off).
  FaultCounters faults;
  // Skew-rebalancer decisions in publish order (empty when off); the
  // totals also appear as rebalance.* metrics.
  std::vector<RebalanceLogEntry> rebalance_log;
  double wall_seconds = 0;

  // Every run-level and per-worker counter above, as named metrics
  // (run.*, worker.N.*, faults.*). This registry is the single source
  // of truth: the scalar fields above are projections of it, so the
  // text report and a --metrics JSON export can never disagree.
  MetricsRegistry metrics;

  // Work-model makespan: max over processors of
  //   firings_i * cpu_cost + (received_cross_i) * net_cost.
  double ModeledMakespan(double cpu_cost, double net_cost) const;
};

// Runs the parallel evaluation. `edb` is mutated only by index creation
// and by materializing empty relations for unused base predicates.
StatusOr<ParallelResult> RunParallel(const RewriteBundle& bundle,
                                     Database* edb,
                                     const ParallelOptions& options = {});

// Stratified parallel evaluation: the program's dependency-graph
// condensation is evaluated bottom-up, one parallel run per stratum
// (Section 7 general scheme within each). Completed strata become
// extensional inputs of later ones, so upper-stratum processors never
// idle through lower-stratum rounds and the per-stratum discriminating
// choices are independent. `rule_specs` follows Program::rules order.
// Returns the pooled outputs of every stratum plus summed statistics
// (worker/channel details are per-stratum internally and aggregated).
StatusOr<ParallelResult> RunParallelStratified(
    const Program& program, const ProgramInfo& info, int num_processors,
    const std::vector<GeneralRuleSpec>& rule_specs, Database* edb,
    const ParallelOptions& options = {});

}  // namespace pdatalog

#endif  // PDATALOG_CORE_ENGINE_H_

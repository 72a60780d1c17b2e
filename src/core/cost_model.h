// BSP-style cost model over the workers' per-round logs: the
// quantitative performance study the paper defers to future work
// (Section 8, "computation cost as opposed to communication cost").
//
// The asynchronous execution is replayed as bulk-synchronous supersteps
// aligned by round index: in superstep k, every processor performs its
// round-k firings and absorbs its round-k receives, then all processors
// barrier. The makespan is
//
//   sum_k ( max_i (firings_{i,k} * cpu + received_{i,k} * net) + latency )
//
// This upper-bounds the asynchronous schedule (which never waits at a
// barrier) while preserving the data dependencies between rounds, and
// lets benches sweep the comm/compute cost ratio to locate the scheme
// crossovers a compiler targeting a concrete architecture would use.
#ifndef PDATALOG_CORE_COST_MODEL_H_
#define PDATALOG_CORE_COST_MODEL_H_

#include <vector>

#include "core/worker.h"

namespace pdatalog {

struct CostParams {
  double cpu_per_firing = 1.0;
  double net_per_message = 1.0;  // applies to cross-processor messages only
  double round_latency = 0.0;    // fixed barrier cost per superstep
};

struct CostBreakdown {
  double makespan = 0.0;
  double compute = 0.0;    // sum over supersteps of the max compute term
  double network = 0.0;    // sum over supersteps of the max network term
  int supersteps = 0;
};

// Worker i's charge in superstep k: its round-k firings times cpu, and
// the cross messages the others sent it in their round k times net.
// `rounds[i]` is worker i's log (rounds[i][k] = its k-th round; missing
// rounds cost nothing); self-channel messages are free. cells[i][k]
// spans every superstep up to the longest log.
struct BspCell {
  double compute = 0.0;
  double network = 0.0;
};
std::vector<std::vector<BspCell>> BspCells(
    const std::vector<std::vector<RoundLog>>& rounds,
    const CostParams& params);

// The makespan over BspCells: each superstep costs its most loaded cell.
CostBreakdown BspCost(const std::vector<std::vector<RoundLog>>& rounds,
                      const CostParams& params);

// Forward-vs-replicate choice for one hot bucket (Section 6's
// redundancy <-> communication trade-off, applied locally by the skew
// rebalancer). Forwarding the bucket to the idlest worker ships roughly
// `bucket_tuples` messages and re-concentrates all of its work there;
// replicating instead (every sender keeps its share of the bucket
// local, kKeepLocalDest) splits the work across the senders and ships
// nothing, at the price of duplicate derivations where senders produce
// the same tuple.
//
// `headroom` is the load gap between the straggler and the idlest
// worker: forwarding improves the makespan only while the bucket fits
// into it (idlest + bucket < straggler). `spread_senders` counts the
// distinct producers of the bucket's tuples EXCLUDING the straggler —
// replication hands each producer its own share, so producers other
// than the straggler are the only ones that relieve it. Replication
// wins when there are at least two of them and either
//
//   * the bucket does not fit the headroom (forwarding would only
//     relocate the straggler), or
//   * the wire beats the redundancy:
//     bucket_tuples * net  >  bucket_tuples * (spread - 1) * cpu.
inline bool PreferReplication(uint64_t bucket_tuples, uint64_t headroom,
                              int spread_senders, double cpu_per_firing,
                              double net_per_message) {
  if (bucket_tuples == 0 || spread_senders < 2) return false;
  if (bucket_tuples > headroom) return true;
  return net_per_message >
         cpu_per_firing * static_cast<double>(spread_senders - 1);
}

}  // namespace pdatalog

#endif  // PDATALOG_CORE_COST_MODEL_H_

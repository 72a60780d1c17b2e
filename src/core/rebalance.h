// Skew-adaptive repartitioning (Section 6 trade-off, made dynamic).
//
// Between semi-naive rounds every worker reports its per-bucket work —
// join firings charged to the bucket plus tuples routed into it — to a
// shared RebalanceCoordinator. When the skew (max/mean) of the firings
// the workers performed crosses a threshold, the coordinator picks the
// hottest discriminating-hash bucket owned by the straggler and
// publishes a bucket override: either forward the bucket to the least
// loaded owner, or — when the cost model says replication beats
// forwarding (Section 6's redundancy point) — keep the bucket local at
// every sender (kKeepLocalDest). Every input is a count, not a clock
// reading, so under a deterministic schedule the decisions repeat
// exactly from run to run.
//
// Overrides are distributed as epochs of a kRemapped overlay
// (DiscriminatingFunction::Remapped) with a two-phase handshake that
// keeps the fixpoint bit-identical with rebalancing on or off:
//
//   publish  — the coordinator appends the override and bumps the
//              published epoch. Workers pick it up in Sync() by widening
//              their *acceptance* set first: a worker accepts tuples for
//              a bucket if it is the base owner, the current override
//              target, or any past target (acceptance is monotone, so a
//              tuple routed under any epoch is accepted wherever it
//              lands; duplicates are absorbed by set semantics).
//   commit   — once every worker has acknowledged the published epoch,
//              the epoch commits and Sync() switches the *routing* side
//              of each worker's RemapView to the new destinations. A
//              worker never routes by an epoch some peer has not yet
//              accepted, so no derivation can be dropped in flight.
//
// The handshake piggybacks on the existing round structure (workers call
// Sync() at the top of every Step and while idling), so Mattern's
// termination counters and the retransmit protocol are untouched: control
// state never rides the counted tuple channels.
#ifndef PDATALOG_CORE_REBALANCE_H_
#define PDATALOG_CORE_REBALANCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/discriminating.h"
#include "obs/analyze.h"

namespace pdatalog {

// Tuning knobs for the coordinator. Disabled unless skew_threshold > 0.
struct RebalanceOptions {
  // Trigger when max / mean of the firings each worker performed since
  // the last decision reaches this. 0 disables rebalancing;
  // enabled values must be >= 1 (a ratio below 1 is impossible).
  double skew_threshold = 0.0;

  // Buckets per processor in the kRemapped overlay. The overlay has
  // buckets_per_processor * num_processors buckets so an unmoved bucket
  // routes exactly where the base hash would.
  uint32_t buckets_per_processor = 32;

  // Ignore buckets with less work than this since the last decision;
  // moving a cold bucket cannot help, and a cold window decides nothing.
  uint64_t min_bucket_tuples = 16;

  // After a bucket moves, leave it alone for this many full report
  // cycles — a cycle is one window from every worker, i.e. roughly one
  // semi-naive round (prevents ping-ponging one ultra-hot bucket
  // between workers).
  int cooldown_windows = 8;

  // Cost-model inputs for the forward-vs-replicate choice (see
  // PreferReplication in core/cost_model.h).
  double cpu_per_firing = 1.0;
  double net_per_message = 1.0;

  bool enabled() const { return skew_threshold > 0.0; }
};

// Per-worker view of the managed discriminating function. Implements
// ConstraintEvaluator so it can stand in for the shared registry at both
// call sites: the router's Evaluate (which also counts tuples per bucket
// for the coordinator) and the join executor's hash-constraint Accepts
// (widened monotonically as epochs publish). All methods — including the
// coordinator's Apply*/count hooks, which run inside Sync/ReportWindow —
// execute on the owning worker's thread only.
class RemapView : public ConstraintEvaluator {
 public:
  RemapView(const DiscriminatingRegistry* base, int function,
            const DiscriminatingFunction& overlay);

  int Evaluate(int function, const Value* values, int n) const override;
  bool Accepts(int function, const Value* values, int n,
               int target) const override;
  void ChargeFiring(int function, const Value* values, int n) const override;

  // --- called by the coordinator on this worker's behalf ---

  uint64_t accept_epoch() const { return accept_epoch_; }
  uint64_t route_epoch() const { return route_epoch_; }

  // Widens acceptance with every override published so far. Monotone: a
  // bucket reassigned a second time escalates to accept-everywhere,
  // which is sound (over-acceptance only re-derives duplicates).
  void ApplyAcceptance(
      const std::vector<std::pair<uint32_t, int32_t>>& overrides,
      uint64_t epoch);

  // Installs the committed prefix of the override list into the routing
  // overlay. `overrides` carries (bucket, dest) in publish order;
  // `count` is the committed prefix length.
  void ApplyRouting(
      const std::vector<std::pair<uint32_t, int32_t>>& overrides,
      size_t count, uint64_t epoch);

  const std::vector<uint64_t>& bucket_counts() const {
    return bucket_counts_;
  }
  const std::vector<uint64_t>& bucket_heat() const { return bucket_heat_; }
  void ResetBucketCounts();

  const DiscriminatingFunction& routing_function() const { return routing_; }

 private:
  const DiscriminatingRegistry* base_;
  int function_;
  DiscriminatingFunction routing_;  // kRemapped; committed overrides only
  std::vector<uint8_t> accept_all_;
  std::vector<int32_t> accept_extra_;  // second accepted owner, -1 = none
  uint64_t accept_epoch_ = 0;
  uint64_t route_epoch_ = 0;
  size_t routed_overrides_ = 0;  // committed prefix already installed
  // Tuples routed per bucket since the last report; written from the
  // router on this worker's thread, read+reset by ReportWindow (also on
  // this worker's thread).
  mutable std::vector<uint64_t> bucket_counts_;
  // Join firings charged per bucket since the last report (via
  // ChargeFiring). This is the heat signal the coordinator ranks buckets
  // by: a hot key's work is deltas x fan-in, which routed counts alone
  // cannot see.
  mutable std::vector<uint64_t> bucket_heat_;
};

// One rebalancing decision, for the profile report and tests.
// (RebalanceLogEntry itself lives in obs/analyze.h so the profiler can
// render it without depending on core.)

// Shared, mutex-guarded decision maker. Passive: workers drive it from
// their own threads via Sync (epoch handshake) and ReportWindow (load
// accounting + decision trigger); the engine reads the totals after the
// run. Never touches the tuple channels, so termination detection and
// retransmit are unaffected.
class RebalanceCoordinator {
 public:
  RebalanceCoordinator(const DiscriminatingRegistry* registry, int function,
                       int num_processors, const RebalanceOptions& options);

  int function() const { return function_; }
  uint32_t num_buckets() const { return num_buckets_; }

  // A fresh per-worker view with no overrides installed.
  std::unique_ptr<RemapView> MakeView(int worker) const;

  // Pulls the worker's view up to date: widens acceptance to the
  // published epoch (acknowledging it), commits the epoch once every
  // worker has acknowledged, and installs committed routing.
  void Sync(int worker, RemapView* view);

  // Reports one processing round: the view's per-bucket firings and
  // routed counts (which are consumed and reset). May trigger a decision
  // and publish a new epoch.
  void ReportWindow(int worker, RemapView* view);

  // --- post-run accessors (call after all workers stopped) ---
  uint64_t moves() const { return moves_; }
  uint64_t replications() const { return replications_; }
  uint64_t epochs() const { return published_epoch_; }
  uint64_t windows() const { return windows_; }
  std::vector<RebalanceLogEntry> TakeLog() { return std::move(log_); }

 private:
  void TryDecide();  // caller holds mu_

  const DiscriminatingRegistry* registry_;
  const int function_;
  const int num_processors_;
  const RebalanceOptions options_;
  uint32_t num_buckets_;

  mutable std::mutex mu_;
  uint64_t published_epoch_ = 0;
  uint64_t committed_epoch_ = 0;
  // Override list in publish order; entry i was published by epoch i+1.
  std::vector<std::pair<uint32_t, int32_t>> overrides_;
  std::vector<uint64_t> acks_;  // per worker: highest acknowledged epoch

  // Accumulators since the last decision. A decision is only considered
  // once every worker has reported at least one window since the last
  // reset — a partial cycle would compare one worker's firings against
  // a mean diluted by workers that have not reported yet and read as
  // enormous skew.
  std::vector<uint32_t> window_reports_;  // per worker, since last reset
  std::vector<uint64_t> fired_;  // per worker: firings in managed buckets
  std::vector<uint64_t> counts_;       // per bucket
  std::vector<uint8_t> sender_seen_;   // bucket * P + worker
  std::vector<int32_t> owner_;         // per bucket; kKeepLocalDest = replicated
  std::vector<uint64_t> cooldown_until_;  // per bucket, in windows
  uint64_t windows_ = 0;

  uint64_t moves_ = 0;
  uint64_t replications_ = 0;
  std::vector<RebalanceLogEntry> log_;
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_REBALANCE_H_

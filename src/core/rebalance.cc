#include "core/rebalance.h"

#include <algorithm>
#include <cassert>

#include "core/cost_model.h"

namespace pdatalog {

// --- RemapView ---

RemapView::RemapView(const DiscriminatingRegistry* base, int function,
                     const DiscriminatingFunction& overlay)
    : base_(base), function_(function), routing_(overlay) {
  assert(routing_.kind == DiscriminatingFunction::Kind::kRemapped);
  accept_all_.assign(routing_.num_buckets, 0);
  accept_extra_.assign(routing_.num_buckets, -1);
  bucket_counts_.assign(routing_.num_buckets, 0);
  bucket_heat_.assign(routing_.num_buckets, 0);
}

int RemapView::Evaluate(int function, const Value* values, int n) const {
  if (function != function_) return base_->Evaluate(function, values, n);
  uint32_t bucket = routing_.BucketOf(values, n);
  ++bucket_counts_[bucket];
  auto it = routing_.bucket_overrides.find(bucket);
  if (it == routing_.bucket_overrides.end()) {
    return static_cast<int>(bucket %
                            static_cast<uint32_t>(routing_.num_processors));
  }
  return it->second == DiscriminatingFunction::kKeepLocalDest
             ? routing_.constant
             : it->second;
}

bool RemapView::Accepts(int function, const Value* values, int n,
                        int target) const {
  if (function != function_) {
    return base_->Evaluate(function, values, n) == target;
  }
  uint32_t bucket = routing_.BucketOf(values, n);
  if (accept_all_[bucket]) return true;
  if (static_cast<int>(bucket % static_cast<uint32_t>(
                                    routing_.num_processors)) == target) {
    return true;
  }
  return accept_extra_[bucket] == target;
}

void RemapView::ChargeFiring(int function, const Value* values,
                             int n) const {
  if (function != function_) return;
  ++bucket_heat_[routing_.BucketOf(values, n)];
}

void RemapView::ApplyAcceptance(
    const std::vector<std::pair<uint32_t, int32_t>>& overrides,
    uint64_t epoch) {
  for (const auto& [bucket, dest] : overrides) {
    if (accept_all_[bucket]) continue;
    if (dest == DiscriminatingFunction::kKeepLocalDest) {
      // Replicated: every worker may keep the bucket's tuples.
      accept_all_[bucket] = 1;
      continue;
    }
    int base_owner = static_cast<int>(
        bucket % static_cast<uint32_t>(routing_.num_processors));
    if (dest == base_owner) continue;
    if (accept_extra_[bucket] < 0 || accept_extra_[bucket] == dest) {
      accept_extra_[bucket] = dest;
    } else {
      // Third distinct owner: widen to accept-everywhere rather than
      // track the full history. Sound — spurious acceptance only
      // re-derives tuples the set semantics absorb.
      accept_all_[bucket] = 1;
    }
  }
  accept_epoch_ = epoch;
}

void RemapView::ApplyRouting(
    const std::vector<std::pair<uint32_t, int32_t>>& overrides, size_t count,
    uint64_t epoch) {
  assert(count <= overrides.size());
  for (size_t i = routed_overrides_; i < count; ++i) {
    routing_.bucket_overrides[overrides[i].first] = overrides[i].second;
  }
  routed_overrides_ = count;
  route_epoch_ = epoch;
}

void RemapView::ResetBucketCounts() {
  std::fill(bucket_counts_.begin(), bucket_counts_.end(), 0);
  std::fill(bucket_heat_.begin(), bucket_heat_.end(), 0);
}

// --- RebalanceCoordinator ---

RebalanceCoordinator::RebalanceCoordinator(
    const DiscriminatingRegistry* registry, int function, int num_processors,
    const RebalanceOptions& options)
    : registry_(registry),
      function_(function),
      num_processors_(num_processors),
      options_(options) {
  num_buckets_ = options_.buckets_per_processor *
                 static_cast<uint32_t>(num_processors_);
  acks_.assign(num_processors_, 0);
  window_reports_.assign(num_processors_, 0);
  fired_.assign(num_processors_, 0);
  counts_.assign(num_buckets_, 0);
  sender_seen_.assign(static_cast<size_t>(num_buckets_) * num_processors_, 0);
  owner_.resize(num_buckets_);
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    owner_[b] = static_cast<int32_t>(
        b % static_cast<uint32_t>(num_processors_));
  }
  cooldown_until_.assign(num_buckets_, 0);
}

std::unique_ptr<RemapView> RebalanceCoordinator::MakeView(int worker) const {
  DiscriminatingFunction overlay = DiscriminatingFunction::Remapped(
      registry_->function(function_), num_buckets_, worker);
  return std::make_unique<RemapView>(registry_, function_, overlay);
}

void RebalanceCoordinator::Sync(int worker, RemapView* view) {
  std::lock_guard<std::mutex> lock(mu_);
  if (view->accept_epoch() < published_epoch_) {
    view->ApplyAcceptance(overrides_, published_epoch_);
  }
  if (acks_[worker] < published_epoch_) {
    acks_[worker] = published_epoch_;
    uint64_t min_ack = *std::min_element(acks_.begin(), acks_.end());
    if (min_ack > committed_epoch_) committed_epoch_ = min_ack;
  }
  if (view->route_epoch() < committed_epoch_) {
    // Entry i of the override list was published by epoch i+1, so the
    // committed prefix has exactly committed_epoch_ entries.
    view->ApplyRouting(overrides_,
                       static_cast<size_t>(committed_epoch_),
                       committed_epoch_);
  }
}

void RebalanceCoordinator::ReportWindow(int worker, RemapView* view) {
  std::lock_guard<std::mutex> lock(mu_);
  ++window_reports_[worker];
  const std::vector<uint64_t>& routed = view->bucket_counts();
  const std::vector<uint64_t>& heat = view->bucket_heat();
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    if (routed[b] != 0) {
      // Routing a bucket's tuples marks this worker as one of its
      // senders (the cost model's replication input).
      sender_seen_[static_cast<size_t>(b) * num_processors_ + worker] = 1;
    }
    // Rank buckets by firings first (where the join work actually
    // happened; deltas times fan-in), with routed tuples as the
    // tiebreaker so never-fired buckets still register.
    counts_[b] += heat[b] + routed[b];
    fired_[worker] += heat[b];
  }
  view->ResetBucketCounts();
  ++windows_;
  TryDecide();
}

void RebalanceCoordinator::TryDecide() {
  // The straggler is the worker that performed the most firings. Counts
  // of work done, not busy time, so the same schedule makes the same
  // decisions; and counts the worker reported itself, not its buckets'
  // totals, since a moved bucket's in-flight tuples still fire at the
  // old owner until the new routing epoch commits.
  uint64_t total = 0;
  int straggler = 0;
  for (int i = 0; i < num_processors_; ++i) {
    // Never compare a partial cycle: a worker that has not reported
    // since the last reset dilutes the mean and fakes a huge skew.
    if (window_reports_[i] == 0) return;
    total += fired_[i];
    if (fired_[i] > fired_[straggler]) straggler = i;
  }
  if (total == 0) return;
  double mean =
      static_cast<double>(total) / static_cast<double>(num_processors_);
  double skew = static_cast<double>(fired_[straggler]) / mean;
  if (skew < options_.skew_threshold) return;

  // Hottest bucket still owned by the straggler and past its cooldown.
  int best = -1;
  uint64_t best_count = 0;
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    if (owner_[b] != straggler) continue;
    if (windows_ < cooldown_until_[b]) continue;
    if (counts_[b] > best_count) {
      best = static_cast<int>(b);
      best_count = counts_[b];
    }
  }
  if (best < 0 || best_count < options_.min_bucket_tuples) return;

  // Producers of the bucket's tuples, minus the straggler itself:
  // replication hands each producer its own share, so only the others
  // can relieve the straggler.
  int spread_senders = 0;
  const uint8_t* row =
      sender_seen_.data() + static_cast<size_t>(best) * num_processors_;
  for (int i = 0; i < num_processors_; ++i) {
    if (row[i] != 0 && i != straggler) ++spread_senders;
  }

  // Attribute the window's bucket weights to their owners to find the
  // forwarding target (least-loaded worker) and the headroom a forward
  // can actually exploit: the weights are exactly the firings + routed
  // tuples the move would reassign.
  std::vector<uint64_t> weight(static_cast<size_t>(num_processors_), 0);
  for (uint32_t b = 0; b < num_buckets_; ++b) {
    if (owner_[b] >= 0) weight[static_cast<size_t>(owner_[b])] += counts_[b];
  }
  int target = 0;
  for (int i = 0; i < num_processors_; ++i) {
    if (weight[i] < weight[target]) target = i;
  }
  uint64_t headroom = weight[straggler] - weight[target];

  int dest;
  if (PreferReplication(best_count, headroom, spread_senders,
                        options_.cpu_per_firing, options_.net_per_message)) {
    dest = DiscriminatingFunction::kKeepLocalDest;
    owner_[best] = DiscriminatingFunction::kKeepLocalDest;
    ++replications_;
  } else {
    if (target == straggler) return;  // everyone equally loaded
    dest = target;
    owner_[best] = target;
    ++moves_;
  }
  // Cooldown in full report cycles: windows_ advances once per worker
  // per round, so one cycle is num_processors_ windows.
  cooldown_until_[best] =
      windows_ + static_cast<uint64_t>(options_.cooldown_windows) *
                     static_cast<uint64_t>(num_processors_);

  ++published_epoch_;
  overrides_.emplace_back(static_cast<uint32_t>(best),
                          static_cast<int32_t>(dest));
  RebalanceLogEntry entry;
  entry.window = windows_;
  entry.function = function_;
  entry.bucket = static_cast<uint32_t>(best);
  entry.from = straggler;
  entry.to = dest;
  entry.tuples = best_count;
  entry.skew = skew;
  log_.push_back(entry);

  // Start the next observation window from scratch so later decisions
  // reflect the post-move distribution, not stale history.
  std::fill(window_reports_.begin(), window_reports_.end(), 0);
  std::fill(fired_.begin(), fired_.end(), 0);
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(sender_seen_.begin(), sender_seen_.end(), 0);
}

}  // namespace pdatalog

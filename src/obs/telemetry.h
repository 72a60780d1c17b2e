// Live-serving telemetry primitives: sliding-window histograms, bounded
// rings of timestamped metric samples and slow-query records, health
// verdicts, and the Prometheus text exposition renderer.
//
// PR 4/5 built *batch-run* observability: one MetricsRegistry absorbed
// after the workers join, lifetime histograms, a post-run analyzer.
// A resident engine (src/server/) needs the continuous versions of the
// same ideas — after an hour of uptime a lifetime p99 says nothing
// about the last ten seconds, and nothing pull-based can expose
// maintenance lag or queue depth *between* requests. Everything here is
// engine-agnostic and lock-free in itself; callers provide the
// synchronization (the server engine guards these structures with its
// dedicated stats lock, off the snapshot/queue mutex, so a telemetry
// poller can never stall queries or the maintenance thread).
#ifndef PDATALOG_OBS_TELEMETRY_H_
#define PDATALOG_OBS_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"

namespace pdatalog {

// A sliding-window latency distribution: N rotating log2 `Histogram`
// buckets plus an untouched lifetime histogram. Record() lands in the
// current bucket and the lifetime; Rotate() — driven by the owner's
// sampler clock, never by a clock in here, so tests are deterministic —
// advances to the next bucket and clears what it finds there. The
// window readout merges all N buckets, so it covers the last
// N × (rotation interval) of traffic and old samples age out one
// rotation at a time. Externally synchronized, like `Histogram`.
class WindowedHistogram {
 public:
  static constexpr int kDefaultBuckets = 20;

  explicit WindowedHistogram(int num_buckets = kDefaultBuckets)
      : buckets_(static_cast<size_t>(num_buckets < 1 ? 1 : num_buckets)) {}

  void Record(uint64_t value) {
    buckets_[current_].Record(value);
    lifetime_.Record(value);
  }

  // Advances the window one bucket, dropping that bucket's previous
  // contents. After num_buckets() rotations with no Record() calls the
  // window reads empty while the lifetime keeps everything.
  void Rotate() {
    current_ = (current_ + 1) % buckets_.size();
    buckets_[current_] = Histogram();
    ++rotations_;
  }

  // The merged sliding window. Empty-window percentiles are zero-safe
  // (Histogram::Percentile returns 0 for an empty distribution).
  Histogram WindowMerged() const {
    Histogram merged;
    for (const Histogram& h : buckets_) merged.Merge(h);
    return merged;
  }

  const Histogram& lifetime() const { return lifetime_; }
  uint64_t rotations() const { return rotations_; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }

 private:
  std::vector<Histogram> buckets_;
  Histogram lifetime_;
  size_t current_ = 0;
  uint64_t rotations_ = 0;
};

// One slow query, captured at completion time. The atom is rendered at
// capture (the only path that touches the symbol lock, and only for
// queries already past the slowness threshold).
struct SlowQueryRecord {
  uint64_t ticks = 0;        // completion time, steady-clock ns
  uint64_t latency_ns = 0;
  uint64_t epoch = 0;        // snapshot the query ran against
  double snapshot_age_ms = 0;  // staleness of that snapshot at query time
  uint64_t scan_rows = 0;    // rows the matcher examined (index hits
                             // plus unindexed tail rows)
  uint64_t result_rows = 0;
  std::string atom;          // rendered query atom, e.g. anc(n3, X)
};

// Bounded ring of the most recent slow queries: drop-oldest (unlike the
// trace rings — the *latest* slow queries are the ones an operator
// asks for), with a lifetime total so drops are visible. Externally
// synchronized.
class SlowQueryRing {
 public:
  explicit SlowQueryRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Add(SlowQueryRecord record) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      ring_[next_] = std::move(record);
      next_ = (next_ + 1) % capacity_;
    }
    ++total_;
  }

  // Oldest-first copy of the retained records.
  std::vector<SlowQueryRecord> Snapshot() const {
    std::vector<SlowQueryRecord> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  uint64_t total() const { return total_; }
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  size_t next_ = 0;  // overwrite cursor once full == oldest entry
  uint64_t total_ = 0;
  std::vector<SlowQueryRecord> ring_;
};

// One timestamped point-in-time view of the registry: counters,
// gauges, and merged histograms (lifetime and windowed). Published as
// shared_ptr-to-const so endpoint threads read without copying.
struct TelemetrySample {
  uint64_t ticks = 0;  // capture time, steady-clock ns
  MetricsRegistry metrics;
};

// Bounded in-memory history of samples, oldest dropped first. The
// sampler thread appends; rate gauges (window qps, update rate) come
// from the spread between the newest sample and the oldest one still
// inside the window. Externally synchronized.
class SampleRing {
 public:
  explicit SampleRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Add(std::shared_ptr<const TelemetrySample> sample) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(sample));
    } else {
      ring_[next_] = std::move(sample);
      next_ = (next_ + 1) % capacity_;
    }
  }

  std::shared_ptr<const TelemetrySample> latest() const {
    if (ring_.empty()) return nullptr;
    size_t newest = ring_.size() < capacity_
                        ? ring_.size() - 1
                        : (next_ + capacity_ - 1) % capacity_;
    return ring_[newest];
  }

  // The oldest retained sample not older than `window_ns` before `now`
  // (nullptr when none qualifies). Rate computations divide counter
  // deltas by the tick spread between this and the newest sample.
  std::shared_ptr<const TelemetrySample> OldestWithin(
      uint64_t now, uint64_t window_ns) const {
    for (size_t i = 0; i < ring_.size(); ++i) {
      const auto& s = ring_[ring_.size() < capacity_
                                ? i
                                : (next_ + i) % capacity_];
      if (s != nullptr && now - s->ticks <= window_ns) return s;
    }
    return nullptr;
  }

  // Oldest-first copy.
  std::vector<std::shared_ptr<const TelemetrySample>> Snapshot() const {
    std::vector<std::shared_ptr<const TelemetrySample>> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[ring_.size() < capacity_
                              ? i
                              : (next_ + i) % capacity_]);
    }
    return out;
  }

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<std::shared_ptr<const TelemetrySample>> ring_;
};

// --- health ----------------------------------------------------------

// Lag/queue ceilings that separate "ok" from "degraded". Zero disables
// a check (a serve process with no updates has lag 0 forever; a
// threshold of 0 must not read that as degraded).
struct HealthThresholds {
  uint64_t max_queue_depth = 4096;  // pending update facts
  double max_lag_ms = 5000;         // age of the oldest queued update
};

struct HealthVerdict {
  bool ok = true;
  std::vector<std::string> reasons;  // empty when ok

  // "ok" or "degraded (reason; reason)".
  std::string ToString() const;
};

// Pure threshold evaluation, shared by `!health`, `/health`, and the
// watch line. `queue_depth` is the pending update count; `lag_ms` the
// age of the oldest pending update (0 when the queue is empty).
HealthVerdict EvaluateHealth(uint64_t queue_depth, double lag_ms,
                             const HealthThresholds& thresholds);

// --- Prometheus text exposition --------------------------------------

// Maps a registry name to a valid Prometheus metric name: prefixed
// "pdatalog_", dots and any other illegal characters become
// underscores ("serve.queue_depth" -> "pdatalog_serve_queue_depth").
std::string SanitizeMetricName(std::string_view name);

// Escapes a label value per the text format: backslash, double quote,
// and newline.
std::string EscapeLabelValue(std::string_view value);

// Renders the registry in the Prometheus text exposition format
// (version 0.0.4): counters as `<name>_total` with `# TYPE ... counter`,
// gauges as-is, histograms as cumulative `_bucket{le="..."}` series
// (log2 upper bounds, `+Inf` last) with `_sum`/`_count`. Slow-query
// records, when given, are appended as a bounded labeled gauge family
// (`pdatalog_slow_query_latency_ms{slot=...,atom=...,epoch=...}`) —
// the ring caps the label cardinality. The output parses back with
// tools/check_exposition.py (CI runs it against a live scrape).
std::string ExpositionText(const MetricsRegistry& metrics,
                           const std::vector<SlowQueryRecord>& slow = {});

}  // namespace pdatalog

#endif  // PDATALOG_OBS_TELEMETRY_H_

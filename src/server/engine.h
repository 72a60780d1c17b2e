// The resident serving engine: load a program once, materialize its
// fixpoint, then serve interleaved point queries and streaming base-fact
// updates until shutdown.
//
// Threading model (docs/architecture.md, "Serving mode"):
//
//   * One *maintenance thread*, owned by the engine, is the only writer
//     of the database. It drains the update queue in batches, absorbs
//     the facts through the incremental evaluator (eval/incremental.h),
//     resumes the fixpoint, and publishes a fresh snapshot.
//
//   * Any number of *reader threads* call Query()/QueryText(). A query
//     pins the current `ServerSnapshot` (a shared_ptr swap under the
//     engine mutex — the only engine-mutex touch it makes) and then,
//     wait-free, probes the column indexes the maintenance thread
//     froze with that epoch and scans only the rows appended after
//     them. Chunks never relocate, rows below the freeze point never
//     mutate, and a published index is immutable, so readers race with
//     nothing and never build anything. The mutex release/acquire on
//     publication orders the maintenance thread's row and index writes
//     before any reader's loads.
//
//   * One *telemetry sampler thread* (when enabled) periodically
//     rotates the sliding-window histograms and publishes a timestamped
//     snapshot of the metrics registry plus live gauges (queue depth,
//     snapshot age, maintenance lag, window qps) into a bounded sample
//     ring. Telemetry state lives under its own `stats_mu_`, never the
//     engine mutex: a `/metrics` scrape, `!stats`, or `!watch` poller
//     copies counters off the hot lock and can never stall queries or
//     the maintenance thread (the engine mutex is only touched for a
//     handful of scalar loads).
//
//   * The symbol table is not thread-safe; every operation that interns
//     or renders names (parsing queries and facts, rendering results,
//     saving snapshots, rendering slow-query atoms) serializes on
//     `symbols_mu_`. The fixpoint itself never interns, so maintenance
//     and scans stay off that lock.
//
// Updates are asynchronous: SubmitFact* enqueues and returns. Flush()
// blocks until everything submitted so far is reflected in the
// published snapshot — the read-your-writes barrier the tests and the
// `!flush` protocol verb use.
#ifndef PDATALOG_SERVER_ENGINE_H_
#define PDATALOG_SERVER_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datalog/ast.h"
#include "datalog/query.h"
#include "datalog/symbol_table.h"
#include "datalog/validate.h"
#include "eval/incremental.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "storage/snapshot.h"
#include "util/status.h"

namespace pdatalog {

struct ServerOptions {
  // Maximum facts absorbed per maintenance cycle. Larger batches
  // amortize the fixpoint resume; smaller ones bound staleness.
  size_t max_batch = 256;
  // Record kApply/kMaintain spans on the maintenance ring and kQuery
  // spans on the engine ring.
  bool trace = false;
  size_t trace_ring_capacity = kDefaultTraceRingCapacity;

  // --- live telemetry ------------------------------------------------
  // Sampler period; every tick rotates the sliding windows and appends
  // one timestamped registry snapshot to the sample ring. 0 disables
  // the sampler thread (windows then only advance via SampleNow
  // callers, and window percentiles degrade toward lifetime ones).
  int sample_interval_ms = 500;
  // Sliding-window width in sampler intervals: the windowed p50/p95/p99
  // cover the last window_intervals × sample_interval_ms of traffic.
  int window_intervals = 20;
  // Bounded in-memory history of telemetry samples.
  size_t sample_ring = 256;
  // Queries at or above this latency are captured in the slow-query
  // ring (rendered atom, epoch, snapshot age, scan rows, latency) and
  // marked in the Chrome trace. 0 disables slow-query tracing.
  double slow_query_ms = 0;
  // Most-recent slow queries retained (drop-oldest).
  size_t slow_ring = 64;
  // `!health` / `/health` ceilings (obs/telemetry.h).
  HealthThresholds health;
};

// What readers pin: an epoch-stamped frozen view of the fixpoint.
// Epoch 1 is the initial materialization; every published update batch
// increments it. Immutable after publication.
struct ServerSnapshot {
  uint64_t epoch = 0;
  // Publication time (steady-clock ns); serve.snapshot_age_ms measures
  // staleness against it.
  uint64_t publish_ticks = 0;
  DatabaseView view;
};

class ServerEngine {
 public:
  // Parses and validates `source`, materializes the initial fixpoint
  // (program facts included), publishes snapshot epoch 1, and starts
  // the maintenance thread. The engine is heap-allocated and pinned:
  // the program and evaluator hold pointers into it.
  static StatusOr<std::unique_ptr<ServerEngine>> Create(
      std::string_view source, const ServerOptions& options = {});

  ~ServerEngine();
  ServerEngine(const ServerEngine&) = delete;
  ServerEngine& operator=(const ServerEngine&) = delete;

  // --- Read path (any thread) --------------------------------------

  // The snapshot readers currently see.
  std::shared_ptr<const ServerSnapshot> snapshot() const;

  // Interns and parses a query atom (serializes on the symbol lock).
  StatusOr<ParsedQuery> Parse(std::string_view query_text);

  // Answers `query` against the current snapshot. Wait-free after the
  // snapshot pin and the stats-lock metric touch; never blocks on the
  // maintenance thread's evaluation.
  StatusOr<QueryResult> Query(const ParsedQuery& query);

  // Parse + Query.
  StatusOr<QueryResult> QueryText(std::string_view query_text);

  // Renders a result's bindings ("X = alice, Y = bob" lines) under the
  // symbol lock.
  std::string Render(const QueryResult& result) const;

  // --- Write path (any thread; absorbed asynchronously) -------------

  // Validates and enqueues one base fact. `fact_text` is a ground atom
  // such as "par(alice, bob)." (trailing '.' optional). Errors —
  // unknown or derived predicate, arity mismatch, non-ground atom —
  // are reported here, synchronously; enqueued facts cannot fail.
  Status SubmitFactText(std::string_view fact_text);
  Status SubmitFact(Symbol predicate, Tuple tuple);

  // Blocks until every fact submitted before the call is reflected in
  // the published snapshot; returns that snapshot's epoch. The wait is
  // recorded in hist.flush_wait_ns / the serve.flush_wait_ms gauge.
  uint64_t Flush();

  // --- Introspection -------------------------------------------------

  uint64_t epoch() const;

  // Saves the *current snapshot* (not the moving fixpoint) to
  // `directory` via storage/snapshot. Returns relations written.
  StatusOr<size_t> SaveSnapshot(const std::string& directory);

  // Human-readable `!stats` report: epoch, row counts, serve counters,
  // health, the latency percentile table (lifetime + windowed), and the
  // slow-query ring.
  std::string StatsReport();

  // Point-in-time copy of the serve metrics: counters, live gauges
  // (serve.queue_depth, serve.snapshot_age_ms, serve.maintain_lag_ms,
  // serve.window_qps, ...), and histograms — lifetime (hist.query_ns,
  // hist.update_batch_ns, hist.flush_wait_ns) plus sliding-window
  // variants (hist.query_window_ns, hist.update_batch_window_ns).
  MetricsRegistry MetricsCopy();

  // Captures a fresh telemetry sample (counters copied under the stats
  // lock, scalar gauges read under the engine mutex, histograms merged
  // outside any lock) and appends it to the sample ring. Does not
  // rotate the windows — only the sampler thread's clock does that.
  std::shared_ptr<const TelemetrySample> SampleNow();

  // The sampler's most recent published sample (nullptr before the
  // first tick); reading it takes no engine or stats lock.
  std::shared_ptr<const TelemetrySample> latest_sample() const;

  // Oldest-first copy of the bounded sample history.
  std::vector<std::shared_ptr<const TelemetrySample>> SamplesCopy() const;

  // Oldest-first copy of the retained slow queries.
  std::vector<SlowQueryRecord> SlowQueries() const;

  // Current health verdict against ServerOptions::health: queue depth
  // and the age of the oldest pending update.
  HealthVerdict Health() const;

  // Fresh sample + slow-query ring rendered in the Prometheus text
  // exposition format (the `/metrics` body).
  std::string ExpositionText();

  // One compact stats line for `!watch`: epoch, queue depth, lag,
  // snapshot age, window qps/update rate and percentiles, health.
  std::string WatchLine();

  const ProgramInfo& info() const { return info_; }
  const Program& program() const { return program_; }
  const ServerOptions& options() const { return options_; }

  // Null unless ServerOptions::trace. Ring 0 belongs to the maintenance
  // thread; the engine ring carries query spans.
  Tracer* tracer() { return tracer_.get(); }

  // Stops the maintenance and sampler threads after the queue drains.
  // Idempotent; not thread-safe (call from one thread — the destructor
  // calls it).
  void Shutdown();

 private:
  struct PendingFact {
    Symbol predicate;
    Tuple tuple;
    uint64_t enqueue_ticks = 0;  // for serve.maintain_lag_ms
  };

  explicit ServerEngine(const ServerOptions& options);

  void MaintenanceLoop();
  void TelemetryLoop();
  // `rotate` advances the sliding windows (sampler thread only).
  std::shared_ptr<const TelemetrySample> Sample(bool rotate);
  void RecordQuery(const ParsedQuery& query,
                   const std::shared_ptr<const ServerSnapshot>& snapshot,
                   uint64_t begin_ticks, uint64_t end_ticks, bool ok,
                   size_t rows, size_t rows_examined);

  const ServerOptions options_;
  const uint64_t slow_query_ns_;  // 0 = slow-query tracing off

  // Immutable after Create (the evaluator and program point into the
  // engine, which never moves).
  SymbolTable symbols_;
  Program program_;
  ProgramInfo info_;
  std::optional<IncrementalEvaluator> eval_;
  std::unique_ptr<Tracer> tracer_;

  // Serializes symbol interning and name rendering.
  mutable std::mutex symbols_mu_;

  // The *engine mutex*: guards the update queue, the published snapshot
  // pointer, and the epoch/submitted/applied counters. Never held
  // across an evaluation, a scan, or a histogram merge — and since the
  // telemetry split, never taken by metric recording at all.
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    // maintenance waits for work
  std::condition_variable applied_cv_;  // Flush waits for absorption
  std::deque<PendingFact> queue_;
  std::shared_ptr<const ServerSnapshot> snapshot_;
  uint64_t epoch_ = 0;
  uint64_t submitted_ = 0;  // facts ever enqueued
  uint64_t applied_ = 0;    // facts reflected in snapshot_
  bool stop_ = false;

  // The *stats lock*: guards every telemetry structure below plus
  // engine-ring trace appends (readers share that ring; serializing
  // the appends preserves its single-writer contract). Held only for
  // bounded copies and O(1) records — never for merges, rendering, or
  // anything that could back-pressure the hot paths.
  mutable std::mutex stats_mu_;
  MetricsRegistry metrics_;
  Histogram flush_hist_;    // hist.flush_wait_ns
  // Windows export hist.query_window_ns / hist.update_batch_window_ns;
  // their lifetimes export hist.query_ns / hist.update_batch_ns.
  WindowedHistogram query_window_;
  WindowedHistogram update_window_;  // maintenance batches
  SlowQueryRing slow_queries_;

  // Sample history + latest published sample (tiny critical sections;
  // endpoint readers touch only this lock).
  mutable std::mutex samples_mu_;
  SampleRing samples_;
  std::shared_ptr<const TelemetrySample> latest_sample_;

  // Sampler thread parking.
  std::mutex telemetry_mu_;
  std::condition_variable telemetry_cv_;
  bool telemetry_stop_ = false;

  std::thread maintenance_;
  std::thread telemetry_;
};

}  // namespace pdatalog

#endif  // PDATALOG_SERVER_ENGINE_H_

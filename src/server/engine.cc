#include "server/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "core/report.h"
#include "datalog/parser.h"
#include "util/table.h"

namespace pdatalog {
namespace {

Tuple TupleFromGroundAtom(const Atom& atom) {
  std::vector<Value> values;
  values.reserve(atom.args.size());
  for (const Term& term : atom.args) values.push_back(term.sym);
  return Tuple(values.data(), static_cast<int>(values.size()));
}

std::string MsCell(double ms) { return TextTable::Cell(ms, 2); }

}  // namespace

ServerEngine::ServerEngine(const ServerOptions& options)
    : options_(options),
      slow_query_ns_(options.slow_query_ms <= 0
                         ? 0
                         : static_cast<uint64_t>(options.slow_query_ms *
                                                 1e6)),
      query_window_(options.window_intervals),
      update_window_(options.window_intervals),
      slow_queries_(options.slow_ring),
      samples_(options.sample_ring) {}

StatusOr<std::unique_ptr<ServerEngine>> ServerEngine::Create(
    std::string_view source, const ServerOptions& options) {
  if (options.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be positive");
  }
  if (options.sample_interval_ms < 0) {
    return Status::InvalidArgument("sample_interval_ms must be >= 0");
  }
  if (options.window_intervals < 1) {
    return Status::InvalidArgument("window_intervals must be >= 1");
  }
  if (options.slow_query_ms < 0) {
    return Status::InvalidArgument("slow_query_ms must be >= 0");
  }
  std::unique_ptr<ServerEngine> engine(new ServerEngine(options));

  StatusOr<Program> program = ParseProgram(source, &engine->symbols_);
  if (!program.ok()) return program.status();
  engine->program_ = std::move(*program);
  PDATALOG_RETURN_IF_ERROR(Validate(engine->program_, &engine->info_));

  // Start-up is a one-shot evaluation: the program's own facts are the
  // evaluator's first batch, exactly as in SemiNaiveEvaluate.
  Database facts;
  PDATALOG_RETURN_IF_ERROR(facts.LoadFacts(engine->program_));
  StatusOr<IncrementalEvaluator> eval = IncrementalEvaluator::Create(
      engine->program_, engine->info_, {}, std::move(facts));
  if (!eval.ok()) return eval.status();
  engine->eval_.emplace(std::move(*eval));
  StatusOr<EvalStats> stats = engine->eval_->Evaluate();
  if (!stats.ok()) return stats.status();

  auto snapshot = std::make_shared<ServerSnapshot>();
  snapshot->epoch = 1;
  snapshot->publish_ticks = TraceRing::NowTicks();
  snapshot->view = DatabaseView::Freeze(engine->eval_->db());
  engine->snapshot_ = std::move(snapshot);
  engine->epoch_ = 1;

  if (options.trace) {
    engine->tracer_ =
        std::make_unique<Tracer>(1, options.trace_ring_capacity);
  }
  engine->maintenance_ = std::thread(&ServerEngine::MaintenanceLoop,
                                     engine.get());
  if (options.sample_interval_ms > 0) {
    engine->telemetry_ = std::thread(&ServerEngine::TelemetryLoop,
                                     engine.get());
  }
  return engine;
}

ServerEngine::~ServerEngine() { Shutdown(); }

void ServerEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    telemetry_stop_ = true;
  }
  telemetry_cv_.notify_all();
  if (telemetry_.joinable()) telemetry_.join();
}

std::shared_ptr<const ServerSnapshot> ServerEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

uint64_t ServerEngine::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

StatusOr<ParsedQuery> ServerEngine::Parse(std::string_view query_text) {
  std::lock_guard<std::mutex> lock(symbols_mu_);
  return ParseQuery(query_text, &symbols_);
}

StatusOr<QueryResult> ServerEngine::Query(const ParsedQuery& query) {
  std::shared_ptr<const ServerSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = snapshot_;
  }
  const uint64_t begin = TraceRing::NowTicks();
  StatusOr<QueryResult> result = MatchQuery(query, snapshot->view);
  const uint64_t end = TraceRing::NowTicks();
  RecordQuery(query, snapshot, begin, end, result.ok(),
              result.ok() ? result->bindings.size() : 0,
              result.ok() ? result->rows_examined : 0);
  return result;
}

StatusOr<QueryResult> ServerEngine::QueryText(std::string_view query_text) {
  StatusOr<ParsedQuery> query = Parse(query_text);
  if (!query.ok()) return query.status();
  return Query(*query);
}

std::string ServerEngine::Render(const QueryResult& result) const {
  std::lock_guard<std::mutex> lock(symbols_mu_);
  return result.ToString(symbols_);
}

void ServerEngine::RecordQuery(
    const ParsedQuery& query,
    const std::shared_ptr<const ServerSnapshot>& snapshot,
    uint64_t begin_ticks, uint64_t end_ticks, bool ok, size_t rows,
    size_t rows_examined) {
  const uint64_t latency = end_ticks - begin_ticks;

  // Slow-query capture happens before the stats lock: rendering the
  // atom takes the symbol lock, and only queries already past the
  // threshold (rare by construction) pay for it.
  const bool slow = slow_query_ns_ != 0 && latency >= slow_query_ns_;
  SlowQueryRecord record;
  if (slow) {
    record.ticks = end_ticks;
    record.latency_ns = latency;
    record.epoch = snapshot->epoch;
    record.snapshot_age_ms =
        static_cast<double>(begin_ticks - snapshot->publish_ticks) / 1e6;
    record.scan_rows = rows_examined;
    record.result_rows = rows;
    {
      std::lock_guard<std::mutex> lock(symbols_mu_);
      record.atom = ToString(query.atom, symbols_);
    }
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  query_window_.Record(latency);
  metrics_.AddCounter("serve.queries", 1);
  if (ok) {
    metrics_.AddCounter("serve.query_rows", rows);
  } else {
    metrics_.AddCounter("serve.query_errors", 1);
  }
  if (slow) {
    metrics_.AddCounter("serve.slow_queries", 1);
    slow_queries_.Add(std::move(record));
  }
  if (tracer_ != nullptr) {
    // Reader threads share the engine ring; stats_mu_ serializes the
    // writes, preserving the ring's single-writer contract. The end
    // event carries the snapshot epoch so trace spans name the
    // fixpoint version they answered from.
    TraceRing* ring = tracer_->engine_ring();
    ring->Append(TraceEvent{begin_ticks, static_cast<uint32_t>(rows),
                            TracePhase::kQuery, TraceEventKind::kBegin});
    ring->Append(TraceEvent{end_ticks,
                            static_cast<uint32_t>(snapshot->epoch),
                            TracePhase::kQuery, TraceEventKind::kEnd});
  }
}

Status ServerEngine::SubmitFactText(std::string_view fact_text) {
  // Parse as a one-clause program under the symbol lock; constants may
  // be new, the predicate must not be.
  std::string clause(fact_text);
  while (!clause.empty() &&
         (clause.back() == ' ' || clause.back() == '\t' ||
          clause.back() == '\n' || clause.back() == '\r')) {
    clause.pop_back();
  }
  if (clause.empty()) return Status::InvalidArgument("empty fact");
  if (clause.back() != '.') clause.push_back('.');

  Atom atom;
  {
    std::lock_guard<std::mutex> lock(symbols_mu_);
    StatusOr<Program> parsed = ParseProgram(clause, &symbols_);
    if (!parsed.ok()) return parsed.status();
    if (parsed->facts.size() != 1 || !parsed->rules.empty() ||
        !parsed->queries.empty()) {
      return Status::InvalidArgument("update must be a single ground fact");
    }
    atom = std::move(parsed->facts[0]);
  }
  if (!atom.IsGround()) {
    return Status::InvalidArgument("update must be ground (no variables)");
  }
  return SubmitFact(atom.predicate, TupleFromGroundAtom(atom));
}

Status ServerEngine::SubmitFact(Symbol predicate, Tuple tuple) {
  // Validate synchronously: enqueued facts must be infallible by the
  // time the maintenance thread absorbs them.
  auto arity_it = info_.arity.find(predicate);
  if (arity_it == info_.arity.end()) {
    std::lock_guard<std::mutex> lock(symbols_mu_);
    return Status::InvalidArgument("unknown predicate '" +
                                   symbols_.Name(predicate) + "'");
  }
  if (info_.IsDerived(predicate)) {
    std::lock_guard<std::mutex> lock(symbols_mu_);
    return Status::InvalidArgument("cannot update derived predicate '" +
                                   symbols_.Name(predicate) + "'");
  }
  if (arity_it->second != tuple.arity()) {
    std::lock_guard<std::mutex> lock(symbols_mu_);
    return Status::InvalidArgument(
        "arity mismatch for '" + symbols_.Name(predicate) + "': expected " +
        std::to_string(arity_it->second) + ", got " +
        std::to_string(tuple.arity()));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Status::FailedPrecondition("server is shutting down");
    queue_.push_back(PendingFact{predicate, std::move(tuple),
                                 TraceRing::NowTicks()});
    ++submitted_;
  }
  queue_cv_.notify_one();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    metrics_.AddCounter("serve.updates_submitted", 1);
  }
  return Status::Ok();
}

uint64_t ServerEngine::Flush() {
  const uint64_t begin = TraceRing::NowTicks();
  uint64_t epoch;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t target = submitted_;
    // The maintenance loop drains the queue even after Shutdown, and
    // nothing enqueues after stop_, so applied_ always reaches target.
    applied_cv_.wait(lock, [&] { return applied_ >= target; });
    epoch = epoch_;
  }
  const uint64_t waited = TraceRing::NowTicks() - begin;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    flush_hist_.Record(waited);
    metrics_.AddCounter("serve.flushes", 1);
    metrics_.SetGauge("serve.flush_wait_ms",
                      static_cast<double>(waited) / 1e6);
  }
  return epoch;
}

void ServerEngine::MaintenanceLoop() {
  TraceRing* ring = tracer_ != nullptr ? tracer_->ring(0) : nullptr;
  std::unique_lock<std::mutex> lock(mu_);
  // This thread is the only publisher after Create, so it can read the
  // last published snapshot without the lock: each freeze reuses that
  // view's column indexes while their unindexed tails stay short.
  std::shared_ptr<const ServerSnapshot> published = snapshot_;
  while (true) {
    queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) break;  // stop_ set and everything drained

    const size_t n = std::min(queue_.size(), options_.max_batch);
    std::vector<PendingFact> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();

    // Absorb and re-evaluate without any lock: readers keep answering
    // from the published snapshot, whose frozen prefix these appends
    // never touch.
    const uint64_t begin = TraceRing::NowTicks();
    uint64_t inserted = 0;
    {
      TraceScope apply(ring, TracePhase::kApply,
                       static_cast<uint32_t>(n));
      for (const PendingFact& fact : batch) {
        StatusOr<bool> added = eval_->AddFact(fact.predicate, fact.tuple);
        // SubmitFact validated predicate and arity; AddFact can only
        // report duplicate-vs-new here.
        if (added.ok() && *added) ++inserted;
      }
    }
    uint64_t derived = 0;
    bool eval_ok = true;
    {
      TraceScope maintain(ring, TracePhase::kMaintain);
      StatusOr<EvalStats> stats = eval_->Evaluate();
      if (stats.ok()) {
        derived = stats->tuples_inserted;
      } else {
        eval_ok = false;
      }
    }
    auto snapshot = std::make_shared<ServerSnapshot>();
    snapshot->view = DatabaseView::Freeze(eval_->db(), &published->view);
    const uint64_t end = TraceRing::NowTicks();

    // Telemetry first, off the engine mutex: the batch's latency and
    // the lag of its oldest fact (enqueue -> publish).
    {
      std::lock_guard<std::mutex> stats(stats_mu_);
      update_window_.Record(end - begin);
      metrics_.AddCounter("serve.update_batches", 1);
      metrics_.AddCounter("serve.updates_applied", inserted);
      metrics_.AddCounter("serve.updates_duplicate", n - inserted);
      metrics_.AddCounter("serve.derived_inserted", derived);
      metrics_.SetGauge("serve.last_batch_lag_ms",
                        static_cast<double>(end -
                                            batch.front().enqueue_ticks) /
                            1e6);
      if (!eval_ok) metrics_.AddCounter("serve.maintain_errors", 1);
    }

    lock.lock();
    snapshot->epoch = ++epoch_;
    snapshot->publish_ticks = end;
    published = std::move(snapshot);
    snapshot_ = published;
    applied_ += n;
    applied_cv_.notify_all();
  }
}

void ServerEngine::TelemetryLoop() {
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  while (!telemetry_stop_) {
    telemetry_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.sample_interval_ms),
        [&] { return telemetry_stop_; });
    if (telemetry_stop_) break;
    lock.unlock();
    Sample(/*rotate=*/true);
    lock.lock();
  }
}

std::shared_ptr<const TelemetrySample> ServerEngine::SampleNow() {
  return Sample(/*rotate=*/false);
}

std::shared_ptr<const TelemetrySample> ServerEngine::Sample(bool rotate) {
  const uint64_t now = TraceRing::NowTicks();

  // Phase 1 — stats lock: O(1)-ish copies only (the registry is a few
  // dozen entries; histograms are fixed 64-bucket PODs).
  MetricsRegistry m;
  Histogram query, update, flush;
  Histogram query_window, update_window;
  uint64_t slow_total;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (rotate) {
      query_window_.Rotate();
      update_window_.Rotate();
    }
    m = metrics_;
    query = query_window_.lifetime();
    update = update_window_.lifetime();
    flush = flush_hist_;
    query_window = query_window_.WindowMerged();
    update_window = update_window_.WindowMerged();
    slow_total = slow_queries_.total();
  }

  // Phase 2 — engine mutex: scalar loads only. This is the sampler's
  // entire footprint on the hot lock.
  uint64_t epoch, queue_depth, pending, snapshot_rows = 0;
  double snapshot_age_ms = 0, maintain_lag_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = epoch_;
    queue_depth = queue_.size();
    pending = submitted_ - applied_;
    if (!queue_.empty()) {
      maintain_lag_ms =
          static_cast<double>(now - queue_.front().enqueue_ticks) / 1e6;
    }
    if (snapshot_ != nullptr) {
      snapshot_rows = snapshot_->view.total_rows();
      snapshot_age_ms =
          static_cast<double>(now - snapshot_->publish_ticks) / 1e6;
    }
  }

  // Phase 3 — no locks: merge, derive gauges.
  m.MergeHistogram("hist.query_ns", query);
  m.MergeHistogram("hist.update_batch_ns", update);
  if (!flush.empty()) m.MergeHistogram("hist.flush_wait_ns", flush);
  m.MergeHistogram("hist.query_window_ns", query_window);
  m.MergeHistogram("hist.update_batch_window_ns", update_window);
  m.SetGauge("serve.epoch", static_cast<double>(epoch));
  m.SetGauge("serve.queue_depth", static_cast<double>(queue_depth));
  m.SetGauge("serve.pending", static_cast<double>(pending));
  m.SetGauge("serve.snapshot_rows", static_cast<double>(snapshot_rows));
  m.SetGauge("serve.snapshot_age_ms", snapshot_age_ms);
  m.SetGauge("serve.maintain_lag_ms", maintain_lag_ms);
  m.SetGauge("serve.slow_queries_retained",
             static_cast<double>(std::min<uint64_t>(
                 slow_total, options_.slow_ring)));
  if (tracer_ != nullptr) {
    m.SetGauge("serve.trace_drops",
               static_cast<double>(tracer_->total_dropped()));
  }

  auto sample = std::make_shared<TelemetrySample>();
  sample->ticks = now;

  // Phase 4 — sample lock: window rates against the retained history,
  // then publish.
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    const uint64_t window_ns =
        static_cast<uint64_t>(options_.sample_interval_ms > 0
                                  ? options_.sample_interval_ms
                                  : 500) *
        static_cast<uint64_t>(options_.window_intervals) * 1000000ull;
    double window_qps = 0, window_update_rate = 0;
    std::shared_ptr<const TelemetrySample> oldest =
        samples_.OldestWithin(now, window_ns);
    if (oldest != nullptr && now > oldest->ticks) {
      const double dt = static_cast<double>(now - oldest->ticks) / 1e9;
      window_qps =
          static_cast<double>(m.counter("serve.queries") -
                              oldest->metrics.counter("serve.queries")) /
          dt;
      window_update_rate =
          static_cast<double>(
              m.counter("serve.updates_applied") -
              oldest->metrics.counter("serve.updates_applied")) /
          dt;
    }
    m.SetGauge("serve.window_qps", window_qps);
    m.SetGauge("serve.window_update_rate", window_update_rate);
    sample->metrics = std::move(m);
    samples_.Add(sample);
    latest_sample_ = sample;
  }
  return sample;
}

std::shared_ptr<const TelemetrySample> ServerEngine::latest_sample() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return latest_sample_;
}

std::vector<std::shared_ptr<const TelemetrySample>>
ServerEngine::SamplesCopy() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return samples_.Snapshot();
}

std::vector<SlowQueryRecord> ServerEngine::SlowQueries() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return slow_queries_.Snapshot();
}

HealthVerdict ServerEngine::Health() const {
  const uint64_t now = TraceRing::NowTicks();
  uint64_t queue_depth;
  double lag_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = queue_.size();
    if (!queue_.empty()) {
      lag_ms = static_cast<double>(now - queue_.front().enqueue_ticks) /
               1e6;
    }
  }
  return EvaluateHealth(queue_depth, lag_ms, options_.health);
}

std::string ServerEngine::ExpositionText() {
  std::shared_ptr<const TelemetrySample> sample = SampleNow();
  return pdatalog::ExpositionText(sample->metrics, SlowQueries());
}

std::string ServerEngine::WatchLine() {
  std::shared_ptr<const TelemetrySample> sample = SampleNow();
  const MetricsRegistry& m = sample->metrics;
  const Histogram* window = m.FindHistogram("hist.query_window_ns");
  std::string out = "watch epoch=" +
                    std::to_string(static_cast<uint64_t>(
                        m.gauge("serve.epoch"))) +
                    " rows=" +
                    std::to_string(static_cast<uint64_t>(
                        m.gauge("serve.snapshot_rows"))) +
                    " queue=" +
                    std::to_string(static_cast<uint64_t>(
                        m.gauge("serve.queue_depth"))) +
                    " lag_ms=" + MsCell(m.gauge("serve.maintain_lag_ms")) +
                    " age_ms=" + MsCell(m.gauge("serve.snapshot_age_ms")) +
                    " qps=" + TextTable::Cell(m.gauge("serve.window_qps"),
                                              1) +
                    " upd_s=" +
                    TextTable::Cell(m.gauge("serve.window_update_rate"), 1);
  if (window != nullptr) {
    out += " p50_us=" + TextTable::Cell(window->Percentile(50) / 1e3, 1) +
           " p95_us=" + TextTable::Cell(window->Percentile(95) / 1e3, 1) +
           " p99_us=" + TextTable::Cell(window->Percentile(99) / 1e3, 1);
  }
  out += " slow=" + std::to_string(m.counter("serve.slow_queries")) +
         " health=" + (Health().ok ? "ok" : "degraded");
  return out;
}

StatusOr<size_t> ServerEngine::SaveSnapshot(const std::string& directory) {
  std::shared_ptr<const ServerSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = snapshot_;
  }
  // Rendering constant names reads the symbol table.
  std::lock_guard<std::mutex> lock(symbols_mu_);
  return SaveDatabase(snapshot->view, symbols_, directory);
}

MetricsRegistry ServerEngine::MetricsCopy() {
  return SampleNow()->metrics;
}

std::string ServerEngine::StatsReport() {
  std::shared_ptr<const ServerSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = snapshot_;
  }
  std::shared_ptr<const TelemetrySample> sample = SampleNow();
  const MetricsRegistry& metrics = sample->metrics;
  const uint64_t pending =
      static_cast<uint64_t>(metrics.gauge("serve.pending"));

  std::string out =
      "epoch " + std::to_string(snapshot->epoch) + ": " +
      std::to_string(snapshot->view.relation_count()) + " relations, " +
      std::to_string(snapshot->view.total_rows()) + " rows\n";
  out += "queries " + std::to_string(metrics.counter("serve.queries")) +
         " (" + std::to_string(metrics.counter("serve.query_rows")) +
         " rows returned), updates " +
         std::to_string(metrics.counter("serve.updates_applied")) +
         " applied in " +
         std::to_string(metrics.counter("serve.update_batches")) +
         " batches (" +
         std::to_string(metrics.counter("serve.updates_duplicate")) +
         " duplicates, " + std::to_string(pending) + " pending), " +
         std::to_string(metrics.counter("serve.derived_inserted")) +
         " tuples derived\n";
  HealthVerdict health = Health();
  out += "health: " + health.ToString() + "\n";
  out += "serve: queue " +
         std::to_string(static_cast<uint64_t>(
             metrics.gauge("serve.queue_depth"))) +
         ", lag " + MsCell(metrics.gauge("serve.maintain_lag_ms")) +
         " ms, snapshot age " +
         MsCell(metrics.gauge("serve.snapshot_age_ms")) +
         " ms, window qps " +
         TextTable::Cell(metrics.gauge("serve.window_qps"), 1) +
         ", update rate " +
         TextTable::Cell(metrics.gauge("serve.window_update_rate"), 1) +
         "/s\n";
  out += RenderHistogramTable(metrics);

  std::vector<SlowQueryRecord> slow = SlowQueries();
  if (!slow.empty()) {
    out += "slow queries (>= " +
           TextTable::Cell(options_.slow_query_ms, 2) + " ms, " +
           std::to_string(slow.size()) + " retained of " +
           std::to_string(metrics.counter("serve.slow_queries")) +
           " total):\n";
    // Newest last, the tail an operator reads first when scrolling.
    for (const SlowQueryRecord& r : slow) {
      out += "  " + r.atom + ": " +
             MsCell(static_cast<double>(r.latency_ns) / 1e6) +
             " ms, epoch " + std::to_string(r.epoch) + ", snapshot age " +
             MsCell(r.snapshot_age_ms) + " ms, " +
             std::to_string(r.scan_rows) + " scan rows, " +
             std::to_string(r.result_rows) + " result rows\n";
    }
  }
  if (tracer_ != nullptr && tracer_->total_dropped() > 0) {
    out += TraceDropWarning(tracer_->total_dropped());
  }
  return out;
}

}  // namespace pdatalog

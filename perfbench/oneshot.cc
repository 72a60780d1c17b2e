// The one-shot workloads: ancestor over GenRandomGraph, evaluated by
// RunParallel under Example 3 (oneshot_ex3) or Example 1 (oneshot_ex1).
//
// An untraced invocation repeats set-up (parse + load) and fixpoint
// (rewrite + RunParallel, pooling included) for 85% of --seconds; every
// pooled result is checked against the oracle afterwards.
//
// A traced invocation (--trace 1) alternates traced and untraced
// fixpoints for 45% of --seconds, so the tracing overhead comes from one
// process, then measures two more layers on the last pooled output:
//   - answers: point queries `anc(nK, X)` (ParseQuery + MatchQuery +
//     render: the `pdatalog --query` path), the one-shot counterpart of
//     the served query;
//   - updates: single new `par` facts absorbed by an IncrementalEvaluator
//     holding the fixpoint (AddFact + Evaluate, the step `!flush` waits
//     for in serving mode), the one-shot counterpart of the flush.
// Their latencies are single-threaded scans of a 2M-row relation and
// swing up to 2x between processes on a shared host, too wide for a
// bounded end-to-end metric; they are per-layer numbers here.
#include <random>

#include "common.h"
#include "datalog/fact_io.h"
#include "datalog/query.h"
#include "eval/incremental.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kProcessors = 4;
constexpr int kSetupsPerFixpoint = 5;

struct OneshotSizes {
  int nodes = 1500;
  int edges = 4500;
  size_t queries = 1000;  // p99 with ten samples beyond it
  size_t updates = 1000;
  int min_fixpoints = 4;
};

// Expected answer size of `anc(nK, X)` for every node K.
std::vector<size_t> AnswerSizes(const Ancestor& a, const Relation* anc,
                                int nodes) {
  std::vector<size_t> sizes(static_cast<size_t>(nodes), 0);
  if (anc == nullptr) return sizes;
  for (size_t r = 0; r < anc->size(); ++r) {
    const std::string& name = a.symbols.Name(anc->cell(r, 0));
    if (name[0] == 'n') ++sizes[std::stoul(name.substr(1))];
  }
  return sizes;
}

// The traced run's two extra layers on the last pooled output: point
// queries and single-fact maintenance (see the file comment).
void MeasureAnswersAndUpdates(const Options& options, const OneshotSizes& size,
                              Ancestor* a, const Database& edb,
                              std::unique_ptr<ParallelResult> last,
                              const Relation* oracle_anc,
                              const std::string& par_tsv, RunRecord* out) {
  RunRecord& record = *out;
  const std::vector<size_t> answer_sizes =
      AnswerSizes(*a, oracle_anc, size.nodes);
  const Symbol anc_symbol = a->symbols.Lookup("anc");
  const Relation* pooled = last->output.Find(anc_symbol);
  std::mt19937_64 rng(options.seed * 7919 + 17);
  std::vector<int> keys(size.queries);
  for (int& k : keys) k = static_cast<int>(rng() % size.nodes);
  const std::vector<UpdateEdge> updates = UpdateStream(
      RandomGraphEdges(size.nodes, size.edges, options.seed), size.nodes,
      size.updates, options.seed);

  // --- phase 2: point queries on the pooled output ----------------------
  std::vector<double> query_ms, q_parse_us, q_scan_us, q_render_us;
  double result_rows = 0;
  for (int key : keys) {
    ++record.attempted;
    const std::string text = "anc(n" + std::to_string(key) + ", X)";
    const double t0 = NowSeconds();
    StatusOr<ParsedQuery> query = ParseQuery(text, &a->symbols);
    const double t1 = NowSeconds();
    StatusOr<QueryResult> answer =
        query.ok() ? MatchQuery(*query, last->output)
                   : StatusOr<QueryResult>(query.status());
    const double t2 = NowSeconds();
    std::string rendered = answer.ok() ? answer->ToString(a->symbols) : "";
    const double t3 = NowSeconds();
    if (!answer.ok() || answer->bindings.size() != answer_sizes[key]) {
      ++record.failed;
      record.Fail("query " + text + " answered wrongly");
      continue;
    }
    query_ms.push_back((t3 - t0) * 1e3);
    q_parse_us.push_back((t1 - t0) * 1e6);
    q_scan_us.push_back((t2 - t1) * 1e6);
    q_render_us.push_back((t3 - t2) * 1e6);
    result_rows += static_cast<double>(answer->bindings.size());
  }
  result_rows /= std::max<size_t>(1, query_ms.size());
  const double pooled_rows = pooled == nullptr ? 0.0 : pooled->size();
  last.reset();

  // --- phase 3: single-fact maintenance on the fixpoint ------------------
  std::vector<double> flush_ms, apply_ms, maintain_ms;
  uint64_t derived = 0, duplicates = 0;
  std::string all_facts = par_tsv;
  {
    StatusOr<IncrementalEvaluator> eval =
        IncrementalEvaluator::Create(a->program, a->info);
    if (!eval.ok()) {
      record.Fail("incremental: " + eval.status().ToString());
      return;
    }
    const Symbol par = a->symbols.Lookup("par");
    const Relation* base = edb.Find(par);
    for (size_t r = 0; r < base->size(); ++r) {
      if (!eval->AddFact(par, base->row(r)).ok()) record.Fail("AddFact");
    }
    if (!eval->Evaluate().ok()) record.Fail("initial incremental Evaluate");
    for (const UpdateEdge& u : updates) {
      ++record.attempted;
      const double t0 = NowSeconds();
      Tuple fact{a->symbols.Intern(u.from), a->symbols.Intern(u.to)};
      StatusOr<bool> added = eval->AddFact(par, fact);
      const double t1 = NowSeconds();
      StatusOr<EvalStats> stats = eval->Evaluate();
      const double t2 = NowSeconds();
      if (!added.ok() || !stats.ok()) {
        ++record.failed;
        record.Fail("incremental update failed");
        continue;
      }
      flush_ms.push_back((t2 - t0) * 1e3);
      apply_ms.push_back((t1 - t0) * 1e3);
      maintain_ms.push_back((t2 - t1) * 1e3);
      derived += stats->tuples_inserted;
      if (!*added) ++duplicates;
      all_facts += u.from + "\t" + u.to + "\n";
    }
    const Relation* maintained = eval->Find(anc_symbol);
    StatusOr<std::unique_ptr<Oracle>> final_oracle =
        RunOracle(a, all_facts, options.corrupt_oracle);
    if (!final_oracle.ok() ||
        !SameRelation((*final_oracle)->anc, maintained)) {
      ++record.failed;
      record.Fail("maintained fixpoint differs from the oracle over base + "
                  "updates");
    }
  }
  record.Set("query_p50_ms", Quantile(query_ms, 0.5), "ms");
  record.Set("query_p99_ms", Quantile(query_ms, 0.99), "ms");
  record.Set("flush_p50_ms", Quantile(flush_ms, 0.5), "ms");
  record.Set("flush_p99_ms", Quantile(flush_ms, 0.99), "ms");
  record.NoteNumber("samples.queries", query_ms.size());
  record.NoteNumber("samples.updates", flush_ms.size());
  record.Set("server.parse_us", Median(q_parse_us), "us");
  record.Set("server.scan_us", Median(q_scan_us), "us");
  record.Set("server.render_us", Median(q_render_us), "us");
  record.Set("server.handle_us", Median(query_ms) * 1e3, "us");
  record.Set("server.query_ns_p50", Quantile(q_scan_us, 0.5) * 1e3, "ns");
  record.Set("server.query_ns_p99", Quantile(q_scan_us, 0.99) * 1e3, "ns");
  record.Set("server.scan_rows_per_result",
             result_rows == 0 ? 0.0 : pooled_rows / result_rows, "ratio");
  record.Set("server.result_rows", result_rows, "count");
  record.Set("server.batch_ms_p50", Quantile(flush_ms, 0.5), "ms");
  record.Set("server.batch_ms_p99", Quantile(flush_ms, 0.99), "ms");
  record.Set("server.apply_ms", Median(apply_ms), "ms");
  record.Set("server.maintain_ms", Median(maintain_ms), "ms");
  // A caller of the one-shot path waits for Evaluate itself.
  record.Set("server.flush_wait_p99_ms", Quantile(maintain_ms, 0.99), "ms");
  record.Set("server.facts_per_batch", 1.0, "count");
  const double facts = std::max<size_t>(1, flush_ms.size());
  record.Set("server.derived_per_fact", derived / facts, "ratio");
  record.Set("server.duplicate_share", duplicates / facts, "ratio");
  record.Set("server.epochs", static_cast<double>(flush_ms.size()), "count");
}

}  // namespace

RunRecord RunOneshot(const Options& options, Scheme scheme) {
  RunRecord record;
  StampEnvironment(options, &record);
  OneshotSizes size;
  if (options.smoke) size = {120, 360, 120, 120, 2};
  record.NoteNumber("env.processors", kProcessors);
  record.Note("env.scheme", SchemeName(scheme));
  record.Note("env.transport", "mutex");
  record.NoteNumber("env.block_tuples", 256);
  record.NoteNumber("env.nodes", size.nodes);
  record.NoteNumber("env.edges", size.edges);

  // Inputs, outside every timed region: the program receives text only.
  const std::vector<Edge> edges =
      RandomGraphEdges(size.nodes, size.edges, options.seed);
  const std::string par_tsv = EdgesTsv(edges);

  // --- phase 1: set-up + fixpoint, repeated --------------------------
  const double start = NowSeconds();
  const double fixpoint_budget = (options.trace ? 0.45 : 0.85) * options.seconds;
  std::vector<double> setup_s;
  LayerSamples samples;
  // Worker-loop time of every fixpoint, to watch for the loop's slow mode
  // (README.md).
  std::vector<double> loop_ms;
  std::vector<std::pair<uint64_t, Fingerprint>> outputs;  // firings, anc
  std::unique_ptr<Ancestor> a;
  std::unique_ptr<Database> edb;
  std::unique_ptr<ParallelResult> last;
  for (int i = 0; i < size.min_fixpoints ||
                  NowSeconds() - start < fixpoint_budget;
       ++i) {
    last.reset();
    // Set-up takes ~1.5 ms against a fixpoint's seconds: sample it several
    // times per iteration, keeping the last state for the fixpoint.
    for (int s = 0; s < kSetupsPerFixpoint; ++s) {
      edb.reset();
      a.reset();
      const double t0 = NowSeconds();
      StatusOr<std::unique_ptr<Ancestor>> parsed =
          ParseAncestor(kAncestorRules);
      const double t1 = NowSeconds();
      if (!parsed.ok()) {
        record.Fail("parse: " + parsed.status().ToString());
        return record;
      }
      a = std::move(*parsed);
      edb = std::make_unique<Database>();
      StatusOr<size_t> loaded =
          LoadFactsFromString(par_tsv, "par", &a->symbols, edb.get());
      const double t2 = NowSeconds();
      if (!loaded.ok()) {
        record.Fail("load: " + loaded.status().ToString());
        return record;
      }
      samples.loaded_rows = *loaded;
      setup_s.push_back(t2 - t0);
      samples.parse_ms.push_back((t1 - t0) * 1e3);
      samples.load_ms.push_back((t2 - t1) * 1e3);
    }

    const bool traced = options.trace && i % 2 == 0;
    std::unique_ptr<Tracer> tracer;
    if (traced) tracer = std::make_unique<Tracer>(kProcessors, size_t{1} << 20);
    ++record.attempted;
    StatusOr<FixpointRun> run =
        RunFixpoint(a.get(), scheme, kProcessors, edb.get(), tracer.get());
    if (!run.ok()) {
      ++record.failed;
      record.Fail("RunParallel: " + run.status().ToString());
      continue;
    }
    (traced ? samples.traced_fixpoint_s : samples.fixpoint_s)
        .push_back(run->fixpoint_s);
    loop_ms.push_back(run->result->wall_seconds * 1e3);
    const Relation* anc = run->result->output.Find(a->symbols.Lookup("anc"));
    outputs.push_back({run->result->total_firings, FingerprintOf(anc)});
    if (traced) {
      RunRecord layers;
      AddFixpointLayers(a.get(), scheme, kProcessors, *run, *tracer, *edb,
                        &layers);
      samples.traced_layers.push_back(std::move(layers));
    }
    last = std::move(run->result);
  }
  if (last == nullptr) return record;

  // The oracle, untimed: every pooled output must match it exactly.
  StatusOr<std::unique_ptr<Oracle>> oracle =
      RunOracle(a.get(), par_tsv, options.corrupt_oracle);
  if (!oracle.ok()) {
    record.Fail("oracle: " + oracle.status().ToString());
    return record;
  }
  const Fingerprint want = FingerprintOf((*oracle)->anc);
  const Relation* pooled = last->output.Find(a->symbols.Lookup("anc"));
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].second != want) {
      ++record.failed;
      record.Fail("fixpoint " + std::to_string(i) +
                  ": pooled anc differs from the oracle");
    }
    if (outputs[i].first != (*oracle)->stats.firings) {
      ++record.failed;
      record.Fail("fixpoint " + std::to_string(i) + ": " +
                  std::to_string(outputs[i].first) + " firings, oracle " +
                  std::to_string((*oracle)->stats.firings));
    }
  }
  if (!SameRelation((*oracle)->anc, pooled)) {
    record.Fail("last pooled anc is not the oracle's relation");
  }
  const double seminaive_s = (*oracle)->seconds;
  const uint64_t oracle_firings = (*oracle)->stats.firings;
  if (options.trace) {
    MeasureAnswersAndUpdates(options, size, a.get(), *edb, std::move(last),
                             (*oracle)->anc, par_tsv, &record);
  }
  oracle->reset();
  const double measured_s = NowSeconds() - start;

  // --- report ------------------------------------------------------------
  // Per-layer numbers too; run.py keeps them only for --trace 1, whose
  // fixpoint layers come from the traced half of the iterations.
  ReportLayers(samples, seminaive_s, &record);
  const std::vector<double>& all_fixpoints = samples.fixpoint_s.empty()
                                                 ? samples.traced_fixpoint_s
                                                 : samples.fixpoint_s;
  // The user's wait for one unit of work: here, one fixpoint.
  record.Set("latency_p50_ms", Median(all_fixpoints) * 1e3, "ms");
  record.Set("setup_s", Median(setup_s), "s");
  record.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.NoteSeries("samples.fixpoint_s", all_fixpoints);
  record.NoteSeries("samples.loop_ms", loop_ms);
  record.NoteNumber("samples.traced_fixpoints",
                    samples.traced_fixpoint_s.size());
  record.NoteNumber("measured_s", measured_s);
  record.NoteNumber("oracle.firings", static_cast<double>(oracle_firings));
  record.NoteNumber("oracle.anc_rows", static_cast<double>(want.rows));
  return record;
}

}  // namespace perfbench

#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <queue>
#include <random>
#include <thread>

#include "core/partition.h"
#include "datalog/fact_io.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "obs/analyze.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "workload/generators.h"

namespace perfbench {

// --- RunRecord -----------------------------------------------------------

void RunRecord::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void RunRecord::Note(const std::string& key, const std::string& text) {
  detail[key] = JsonString(text);
}

void RunRecord::NoteNumber(const std::string& key, double value) {
  detail[key] = JsonNumber(value);
}

void RunRecord::NoteSeries(const std::string& key,
                           const std::vector<double>& values) {
  std::string raw = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    raw += (i == 0 ? "" : ", ") + JsonNumber(values[i]);
  }
  detail[key] = raw + "]";
}

void RunRecord::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  auto it = detail.find("failures");
  std::string list = it == detail.end() ? "" : it->second;
  if (!list.empty()) list = list.substr(1, list.size() - 2) + ", ";
  detail["failures"] = "[" + list + JsonString(why) + "]";
}

std::string RunRecord::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(vu.first) +
           ", \"unit\": " + JsonString(vu.second) + "}";
  }
  out += "}, \"detail\": {";
  first = true;
  for (const auto& [key, raw] : detail) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(key) + ": " + raw;
  }
  out += "}}";
  return out;
}

// --- timing and statistics ---------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- the ancestor program -------------------------------------------------

StatusOr<std::unique_ptr<Ancestor>> ParseAncestor(const std::string& source) {
  auto a = std::make_unique<Ancestor>();
  StatusOr<Program> parsed = ParseProgram(source, &a->symbols);
  if (!parsed.ok()) return parsed.status();
  a->program = std::move(*parsed);
  Status valid = Validate(a->program, &a->info);
  if (!valid.ok()) return valid;
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(a->program, a->info);
  if (!sirup.ok()) return sirup.status();
  a->sirup = std::move(*sirup);
  return a;
}

const char* SchemeName(Scheme scheme) {
  return scheme == Scheme::kExample1 ? "example1" : "example3";
}

LinearSchemeOptions SchemeOptions(Ancestor* a, Scheme scheme, int P) {
  LinearSchemeOptions o;
  SymbolTable& s = a->symbols;
  if (scheme == Scheme::kExample1) {
    // v(r) = v(e) = <Y>: Y is never joined, so no tuple leaves its
    // processor; the recursive rule's base atom stays replicated.
    o.v_r = {s.Intern("Y")};
    o.v_e = {s.Intern("Y")};
  } else {
    // v(r) = <Z>, v(e) = <X>: par fragmented disjointly, every derived
    // tuple routed to h(first column).
    o.v_r = {s.Intern("Z")};
    o.v_e = {s.Intern("X")};
  }
  o.h = DiscriminatingFunction::UniformHash(P, kHashSeed);
  return o;
}

// --- inputs ------------------------------------------------------------------

namespace {

std::vector<Edge> EdgesOf(const SymbolTable& symbols, const Database& db,
                          Symbol par) {
  std::vector<Edge> edges;
  const Relation* rel = db.Find(par);
  if (rel == nullptr) return edges;
  auto node = [&](Value v) {
    return std::stoi(symbols.Name(v).substr(1));  // "n<i>"
  };
  for (size_t r = 0; r < rel->size(); ++r) {
    Tuple t = rel->row(r);
    edges.push_back({node(t[0]), node(t[1])});
  }
  return edges;
}

}  // namespace

std::vector<Edge> RandomGraphEdges(int nodes, int edges, uint64_t seed) {
  SymbolTable symbols;
  Database db;
  GenRandomGraph(&symbols, &db, "par", nodes, edges, seed);
  return EdgesOf(symbols, db, symbols.Lookup("par"));
}

std::vector<Edge> ZipfGraphEdges(int nodes, int edges, double exponent,
                                 uint64_t seed) {
  SymbolTable symbols;
  Database db;
  GenZipfGraph(&symbols, &db, "par", nodes, edges, exponent, seed);
  return EdgesOf(symbols, db, symbols.Lookup("par"));
}

std::string EdgesTsv(const std::vector<Edge>& edges) {
  std::string out;
  out.reserve(edges.size() * 14);
  for (const auto& [a, b] : edges) {
    out += 'n' + std::to_string(a) + "\tn" + std::to_string(b) + '\n';
  }
  return out;
}

std::vector<UpdateEdge> UpdateStream(const std::vector<Edge>& base,
                                     int nodes, size_t count,
                                     uint64_t seed) {
  std::vector<std::vector<int>> adj(static_cast<size_t>(nodes));
  std::vector<std::vector<char>> is_edge(
      static_cast<size_t>(nodes), std::vector<char>(nodes, 0));
  for (const auto& [a, b] : base) {
    adj[a].push_back(b);
    is_edge[a][b] = 1;
  }
  // reach[a] = nodes reachable from a by a non-empty path.
  std::vector<std::vector<int>> reach(static_cast<size_t>(nodes));
  std::vector<int> seen(static_cast<size_t>(nodes), -1);
  for (int s = 0; s < nodes; ++s) {
    std::queue<int> frontier;
    for (int b : adj[s]) {
      if (seen[b] != s) {
        seen[b] = s;
        frontier.push(b);
      }
    }
    while (!frontier.empty()) {
      int x = frontier.front();
      frontier.pop();
      reach[s].push_back(x);
      for (int y : adj[x]) {
        if (seen[y] != s) {
          seen[y] = s;
          frontier.push(y);
        }
      }
    }
  }
  std::vector<int> sources;
  for (int s = 0; s < nodes; ++s) {
    if (reach[s].size() > adj[s].size()) sources.push_back(s);
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<UpdateEdge> out;
  out.reserve(count);
  size_t leaves = 0;
  while (out.size() < count) {
    if (out.size() % 10 == 9 || sources.empty()) {
      int below = static_cast<int>(rng() % static_cast<uint64_t>(nodes));
      out.push_back({"n" + std::to_string(below),
                     "f" + std::to_string(leaves++)});
      continue;
    }
    int a = sources[rng() % sources.size()];
    const std::vector<int>& r = reach[a];
    int b = r[rng() % r.size()];
    if (is_edge[a][b]) continue;
    is_edge[a][b] = 1;  // each shortcut is new exactly once
    out.push_back({"n" + std::to_string(a), "n" + std::to_string(b)});
  }
  return out;
}

// --- correctness ---------------------------------------------------------------

Fingerprint FingerprintOf(const Relation* relation) {
  Fingerprint f;
  if (relation == nullptr) return f;
  f.rows = relation->size();
  for (size_t r = 0; r < relation->size(); ++r) {
    const uint64_t h = relation->row(r).Hash() * 0x9e3779b97f4a7c15ULL;
    f.sum += h;
    f.xored ^= h;
  }
  return f;
}

StatusOr<std::unique_ptr<Oracle>> RunOracle(Ancestor* a,
                                            const std::string& par_tsv,
                                            bool drop_one) {
  auto oracle = std::make_unique<Oracle>();
  StatusOr<size_t> loaded =
      LoadFactsFromString(par_tsv, "par", &a->symbols, &oracle->db);
  if (!loaded.ok()) return loaded.status();
  const double begin = NowSeconds();
  Status status =
      SemiNaiveEvaluate(a->program, a->info, &oracle->db, &oracle->stats);
  oracle->seconds = NowSeconds() - begin;
  if (!status.ok()) return status;
  const Symbol anc = a->symbols.Lookup("anc");
  oracle->anc = oracle->db.Find(anc);
  if (drop_one && oracle->anc != nullptr && oracle->anc->size() > 0) {
    oracle->dropped = std::make_unique<Relation>(2);
    for (size_t r = 1; r < oracle->anc->size(); ++r) {
      oracle->dropped->Insert(oracle->anc->row(r));
    }
    oracle->anc = oracle->dropped.get();
  }
  return oracle;
}

bool SameRelation(const Relation* want, const Relation* got) {
  if (want == nullptr || got == nullptr) return want == got;
  if (want->size() != got->size()) return false;
  for (size_t r = 0; r < want->size(); ++r) {
    if (!got->Contains(want->row(r))) return false;
  }
  return true;
}

// --- one parallel fixpoint --------------------------------------------------------

StatusOr<FixpointRun> RunFixpoint(Ancestor* a, Scheme scheme, int P,
                                  Database* edb, Tracer* tracer) {
  const LinearSchemeOptions scheme_options = SchemeOptions(a, scheme, P);
  ParallelOptions popts;
  popts.transport = TransportKind::kMutex;
  popts.block_tuples = 256;
  popts.tracer = tracer;

  FixpointRun run;
  const double begin = NowSeconds();
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(a->program, a->info, a->sirup, P, scheme_options);
  const double rewritten = NowSeconds();
  run.rewrite_end_ticks = TraceRing::NowTicks();
  if (!bundle.ok()) return bundle.status();
  StatusOr<ParallelResult> result = RunParallel(*bundle, edb, popts);
  run.end_ticks = TraceRing::NowTicks();
  const double end = NowSeconds();
  if (!result.ok()) return result.status();
  run.fixpoint_s = end - begin;
  run.rewrite_s = rewritten - begin;
  run.result = std::make_unique<ParallelResult>(std::move(*result));
  return run;
}

namespace {

// Sum of span durations per phase on one ring, nested spans included
// (the analyzer's totals count only top-level spans, which hides
// kInsert inside kDrain). Also the ring's first and last timestamps.
struct RingTotals {
  uint64_t phase_ns[kNumSpanPhases] = {};
  uint64_t first = 0;
  uint64_t last = 0;
  uint64_t pool_begin = 0;
  uint64_t pool_end = 0;
};

RingTotals ScanRing(const TraceRing& ring) {
  RingTotals totals;
  std::vector<uint64_t> open[kNumSpanPhases];
  for (size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& e = ring.event(i);
    if (totals.first == 0) totals.first = e.ts;
    totals.last = e.ts;
    const int p = static_cast<int>(e.phase);
    if (p >= kNumSpanPhases) continue;
    if (e.kind == TraceEventKind::kBegin) {
      open[p].push_back(e.ts);
      if (e.phase == TracePhase::kPool) totals.pool_begin = e.ts;
    } else if (e.kind == TraceEventKind::kEnd && !open[p].empty()) {
      totals.phase_ns[p] += e.ts - open[p].back();
      open[p].pop_back();
      if (e.phase == TracePhase::kPool) totals.pool_end = e.ts;
    }
  }
  return totals;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void AddFixpointLayers(Ancestor* a, Scheme scheme, int P,
                       const FixpointRun& run, const Tracer& tracer,
                       const Database& edb, RunRecord* layers) {
  const ParallelResult& r = *run.result;
  const MetricsRegistry& m = r.metrics;

  // Partition: re-run PartitionBases on an identical bundle (RunParallel
  // calls it internally but exposes no timing for it).
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      a->program, a->info, a->sirup, P, SchemeOptions(a, scheme, P));
  double partition_ms = 0;
  uint64_t fragment_rows = 0;
  if (bundle.ok()) {
    const double begin = NowSeconds();
    StatusOr<PartitionResult> parts = PartitionBases(*bundle, edb);
    partition_ms = (NowSeconds() - begin) * 1e3;
    if (parts.ok()) {
      for (uint64_t rows : parts->fragment_rows) fragment_rows += rows;
    }
  }

  // Worker rings: mean per worker of each phase.
  const int workers = tracer.num_workers();
  double phase_ms[kNumSpanPhases] = {};
  uint64_t loop_first = 0;
  uint64_t loop_last = 0;
  for (int w = 0; w < workers; ++w) {
    RingTotals t = ScanRing(tracer.ring(w));
    for (int p = 0; p < kNumSpanPhases; ++p) {
      phase_ms[p] += Ms(t.phase_ns[p]) / workers;
    }
    if (t.first != 0 && (loop_first == 0 || t.first < loop_first)) {
      loop_first = t.first;
    }
    loop_last = std::max(loop_last, t.last);
  }
  const RingTotals engine = ScanRing(tracer.ring(workers));
  const double pool_ms = Ms(engine.phase_ns[static_cast<int>(TracePhase::kPool)]);
  auto phase = [&](TracePhase p) { return phase_ms[static_cast<int>(p)]; };

  ProfileReport profile = AnalyzeTrace(tracer);
  int rounds = 0;
  for (const WorkerStats& w : r.workers) rounds = std::max(rounds, w.rounds);

  uint64_t rows_examined = 0;
  for (const WorkerStats& w : r.workers) rows_examined += w.rows_examined;

  const double fixpoint_ms = run.fixpoint_s * 1e3;
  const double worker_ms = phase(TracePhase::kInit) + phase(TracePhase::kDrain) +
                           phase(TracePhase::kProbe) + phase(TracePhase::kFlush) +
                           phase(TracePhase::kIdle);
  const double covered_ms =
      run.rewrite_s * 1e3 + partition_ms + worker_ms + pool_ms;

  layers->Set("core.rewrite_ms", run.rewrite_s * 1e3, "ms");
  layers->Set("core.partition_ms", partition_ms, "ms");
  layers->Set("core.fragment_rows", static_cast<double>(fragment_rows), "count");
  layers->Set("core.loop_ms", r.wall_seconds * 1e3, "ms");
  layers->Set("core.rounds", rounds, "count");
  layers->Set("core.skew", profile.skew_ratio, "ratio");
  layers->Set("eval.probe_ms", phase(TracePhase::kProbe), "ms");
  layers->Set("eval.firings", static_cast<double>(r.total_firings), "count");
  layers->Set("eval.rows_examined", static_cast<double>(rows_examined), "count");
  layers->Set("eval.rows_per_firing",
              Ratio(static_cast<double>(rows_examined),
                    static_cast<double>(r.total_firings)),
              "ratio");
  layers->Set("eval.batch_fallbacks",
              static_cast<double>(m.counter("eval.batch_fallbacks")), "count");
  layers->Set("core.init_ms", phase(TracePhase::kInit), "ms");
  layers->Set("core.flush_ms", phase(TracePhase::kFlush), "ms");
  layers->Set("core.drain_ms", phase(TracePhase::kDrain), "ms");
  layers->Set("storage.insert_ms", phase(TracePhase::kInsert), "ms");
  layers->Set("core.cross_tuples", static_cast<double>(r.cross_tuples), "count");
  layers->Set("core.cross_frames", static_cast<double>(r.cross_frames), "count");
  layers->Set("core.tuples_per_frame",
              Ratio(static_cast<double>(r.cross_tuples),
                    static_cast<double>(r.cross_frames)),
              "ratio");
  layers->Set("core.cross_bytes", static_cast<double>(r.cross_bytes), "bytes");
  layers->Set("core.idle_ms", phase(TracePhase::kIdle), "ms");
  layers->Set("core.idle_share", Ratio(phase(TracePhase::kIdle), worker_ms),
              "ratio");
  layers->Set("core.pool_ms", pool_ms, "ms");
  layers->Set("core.pooled_tuples", static_cast<double>(r.pooled_tuples), "count");
  layers->Set("core.pool_useful_ratio",
              Ratio(static_cast<double>(r.pooled_tuples),
                    static_cast<double>(r.out_tuples_total)),
              "ratio");
  layers->Set("layers_sum_pct", Ratio(covered_ms, fixpoint_ms) * 100.0, "%");
  // The reconciliation's named gaps: everything between the rewrite and
  // the first worker event (partition, worker construction, shared
  // index builds, thread start), between the last worker event and the
  // pooling span (join, stats and histogram folding), and after pooling
  // until RunParallel returns (registry projection, worker teardown).
  if (loop_first != 0 && engine.pool_begin != 0) {
    layers->Set("core.pre_loop_ms", Ms(loop_first - run.rewrite_end_ticks), "ms");
    layers->Set("core.post_loop_ms", Ms(engine.pool_begin - loop_last), "ms");
    layers->Set("core.post_pool_ms", Ms(run.end_ticks - engine.pool_end), "ms");
  }
  layers->Set("obs.trace_dropped", static_cast<double>(tracer.total_dropped()),
              "count");
}

void ReportLayers(const LayerSamples& samples, double seminaive_s,
                  RunRecord* record) {
  // Element-wise median over the traced runs' layer records.
  if (!samples.traced_layers.empty()) {
    for (const auto& [name, vu] : samples.traced_layers.front().metrics) {
      std::vector<double> values;
      for (const RunRecord& s : samples.traced_layers) {
        for (const auto& [n, v] : s.metrics) {
          if (n == name) values.push_back(v.first);
        }
      }
      record->Set(name, Median(values), vu.second);
    }
  }
  const double fixpoint_s = Median(samples.fixpoint_s.empty()
                                       ? samples.traced_fixpoint_s
                                       : samples.fixpoint_s);
  const double load_ms = Median(samples.load_ms);
  record->Set("fixpoint_s", fixpoint_s, "s");
  record->Set("datalog.parse_ms", Median(samples.parse_ms), "ms");
  record->Set("datalog.load_ms", load_ms, "ms");
  record->Set("datalog.load_tuples_per_s",
              static_cast<double>(samples.loaded_rows) / (load_ms / 1e3),
              "1/s");
  record->Set("eval.seminaive_s", seminaive_s, "s");
  record->Set("core.speedup_vs_seq", seminaive_s / fixpoint_s, "ratio");
  if (!samples.traced_fixpoint_s.empty() && !samples.fixpoint_s.empty()) {
    const double traced_s = Median(samples.traced_fixpoint_s);
    record->Set("obs.trace_overhead_pct",
                (traced_s / Median(samples.fixpoint_s) - 1.0) * 100.0, "%");
    record->NoteNumber("traced.fixpoint_s", traced_s);
  }
  record->Set("failed_share",
              static_cast<double>(record->failed) /
                  static_cast<double>(std::max<uint64_t>(1, record->attempted)),
              "ratio");
}

void StampEnvironment(const Options& options, RunRecord* record) {
  record->NoteNumber("env.nproc", std::thread::hardware_concurrency());
  record->Note("env.compiler", PERFBENCH_COMPILER);
  record->Note("env.flags", PERFBENCH_FLAGS);
  record->Note("env.workload", options.workload);
  record->NoteNumber("env.seed", static_cast<double>(options.seed));
  record->NoteNumber("env.seconds", options.seconds);
  record->NoteNumber("env.trace", options.trace ? 1 : 0);
  record->NoteNumber("env.smoke", options.smoke ? 1 : 0);
}

}  // namespace perfbench

// Serving-mode bench: the resident ServerEngine under a read-mostly
// workload. N reader threads answer pre-parsed point queries against
// pinned snapshots while one updater streams base-fact edges into the
// maintenance queue (95% queries / 5% updates); the engine absorbs
// them in batches through the incremental evaluator and republishes.
// The graph is ancestor on a Zipf-skewed base (hot targets, so updates
// keep landing in already-dense closure regions).
//
// The mix runs in alternating trials of two variants: mix_95_5 with
// telemetry off, and mix_95_5_telemetry with the full telemetry stack
// live — background sampler, sliding windows, slow-query tracing, and
// an HTTP scraper thread hammering GET /metrics. The telemetry overhead
// is the second variant's client-side p99 regression against the
// first, each pooled over its trials (same machine, same load):
// "monitoring must not tax serving".
//
// Each trial also checks `consistent`: after the stream drains
// (Flush), the served snapshot is saved and compared against a
// from-scratch semi-naive evaluation of initial + streamed facts. The
// bench exits 1 if any trial is inconsistent or the overhead exceeds
// kMaxTelemetryOverheadPct. Client-observed serving latency through
// the socket protocol is the repository benchmark's serve_mixed
// workload (perfbench/).
//
// `bench_serve smoke` shrinks the graph and the op counts.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_util.h"
#include "obs/histogram.h"
#include "server/engine.h"
#include "server/protocol.h"
#include "storage/snapshot.h"

using namespace pdatalog;

namespace {

// The ceiling on mix_95_5_telemetry's p99 regression, in percentage
// points over the plain run.
constexpr double kMaxTelemetryOverheadPct = 10.0;

// Alternating plain/telemetry trial pairs per invocation.
constexpr int kTrials = 9;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Renders the generated base graph as program text so the engine's
// Create() path (which owns its symbol table) seeds the same facts.
std::string RenderFacts(const Database& db, const SymbolTable& symbols,
                        const char* predicate) {
  const Relation* rel = db.Find(symbols.Lookup(predicate));
  std::string out;
  if (rel == nullptr) return out;
  for (size_t r = 0; r < rel->size(); ++r) {
    out += predicate;
    out += '(';
    out += symbols.Name(rel->row(r)[0]);
    out += ", ";
    out += symbols.Name(rel->row(r)[1]);
    out += ").\n";
  }
  return out;
}

// Random non-self-loop edges in the same n<i> node namespace as the
// generators, rendered as "+fact."-style ground atoms (sans '+').
std::vector<std::string> MakeUpdateStream(int num_nodes, size_t count,
                                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> facts;
  facts.reserve(count);
  while (facts.size() < count) {
    int a = static_cast<int>(rng() % static_cast<uint64_t>(num_nodes));
    int b = static_cast<int>(rng() % static_cast<uint64_t>(num_nodes));
    if (a == b) continue;
    facts.push_back("par(n" + std::to_string(a) + ", n" +
                    std::to_string(b) + ").");
  }
  return facts;
}

bool SameRelation(const Database& a, const SymbolTable& sa,
                  const Database& b, const SymbolTable& sb,
                  const char* pred) {
  const Relation* ra = a.Find(sa.Lookup(pred));
  const Relation* rb = b.Find(sb.Lookup(pred));
  if (ra == nullptr || rb == nullptr) {
    return (ra == nullptr || ra->size() == 0) &&
           (rb == nullptr || rb->size() == 0);
  }
  return ra->ToSortedString(sa) == rb->ToSortedString(sb);
}

// Saved snapshot (what clients were served) vs a from-scratch batch
// evaluation over initial + streamed facts: both must agree exactly.
bool CheckConsistency(ServerEngine* engine, const std::string& base_source,
                      const std::vector<std::string>& updates,
                      const std::string& id) {
  std::string dir = "/tmp/pdatalog_bench_serve_" + id;
  StatusOr<size_t> saved = engine->SaveSnapshot(dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s: snapshot save failed: %s\n", id.c_str(),
                 saved.status().ToString().c_str());
    return false;
  }
  SymbolTable served_symbols;
  Database served;
  StatusOr<size_t> loaded = LoadDatabase(dir, &served_symbols, &served);
  (void)!std::system(("rm -rf " + dir).c_str());
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: snapshot load failed: %s\n", id.c_str(),
                 loaded.status().ToString().c_str());
    return false;
  }

  std::string full_source = base_source;
  for (const std::string& fact : updates) full_source += fact + "\n";
  SymbolTable ref_symbols;
  StatusOr<Program> program = ParseProgram(full_source, &ref_symbols);
  if (!program.ok()) bench::AncestorHarness::Die("parse", program.status());
  ProgramInfo info;
  Status status = Validate(*program, &info);
  if (!status.ok()) bench::AncestorHarness::Die("validate", status);
  Database ref;
  status = ref.LoadFacts(*program);
  if (!status.ok()) bench::AncestorHarness::Die("load", status);
  EvalStats stats;
  status = SemiNaiveEvaluate(*program, info, &ref, &stats);
  if (!status.ok()) bench::AncestorHarness::Die("seminaive", status);

  bool ok = SameRelation(served, served_symbols, ref, ref_symbols, "par") &&
            SameRelation(served, served_symbols, ref, ref_symbols, "anc");
  if (!ok) {
    std::fprintf(stderr,
                 "%s: served snapshot diverges from batch evaluation\n",
                 id.c_str());
  }
  return ok;
}

// One GET against the loopback telemetry endpoint; returns the raw
// response ("" on any failure — the scraper is load, not a check).
std::string HttpGet(int port, const char* path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  std::string request = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  if (::write(fd, request.data(), request.size()) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// One mix's results, pooled over all of its trials.
struct MixResult {
  Histogram latency_ns;  // every reader's Query() latencies
  double seconds = 0;
  uint64_t queries = 0;
  size_t updates = 0;
  uint64_t scrapes = 0;
  bool consistent = true;

  double PercentileMs(double p) const { return latency_ns.Percentile(p) / 1e6; }
};

// Runs one trial of a mix and pools its results into `out`.
void RunMix(const std::string& id, const std::string& base_source,
            int num_nodes, int readers, uint64_t queries_per_reader,
            size_t num_updates, uint64_t seed, const ServerOptions& sopts,
            bool scrape, MixResult* out) {
  StatusOr<std::unique_ptr<ServerEngine>> created =
      ServerEngine::Create(base_source, sopts);
  if (!created.ok()) bench::AncestorHarness::Die("serve", created.status());
  ServerEngine* engine = created->get();

  TelemetryHttpServer http(engine);
  if (scrape && !http.Start(0).ok()) {
    bench::AncestorHarness::Die(
        "telemetry", Status::Internal("telemetry endpoint failed to bind"));
  }

  std::vector<std::string> updates =
      MakeUpdateStream(num_nodes, num_updates, seed);

  // Pre-parsed query pool: anc(n<k>, X) over random sources. Readers
  // stride through it so the timed loop is Query() alone — the steady
  // state of a client that prepares statements once.
  std::vector<ParsedQuery> pool;
  std::mt19937_64 qrng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < 128; ++i) {
    std::string text =
        "anc(n" +
        std::to_string(qrng() % static_cast<uint64_t>(num_nodes)) + ", X)";
    StatusOr<ParsedQuery> parsed = engine->Parse(text);
    if (!parsed.ok()) bench::AncestorHarness::Die("query", parsed.status());
    pool.push_back(std::move(*parsed));
  }

  const uint64_t total_queries =
      queries_per_reader * static_cast<uint64_t>(readers);
  std::atomic<uint64_t> queries_done{0};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<bool> stop_scraper{false};
  std::vector<Histogram> lat(static_cast<size_t>(readers));

  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers) + 2);
  if (scrape) {
    // A Prometheus-style poller: scrape /metrics (and /health) through
    // the real HTTP endpoint for the whole run, so the measured
    // overhead includes sampling, merging, and rendering.
    threads.emplace_back([&] {
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        if (!HttpGet(http.port(), "/metrics").empty()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        (void)HttpGet(http.port(), "/health");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Histogram& h = lat[static_cast<size_t>(t)];
      size_t at = static_cast<size_t>(t) * 37 % pool.size();
      for (uint64_t q = 0; q < queries_per_reader; ++q) {
        uint64_t begin = NowNs();
        StatusOr<QueryResult> result = engine->Query(pool[at]);
        h.Record(NowNs() - begin);
        if (!result.ok()) {
          bench::AncestorHarness::Die("query", result.status());
        }
        at = (at + 1) % pool.size();
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // The updater paces itself against reader progress so the submitted
  // fraction tracks the queried fraction — the mix ratio holds across
  // the whole run instead of front-loading every update.
  threads.emplace_back([&] {
    size_t submitted = 0;
    while (submitted < updates.size()) {
      uint64_t done = queries_done.load(std::memory_order_relaxed);
      size_t target = static_cast<size_t>(
          static_cast<double>(updates.size()) *
          static_cast<double>(done) / static_cast<double>(total_queries));
      if (target > updates.size()) target = updates.size();
      if (submitted >= target && done < total_queries) {
        std::this_thread::yield();
        continue;
      }
      if (target == submitted) target = submitted + 1;
      for (; submitted < target; ++submitted) {
        Status status = engine->SubmitFactText(updates[submitted]);
        if (!status.ok()) bench::AncestorHarness::Die("submit", status);
      }
    }
  });
  // The scraper is stopped separately (it never exits on its own).
  for (size_t t = scrape ? 1 : 0; t < threads.size(); ++t) {
    threads[t].join();
  }
  double wall = watch.ElapsedSeconds();
  stop_scraper.store(true, std::memory_order_relaxed);
  if (scrape) threads[0].join();
  engine->Flush();
  http.Stop();

  for (const Histogram& h : lat) out->latency_ns.Merge(h);
  out->seconds += wall;
  out->queries += total_queries;
  out->updates += updates.size();
  out->scrapes += scrapes.load(std::memory_order_relaxed);
  out->consistent =
      CheckConsistency(engine, base_source, updates, id) && out->consistent;
  (*created)->Shutdown();
}

void AddRow(TextTable* table, const char* id, const MixResult& r) {
  const double qps =
      r.seconds == 0 ? 0.0 : static_cast<double>(r.queries) / r.seconds;
  table->AddRow({TextTable::Cell(id), TextTable::Cell(r.queries),
                 TextTable::Cell(static_cast<uint64_t>(r.updates)),
                 TextTable::Cell(qps, 0),
                 TextTable::Cell(r.PercentileMs(50), 4),
                 TextTable::Cell(r.PercentileMs(95), 4),
                 TextTable::Cell(r.PercentileMs(99), 4),
                 TextTable::Cell(r.consistent ? "yes" : "NO")});
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  const int num_nodes = smoke ? 60 : 200;
  const int num_edges = smoke ? 150 : 600;
  const int readers = smoke ? 2 : 4;
  const uint64_t queries_per_reader = smoke ? 600 : 8000;

  // Zipf-skewed base graph: hot target nodes, dense closure regions.
  SymbolTable gen_symbols;
  Database gen_db;
  size_t base_edges = GenZipfGraph(&gen_symbols, &gen_db, "par", num_nodes,
                                   num_edges, 1.0, 0x5eed);
  std::string base_source =
      std::string(bench::kAncestorSource) +
      RenderFacts(gen_db, gen_symbols, "par");

  std::printf(
      "serving engine: %d reader thread(s) + 1 updater over ancestor on a\n"
      "Zipf graph (%d nodes, %zu base edges). Queries answer against\n"
      "pinned snapshots; updates stream through the incremental\n"
      "maintenance thread in batches.\n\n",
      readers, num_nodes, base_edges);

  // 95/5 read/update ratio over total operations.
  const size_t num_updates = static_cast<size_t>(
      queries_per_reader * static_cast<uint64_t>(readers) / 19);

  // The plain mix runs with telemetry fully off (no sampler thread) so
  // the telemetry re-run measures the whole stack's cost.
  ServerOptions plain_opts;
  plain_opts.sample_interval_ms = 0;
  // The same mix with the monitoring stack live: sampler + windows,
  // slow-query tracing, and a 20 ms HTTP scrape loop.
  ServerOptions telemetry_opts;
  telemetry_opts.sample_interval_ms = 200;
  telemetry_opts.slow_query_ms = 50;

  // Plain and telemetry trials alternate, and each mix pools its
  // latencies over all of its trials, so neither a warm-up run nor one
  // scheduling hiccup decides the p99 comparison.
  MixResult plain;
  MixResult live;
  for (int trial = 0; trial < kTrials; ++trial) {
    RunMix("mix_95_5", base_source, num_nodes, readers, queries_per_reader,
           num_updates, 0xfeed, plain_opts, /*scrape=*/false, &plain);
    RunMix("mix_95_5_telemetry", base_source, num_nodes, readers,
           queries_per_reader, num_updates, 0xfeed, telemetry_opts,
           /*scrape=*/true, &live);
  }
  const double plain_p99 = plain.PercentileMs(99);
  const double overhead_pct =
      plain_p99 <= 0 ? 0.0 : (live.PercentileMs(99) / plain_p99 - 1.0) * 100.0;

  TextTable table({"mix", "queries", "updates", "qps", "p50 ms", "p95 ms",
                   "p99 ms", "consistent"});
  AddRow(&table, "mix_95_5", plain);
  AddRow(&table, "mix_95_5_telemetry", live);
  std::printf("telemetry run: %llu /metrics scrapes, p99 overhead %+.1f%%\n",
              static_cast<unsigned long long>(live.scrapes), overhead_pct);
  table.Print();
  std::printf(
      "\nreading guide: qps is sustained reader throughput while the\n"
      "update stream is live; p99 ms is the client-observed tail.\n"
      "`consistent` compares the final served snapshot against a\n"
      "from-scratch batch evaluation of initial + streamed facts.\n"
      "The p99 overhead is mix_95_5_telemetry's p99 regression against\n"
      "the plain mix_95_5 run of this same invocation.\n");
  if (!plain.consistent || !live.consistent) {
    std::fprintf(stderr, "bench_serve: consistency check FAILED\n");
    return 1;
  }
  if (overhead_pct > kMaxTelemetryOverheadPct) {
    std::fprintf(stderr,
                 "bench_serve: telemetry p99 overhead %+.1f%% exceeds "
                 "%+.0f%%\n",
                 overhead_pct, kMaxTelemetryOverheadPct);
    return 1;
  }
  return 0;
}

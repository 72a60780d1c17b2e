// The resident serving engine: snapshot-isolated concurrent reads over
// a live incrementally-maintained fixpoint, the line protocol, and the
// socket listener. The concurrency tests are the reason this target
// runs under the TSan CI job.
#include "server/engine.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "server/protocol.h"
#include "test_util.h"
#include "util/hash.h"

namespace pdatalog {
namespace {

constexpr char kChainProgram[] = R"(
  anc(X, Y) :- par(X, Y).
  anc(X, Y) :- par(X, Z), anc(Z, Y).
  par(n0, n1).
)";

std::string NodeName(int i) { return "n" + std::to_string(i); }

// par(n0,n1) ... par(n{k-1},nk) -- a k-edge chain whose closure has
// exactly k(k+1)/2 pairs. The tests' consistency oracle.
size_t ClosureSize(size_t chain_edges) {
  return chain_edges * (chain_edges + 1) / 2;
}

TEST(ServerEngineTest, InitialFixpointServesQueries) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->epoch(), 1u);

  StatusOr<QueryResult> anc = (*engine)->QueryText("anc(n0, X)");
  ASSERT_TRUE(anc.ok());
  EXPECT_EQ(anc->bindings.size(), 1u);
  EXPECT_EQ((*engine)->Render(*anc), "X = n1\n");

  StatusOr<QueryResult> ground = (*engine)->QueryText("anc(n0, n1).");
  ASSERT_TRUE(ground.ok());
  EXPECT_TRUE(ground->IsBoolean());
  EXPECT_TRUE(ground->Holds());
}

TEST(ServerEngineTest, FlushIsReadYourWrites) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  for (int i = 1; i < 8; ++i) {
    ASSERT_TRUE((*engine)
                    ->SubmitFactText("par(" + NodeName(i) + ", " +
                                     NodeName(i + 1) + ")")
                    .ok());
  }
  uint64_t epoch = (*engine)->Flush();
  EXPECT_GT(epoch, 1u);
  StatusOr<QueryResult> anc = (*engine)->QueryText("anc(n0, X)");
  ASSERT_TRUE(anc.ok());
  EXPECT_EQ(anc->bindings.size(), 8u);  // n0 reaches n1..n8
}

TEST(ServerEngineTest, SubmitValidatesSynchronously) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  // Derived predicate.
  EXPECT_FALSE((*engine)->SubmitFactText("anc(a, b)").ok());
  // Unknown predicate.
  EXPECT_FALSE((*engine)->SubmitFactText("edge(a, b)").ok());
  // Arity mismatch.
  EXPECT_FALSE((*engine)->SubmitFactText("par(a, b, c)").ok());
  // Not ground.
  EXPECT_FALSE((*engine)->SubmitFactText("par(a, X)").ok());
  // Not a fact.
  EXPECT_FALSE((*engine)->SubmitFactText("par(a, b) :- par(b, a)").ok());
  EXPECT_FALSE((*engine)->SubmitFactText("").ok());
  // Nothing reached the queue; the fixpoint is untouched.
  EXPECT_EQ((*engine)->Flush(), 1u);
}

TEST(ServerEngineTest, MalformedQueriesErrorCleanly) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  for (const char* bad :
       {"", "anc(", "anc(a, b", ":-", "anc(a,b). anc(c,d)",
        "anc(X, Y) :- par(X, Y)"}) {
    EXPECT_FALSE((*engine)->QueryText(bad).ok()) << "'" << bad << "'";
  }
  // Unknown predicate is an empty answer, not an error (like an empty
  // relation).
  StatusOr<QueryResult> unknown = (*engine)->QueryText("nosuch(X)");
  ASSERT_TRUE(unknown.ok());
  EXPECT_TRUE(unknown->bindings.empty());
}

// The tentpole invariant: reader threads racing a streaming updater
// only ever observe epoch-consistent fixpoints — for a chain prefix of
// k edges, exactly k(k+1)/2 closure pairs — and epochs never move
// backwards. Runs under TSan in CI.
TEST(ServerEngineTest, ConcurrentReadersSeeConsistentSnapshots) {
  ServerOptions options;
  options.max_batch = 4;  // force many publication points
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram, options);
  ASSERT_TRUE(engine.ok());
  ServerEngine* server = engine->get();
  // Pre-parse the probe query so readers exercise the lock-free path.
  StatusOr<ParsedQuery> probe = server->Parse("anc(n0, X)");
  ASSERT_TRUE(probe.ok());

  constexpr int kEdges = 48;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      size_t last_rows = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const ServerSnapshot> snap = server->snapshot();
        if (snap->epoch < last_epoch) ++violations;
        const RelationView* par = nullptr;
        const RelationView* anc = nullptr;
        for (const auto& [pred, view] : snap->view.relations()) {
          if (view.arity() == 2) {
            // Identify by size order below; resolve names lock-free is
            // impossible, so probe both assignments.
            if (par == nullptr) {
              par = &view;
            } else {
              anc = &view;
            }
          }
        }
        if (par != nullptr && anc != nullptr) {
          size_t small = std::min(par->size(), anc->size());
          size_t big = std::max(par->size(), anc->size());
          if (big != ClosureSize(small)) ++violations;
          if (big < last_rows) ++violations;  // monotone growth
          last_rows = big;
        }
        last_epoch = snap->epoch;
        if ((r % 2) == 0) {
          // Half the readers also exercise the full query path.
          StatusOr<QueryResult> result = server->Query(*probe);
          if (!result.ok()) ++violations;
        }
      }
    });
  }

  for (int i = 1; i < kEdges; ++i) {
    ASSERT_TRUE(server
                    ->SubmitFactText("par(" + NodeName(i) + ", " +
                                     NodeName(i + 1) + ")")
                    .ok());
    if (i % 7 == 0) server->Flush();
  }
  server->Flush();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Bit-identical to a from-scratch batch evaluation over the same
  // facts (the acceptance criterion).
  SymbolTable symbols;
  Program program =
      testing_util::ParseOrDie(kChainProgram, &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  Database batch;
  ASSERT_TRUE(batch.LoadFacts(program).ok());
  Relation& par_rel = batch.GetOrCreate(symbols.Intern("par"), 2);
  for (int i = 1; i < kEdges; ++i) {
    par_rel.Insert(Tuple{symbols.Intern(NodeName(i)),
                         symbols.Intern(NodeName(i + 1))});
  }
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &batch, &stats).ok());

  std::shared_ptr<const ServerSnapshot> final_snap = server->snapshot();
  StatusOr<QueryResult> all = server->QueryText("anc(X, Y)");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->bindings.size(),
            batch.Find(symbols.Lookup("anc"))->size());
  EXPECT_EQ(final_snap->view.Find(server->Parse("anc(X, Y)")->atom.predicate)
                ->size(),
            ClosureSize(kEdges));
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Bound queries probe the column indexes frozen with each epoch while
// the maintenance thread streams facts, reusing an index while the
// tail is short and rebuilding it as anc outgrows it. For every key,
// an answer never loses a binding from one epoch to the next, and the
// final answers equal a from-scratch evaluation. Runs under TSan in CI.
TEST(ServerEngineTest, IndexedReadsNeverShrinkWhileFactsStream) {
  ServerOptions options;
  options.max_batch = 3;  // many epochs
  options.sample_interval_ms = 0;
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram, options);
  ASSERT_TRUE(engine.ok());
  ServerEngine* server = engine->get();

  constexpr int kNodes = 24;
  constexpr int kFacts = 90;
  constexpr int kReaders = 3;
  std::vector<std::string> texts;
  for (int k = 0; k < kNodes; ++k) {
    texts.push_back("anc(" + NodeName(k) + ", X)");
    texts.push_back("anc(X, " + NodeName(k) + ")");
  }
  std::vector<ParsedQuery> probes;
  for (const std::string& text : texts) {
    StatusOr<ParsedQuery> probe = server->Parse(text);
    ASSERT_TRUE(probe.ok());
    probes.push_back(*probe);
  }

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<std::vector<Value>> last(probes.size());
      while (!done.load(std::memory_order_acquire)) {
        for (size_t i = 0; i < probes.size(); ++i) {
          StatusOr<QueryResult> result = server->Query(probes[i]);
          if (!result.ok()) {
            ++violations;
            continue;
          }
          std::vector<Value> now;
          for (const Tuple& t : result->bindings) now.push_back(t[0]);
          std::sort(now.begin(), now.end());
          if (std::adjacent_find(now.begin(), now.end()) != now.end() ||
              !std::includes(now.begin(), now.end(), last[i].begin(),
                             last[i].end())) {
            ++violations;
          }
          last[i] = std::move(now);
          ++answered;
        }
      }
    });
  }

  SplitMix64 rng(42);
  std::vector<std::pair<int, int>> edges;
  for (int f = 0; f < kFacts; ++f) {
    const int from = static_cast<int>(rng.NextBelow(kNodes));
    const int to = static_cast<int>(rng.NextBelow(kNodes));
    edges.emplace_back(from, to);
    ASSERT_TRUE(server
                    ->SubmitFactText("par(" + NodeName(from) + ", " +
                                     NodeName(to) + ")")
                    .ok());
    if (f % 10 == 9) server->Flush();
  }
  server->Flush();
  // Let the readers answer a full round from the final epoch.
  const uint64_t target = answered.load() + kReaders * probes.size();
  while (answered.load() < target) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  SymbolTable symbols;
  Program program = testing_util::ParseOrDie(kChainProgram, &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  Database batch;
  ASSERT_TRUE(batch.LoadFacts(program).ok());
  Relation& par_rel = batch.GetOrCreate(symbols.Intern("par"), 2);
  for (const auto& [from, to] : edges) {
    par_rel.Insert(Tuple{symbols.Intern(NodeName(from)),
                         symbols.Intern(NodeName(to))});
  }
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &batch, &stats).ok());
  for (const std::string& text : texts) {
    StatusOr<QueryResult> served = server->QueryText(text);
    StatusOr<QueryResult> expected = EvaluateQuery(text, &symbols, batch);
    ASSERT_TRUE(served.ok() && expected.ok());
    EXPECT_EQ(SortedLines(server->Render(*served)),
              SortedLines(expected->ToString(symbols)))
        << text;
  }
}

TEST(ServerEngineTest, ShutdownDrainsPendingUpdates) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  for (int i = 1; i < 20; ++i) {
    ASSERT_TRUE((*engine)
                    ->SubmitFactText("par(" + NodeName(i) + ", " +
                                     NodeName(i + 1) + ")")
                    .ok());
  }
  (*engine)->Shutdown();
  // Everything submitted before shutdown is in the final snapshot.
  EXPECT_EQ((*engine)->snapshot()->view.total_rows(),
            20u + ClosureSize(20));
  // New submissions are refused, queries still answer.
  EXPECT_FALSE((*engine)->SubmitFactText("par(x, y)").ok());
  EXPECT_TRUE((*engine)->QueryText("anc(n0, X)").ok());
}

TEST(ServerEngineTest, SaveSnapshotRoundTrips) {
  std::string dir = "/tmp/pdatalog_server_test_" +
                    std::to_string(static_cast<unsigned>(::getpid()));
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->SubmitFactText("par(n1, n2)").ok());
  (*engine)->Flush();
  StatusOr<size_t> saved = (*engine)->SaveSnapshot(dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(*saved, 2u);

  SymbolTable symbols;
  Database loaded;
  ASSERT_TRUE(LoadDatabase(dir, &symbols, &loaded).ok());
  EXPECT_EQ(loaded.Find(symbols.Lookup("anc"))->size(), 3u);
  std::string cmd = "rm -rf " + dir;
  (void)!std::system(cmd.c_str());
}

TEST(ServerEngineTest, TraceSpansAndStatsRecorded) {
  ServerOptions options;
  options.trace = true;
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->SubmitFactText("par(n1, n2)").ok());
  (*engine)->Flush();
  ASSERT_TRUE((*engine)->QueryText("anc(n0, X)").ok());

  Tracer* tracer = (*engine)->tracer();
  ASSERT_NE(tracer, nullptr);
  bool saw_apply = false, saw_maintain = false, saw_query = false;
  for (int ring = 0; ring < tracer->num_rings(); ++ring) {
    const TraceRing& r = *tracer->ring(ring);
    for (size_t i = 0; i < r.size(); ++i) {
      if (r.event(i).phase == TracePhase::kApply) saw_apply = true;
      if (r.event(i).phase == TracePhase::kMaintain) saw_maintain = true;
      if (r.event(i).phase == TracePhase::kQuery) saw_query = true;
    }
  }
  EXPECT_TRUE(saw_apply);
  EXPECT_TRUE(saw_maintain);
  EXPECT_TRUE(saw_query);

  MetricsRegistry metrics = (*engine)->MetricsCopy();
  ASSERT_NE(metrics.FindHistogram("hist.query_ns"), nullptr);
  ASSERT_NE(metrics.FindHistogram("hist.update_batch_ns"), nullptr);
  EXPECT_EQ(metrics.FindHistogram("hist.query_ns")->count(), 1u);
  EXPECT_GE(metrics.counter("serve.update_batches"), 1u);

  std::string stats = (*engine)->StatsReport();
  EXPECT_NE(stats.find("epoch"), std::string::npos);
  EXPECT_NE(stats.find("hist.query_ns"), std::string::npos);
}

// The lifetime histograms are the sliding windows' lifetimes: one record
// per query and per maintenance batch, kept after the windows rotate on.
TEST(ServerEngineTest, LifetimeHistogramsCountEveryQueryAndBatch) {
  ServerOptions options;
  options.sample_interval_ms = 1;
  options.window_intervals = 1;
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram, options);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*engine)
                    ->SubmitFactText("par(" + NodeName(i + 1) + ", " +
                                     NodeName(i + 2) + ")")
                    .ok());
    (*engine)->Flush();
    for (int q = 0; q < 4; ++q) {
      ASSERT_TRUE((*engine)->QueryText("anc(n0, X)").ok());
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  MetricsRegistry metrics = (*engine)->MetricsCopy();
  const Histogram* query = metrics.FindHistogram("hist.query_ns");
  const Histogram* update = metrics.FindHistogram("hist.update_batch_ns");
  ASSERT_NE(query, nullptr);
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(query->count(), metrics.counter("serve.queries"));
  EXPECT_EQ(query->count(), 12u);
  EXPECT_EQ(update->count(), metrics.counter("serve.update_batches"));
  EXPECT_GE(update->count(), 3u);
}

// --- protocol ------------------------------------------------------

TEST(ProtocolTest, VerbsRoundTrip) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  ServerEngine* server = engine->get();

  EXPECT_EQ(HandleRequest(server, "+par(n1, n2).").text, "ok\n");
  EXPECT_EQ(HandleRequest(server, "!flush").text, "ok epoch 2\n");
  EXPECT_EQ(HandleRequest(server, "?- anc(n0, X).").text,
            "X = n1\nX = n2\nok 2\n");
  EXPECT_EQ(HandleRequest(server, "? anc(n0, n2).").text, "true\nok 1\n");
  EXPECT_EQ(HandleRequest(server, "?- anc(n2, n0).").text,
            "false\nok 0\n");

  ProtocolReply stats = HandleRequest(server, "!stats");
  EXPECT_NE(stats.text.find("epoch 2"), std::string::npos);
  EXPECT_EQ(stats.text.substr(stats.text.size() - 3), "ok\n");

  ProtocolReply quit = HandleRequest(server, "!quit");
  EXPECT_TRUE(quit.quit);
  EXPECT_EQ(quit.text, "ok bye\n");

  // Blank and comment lines are ignored.
  EXPECT_EQ(HandleRequest(server, "").text, "");
  EXPECT_EQ(HandleRequest(server, "   \t").text, "");
  EXPECT_EQ(HandleRequest(server, "% a comment").text, "");
}

TEST(ProtocolTest, ErrorsAreCleanSingleLines) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  ServerEngine* server = engine->get();
  ProtocolOptions no_snapshot;
  no_snapshot.allow_snapshot = false;

  for (const char* line :
       {"?- anc(", "+nosuch(a, b).", "+par(a).", "+anc(a, b).",
        "!bogus", "!snapshot", "garbage", "?- anc(a,b). anc(c,d)."}) {
    ProtocolReply reply = HandleRequest(server, line, no_snapshot);
    ASSERT_FALSE(reply.text.empty()) << "'" << line << "'";
    EXPECT_EQ(reply.text.substr(0, 4), "err ") << "'" << line << "'";
    EXPECT_EQ(reply.text.find('\n'), reply.text.size() - 1)
        << "'" << line << "'";
    EXPECT_FALSE(reply.quit);
  }
  EXPECT_EQ(HandleRequest(server, "!snapshot /tmp/x", no_snapshot).text,
            "err snapshot is disabled\n");
}

TEST(ProtocolTest, ServeLoopStdio) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  std::istringstream in(
      "+par(n1, n2).\n!flush\n?- anc(n0, X).\n!quit\nignored after quit\n");
  std::ostringstream out;
  ServeLoop(engine->get(), in, out);
  EXPECT_EQ(out.str(),
            "ok\nok epoch 2\nX = n1\nX = n2\nok 2\nok bye\n");
}

// --- socket listener -----------------------------------------------

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one request line and reads until the terminating ok/err line.
std::string Exchange(int fd, const std::string& line) {
  std::string request = line + "\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char c;
  std::string current;
  while (true) {
    ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) break;
    reply += c;
    if (c != '\n') {
      current += c;
      continue;
    }
    if (current.rfind("ok", 0) == 0 || current.rfind("err", 0) == 0) {
      break;
    }
    current.clear();
  }
  return reply;
}

TEST(SocketServerTest, ServesConcurrentClients) {
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(kChainProgram);
  ASSERT_TRUE(engine.ok());
  SocketServer server(engine->get());
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  int c1 = ConnectLoopback(server.port());
  int c2 = ConnectLoopback(server.port());
  ASSERT_GE(c1, 0);
  ASSERT_GE(c2, 0);

  EXPECT_EQ(Exchange(c1, "+par(n1, n2)."), "ok\n");
  EXPECT_EQ(Exchange(c1, "!flush"), "ok epoch 2\n");
  // The second client sees the first client's update.
  EXPECT_EQ(Exchange(c2, "?- anc(n0, n2)."), "true\nok 1\n");
  EXPECT_EQ(Exchange(c2, "nonsense"),
            "err unrecognized request (try '?- atom.', '+fact.', "
            "'!stats', '!flush', '!quit')\n");
  EXPECT_EQ(Exchange(c1, "!quit"), "ok bye\n");
  ::close(c1);

  // Stop with a connection still open: must not hang or crash.
  server.Stop();
  ::close(c2);
}

}  // namespace
}  // namespace pdatalog

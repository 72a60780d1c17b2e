// The serving workload (serve_mixed): a resident ServerEngine over
// ancestor on a Zipf graph, behind a loopback SocketServer, driven by one
// client thread running an open loop with ppoll() over two connections:
//
//   A: `?- anc(nK, X).` at a fixed rate;
//   B: `+par(a, b).` followed by `!flush`, at about a quarter of that
//      rate (enough flushes for a p99 with ten samples beyond it).
//
// Every request is timed from when it was due, so a stall also charges
// the requests queued behind it; the median query wait is the workload's
// latency_p50_ms. After the stream drains, the published snapshot is
// checked against a from-scratch evaluation of base + streamed facts.
// Then set-up samples alternate with rebuilds: the same facts
// re-materialized from scratch with RunParallel (Example 1, 4 workers),
// the work incremental maintenance avoids (this workload's fixpoint_s).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <deque>
#include <random>
#include <sstream>

#include "common.h"
#include "datalog/fact_io.h"
#include "datalog/query.h"
#include "obs/trace.h"
#include "server/engine.h"
#include "server/protocol.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kProcessors = 4;
// A reply later than this counts as failed (it missed any sane limit).
constexpr double kLateReplyS = 1.0;
// Open-loop validity: the generator may run this late at p99 ...
constexpr double kMaxGenLateP99Ms = 10.0;
// The base graph is one fixed draw of the Zipf generator; --seed varies
// the query keys and the update stream. The closure of a 1,000-node Zipf
// graph swings by ~30% between draws (how much of it the giant strongly
// connected component takes), and every served query scans all of it,
// so a seeded graph would make the run-to-run spread measure the draw.
constexpr uint64_t kGraphSeed = 1;

struct ServeSizes {
  int nodes = 1000;
  int edges = 3000;
  // About a third of one connection's capacity (a query scans the whole
  // anc snapshot, ~1.5 ms on one core of a shared 4-core x86 host): at
  // half capacity, queueing behind updates made the client-side median
  // swing by 10% between runs.
  double query_rate = 200;   // per second, connection A
  double update_rate = 45;   // per second, connection B
  int min_samples = 3;       // set-up and rebuild samples after the stream
  size_t sampled = 300;      // direct Parse/Query/Render/HandleRequest calls
};

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& text) {
  size_t done = 0;
  while (done < text.size()) {
    ssize_t n = ::send(fd, text.data() + done, text.size() - done,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

// One live server: engine, listener, and the client's two connections.
struct Live {
  std::unique_ptr<ServerEngine> engine;
  std::unique_ptr<SocketServer> server;
  int fd_query = -1;
  int fd_update = -1;

  ~Live() {
    if (fd_query >= 0) ::close(fd_query);
    if (fd_update >= 0) ::close(fd_update);
    server.reset();  // Stop(): joins every connection thread
    engine.reset();  // Shutdown(): joins the maintenance thread
  }
};

// Set-up as a client sees it: ServerEngine::Create (parse, validate,
// initial materialization), SocketServer::Start, and both connections.
StatusOr<std::unique_ptr<Live>> StartLive(const std::string& source,
                                          bool trace) {
  auto live = std::make_unique<Live>();
  ServerOptions sopts;
  sopts.sample_interval_ms = 0;  // sampler off
  sopts.trace = trace;
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(source, sopts);
  if (!engine.ok()) return engine.status();
  live->engine = std::move(*engine);
  ProtocolOptions popts;
  popts.allow_snapshot = false;
  live->server = std::make_unique<SocketServer>(live->engine.get(), popts);
  PDATALOG_RETURN_IF_ERROR(live->server->Start(0));
  live->fd_query = Connect(live->server->port());
  live->fd_update = Connect(live->server->port());
  if (live->fd_query < 0 || live->fd_update < 0) {
    return Status::Internal("connect to the loopback server failed");
  }
  return live;
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The open-loop client's view of one connection.
struct Conn {
  int fd = -1;
  std::string buffer;
  struct InFlight {
    double due = 0;
    double sent = 0;
    size_t lines = 0;  // binding lines seen so far (queries)
    int stage = 0;     // replies seen so far (updates: "ok", "ok epoch")
  };
  std::deque<InFlight> pending;
};

struct StreamStats {
  std::vector<double> query_ms, query_rtt_ms, flush_ms, late_ms;
  std::vector<double> backlog;  // in-flight requests at each query send
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t late = 0;
  std::vector<std::string> errors;
};

void Error(StreamStats* s, const std::string& what) {
  ++s->failed;
  if (s->errors.size() < 5) s->errors.push_back(what);
}

// Consumes complete reply lines on `c`; `query` selects the framing.
void ConsumeReplies(Conn* c, bool query, double now, StreamStats* s) {
  size_t start = 0;
  size_t nl;
  while ((nl = c->buffer.find('\n', start)) != std::string::npos) {
    std::string_view line(c->buffer.data() + start, nl - start);
    start = nl + 1;
    if (c->pending.empty()) {
      Error(s, "unsolicited reply line");
      continue;
    }
    Conn::InFlight& head = c->pending.front();
    const bool ok = line.substr(0, 2) == "ok";
    const bool err = line.substr(0, 3) == "err";
    if (query && !ok && !err) {
      ++head.lines;  // a binding line
      continue;
    }
    if (err) {
      Error(s, "err reply: " + std::string(line));
      c->pending.pop_front();
      continue;
    }
    if (query) {
      // "ok N": N binding lines preceded it.
      size_t count = 0;
      const std::string_view digits =
          line.substr(std::min<size_t>(3, line.size()));
      const auto parsed =
          std::from_chars(digits.data(), digits.data() + digits.size(), count);
      if (digits.empty() || parsed.ec != std::errc() ||
          parsed.ptr != digits.data() + digits.size() || count != head.lines) {
        Error(s, "malformed query reply");
      } else if (now - head.due > kLateReplyS) {
        ++s->late;
        ++s->failed;
      } else {
        s->query_ms.push_back((now - head.due) * 1e3);
        s->query_rtt_ms.push_back((now - head.sent) * 1e3);
      }
      c->pending.pop_front();
      continue;
    }
    // Updates: "ok" for the fact, then "ok epoch E" for the flush.
    if (head.stage == 0) {
      if (line != "ok") Error(s, "malformed update reply");
      head.stage = 1;
      continue;
    }
    if (line.substr(0, 8) != "ok epoch") {
      Error(s, "malformed flush reply");
    } else if (now - head.due > kLateReplyS) {
      ++s->late;
      ++s->failed;
    } else {
      s->flush_ms.push_back((now - head.due) * 1e3);
    }
    c->pending.pop_front();
  }
  c->buffer.erase(0, start);
}

bool ReadAvailable(Conn* c) {
  char chunk[65536];
  ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EINTR)) return true;
  if (n <= 0) return false;
  c->buffer.append(chunk, static_cast<size_t>(n));
  int one = 1;  // ACK at once: keeps Nagle on the server side from
                // holding the next small reply for a delayed ACK
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  return true;
}

StreamStats RunOpenLoop(int fd_query, int fd_update,
                        const std::vector<int>& keys,
                        const std::vector<UpdateEdge>& updates,
                        const ServeSizes& size) {
  StreamStats s;
  Conn a, b;
  a.fd = fd_query;
  b.fd = fd_update;
  const double t0 = NowSeconds() + 0.01;
  auto due_query = [&](size_t i) { return t0 + i / size.query_rate; };
  auto due_update = [&](size_t i) {
    return t0 + (i + 0.5) / size.update_rate;
  };
  const double stream_end =
      std::max(keys.empty() ? t0 : due_query(keys.size() - 1),
               updates.empty() ? t0 : due_update(updates.size() - 1));
  const double deadline = stream_end + 10.0;
  size_t iq = 0, iu = 0;
  while (true) {
    double now = NowSeconds();
    while (iq < keys.size() && due_query(iq) <= now) {
      const double due = due_query(iq);
      s.late_ms.push_back((now - due) * 1e3);
      s.backlog.push_back(
          static_cast<double>(a.pending.size() + b.pending.size()));
      ++s.attempted;
      if (!SendAll(a.fd, "?- anc(n" + std::to_string(keys[iq]) + ", X).\n")) {
        Error(&s, "query send failed");
      } else {
        a.pending.push_back({due, NowSeconds(), 0, 0});
      }
      ++iq;
      now = NowSeconds();
    }
    while (iu < updates.size() && due_update(iu) <= now) {
      const double due = due_update(iu);
      s.late_ms.push_back((now - due) * 1e3);
      ++s.attempted;
      const UpdateEdge& u = updates[iu];
      if (!SendAll(b.fd, "+par(" + u.from + ", " + u.to + ").\n!flush\n")) {
        Error(&s, "update send failed");
      } else {
        b.pending.push_back({due, NowSeconds(), 0, 0});
      }
      ++iu;
      now = NowSeconds();
    }
    const bool all_sent = iq == keys.size() && iu == updates.size();
    if (all_sent && a.pending.empty() && b.pending.empty()) break;
    if (now > deadline) break;
    double next = now + 0.05;
    if (iq < keys.size()) next = std::min(next, due_query(iq));
    if (iu < updates.size()) next = std::min(next, due_update(iu));
    const double wait = std::max(0.0, next - now);
    timespec timeout{static_cast<time_t>(wait),
                     static_cast<long>((wait - std::floor(wait)) * 1e9)};
    pollfd fds[2] = {{a.fd, POLLIN, 0}, {b.fd, POLLIN, 0}};
    int ready = ::ppoll(fds, 2, &timeout, nullptr);
    if (ready <= 0) continue;
    for (int k = 0; k < 2; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn* c = k == 0 ? &a : &b;
      if (!ReadAvailable(c)) {
        Error(&s, "connection closed by the server");
        return s;
      }
      ConsumeReplies(c, k == 0, NowSeconds(), &s);
    }
  }
  for (size_t i = 0; i < a.pending.size() + b.pending.size(); ++i) {
    Error(&s, "missing reply");
  }
  return s;
}

double Mean(const std::vector<double>& v, size_t begin, size_t end) {
  double sum = 0;
  for (size_t i = begin; i < end; ++i) sum += v[i];
  return end > begin ? sum / static_cast<double>(end - begin) : 0.0;
}

}  // namespace

RunRecord RunServe(const Options& options) {
  RunRecord record;
  StampEnvironment(options, &record);
  ServeSizes size;
  if (options.smoke) size = {150, 450, 100, 25, 2, 30};
  const double stream_s = std::max(1.0, 0.65 * options.seconds);
  record.NoteNumber("env.nodes", size.nodes);
  record.NoteNumber("env.edges", size.edges);
  record.NoteNumber("env.zipf_exponent", 1.0);
  record.NoteNumber("env.query_rate_per_s", size.query_rate);
  record.NoteNumber("env.update_rate_per_s", size.update_rate);
  record.NoteNumber("env.stream_s", stream_s);
  record.NoteNumber("env.rebuild_processors", kProcessors);
  record.Note("env.rebuild_scheme", "example1");

  // Inputs, outside every timed region.
  const std::vector<Edge> edges =
      ZipfGraphEdges(size.nodes, size.edges, 1.0, kGraphSeed);
  std::string source = kAncestorRules;
  for (const auto& [x, y] : edges) {
    source += "par(n" + std::to_string(x) + ", n" + std::to_string(y) + ").\n";
  }
  const size_t num_queries = static_cast<size_t>(stream_s * size.query_rate);
  const size_t num_updates = static_cast<size_t>(stream_s * size.update_rate);
  const std::vector<UpdateEdge> updates =
      UpdateStream(edges, size.nodes, num_updates, options.seed);
  std::mt19937_64 rng(options.seed * 7919 + 17);
  std::vector<int> keys(num_queries);
  for (int& k : keys) k = static_cast<int>(rng() % size.nodes);
  std::string all_tsv = EdgesTsv(edges);
  for (const UpdateEdge& u : updates) all_tsv += u.from + "\t" + u.to + "\n";

  // --- set-up: Create (initial materialization) + listener + connect ---
  const double start = NowSeconds();
  std::vector<double> setup_s;
  StatusOr<std::unique_ptr<Live>> started = StartLive(source, options.trace);
  if (!started.ok()) {
    record.Fail(started.status().ToString());
    return record;
  }
  setup_s.push_back(NowSeconds() - start);
  std::unique_ptr<Live> live = std::move(*started);
  ServerEngine* engine = live->engine.get();

  // --- the open loop --------------------------------------------------
  StreamStats stream =
      RunOpenLoop(live->fd_query, live->fd_update, keys, updates, size);
  record.attempted += stream.attempted;
  record.failed += stream.failed;
  for (const std::string& e : stream.errors) record.Fail(e);
  const double gen_late_p99 = Quantile(stream.late_ms, 0.99);
  const size_t fifth = stream.backlog.size() / 5;
  const double backlog_first = Mean(stream.backlog, 0, fifth);
  const double backlog_last =
      Mean(stream.backlog, stream.backlog.size() - fifth, stream.backlog.size());
  record.NoteNumber("server.gen_late_p99_ms", gen_late_p99);
  record.NoteNumber("stream.backlog_first_fifth", backlog_first);
  record.NoteNumber("stream.backlog_last_fifth", backlog_last);
  record.NoteNumber("stream.late_replies", static_cast<double>(stream.late));
  if (gen_late_p99 > kMaxGenLateP99Ms) {
    record.invalid = "generator ran late: p99 " + JsonNumber(gen_late_p99) +
                     " ms > " + JsonNumber(kMaxGenLateP99Ms) + " ms";
  } else if (backlog_last > 2.0 * backlog_first + 8.0) {
    record.invalid = "reply backlog grew from " + JsonNumber(backlog_first) +
                     " to " + JsonNumber(backlog_last) + " in flight";
  }

  // --- server-side numbers (before any direct call touches them) -------
  MetricsRegistry metrics = engine->MetricsCopy();
  auto hist_ms = [&](const char* name, double p) {
    const Histogram* h = metrics.FindHistogram(name);
    return h == nullptr ? 0.0 : h->Percentile(p) / 1e6;
  };
  const double batches =
      std::max<uint64_t>(1, metrics.counter("serve.update_batches"));
  const double applied = static_cast<double>(metrics.counter("serve.updates_applied"));
  const double duplicate =
      static_cast<double>(metrics.counter("serve.updates_duplicate"));
  const double derived =
      static_cast<double>(metrics.counter("serve.derived_inserted"));
  record.Set("server.query_ns_p50", hist_ms("hist.query_ns", 50) * 1e6, "ns");
  record.Set("server.query_ns_p99", hist_ms("hist.query_ns", 99) * 1e6, "ns");
  record.Set("server.batch_ms_p50", hist_ms("hist.update_batch_ns", 50), "ms");
  record.Set("server.batch_ms_p99", hist_ms("hist.update_batch_ns", 99), "ms");
  record.Set("server.flush_wait_p99_ms", hist_ms("hist.flush_wait_ns", 99), "ms");
  record.Set("server.facts_per_batch", (applied + duplicate) / batches, "count");
  record.Set("server.derived_per_fact",
             derived / std::max(1.0, applied + duplicate), "ratio");
  record.Set("server.duplicate_share",
             duplicate / std::max(1.0, applied + duplicate), "ratio");
  record.Set("server.epochs", static_cast<double>(engine->epoch()), "count");
  if (engine->tracer() != nullptr) {
    // Maintenance ring: kApply / kMaintain spans, mean per batch.
    const TraceRing& ring = *engine->tracer()->ring(0);
    uint64_t sums[kNumSpanPhases] = {};
    uint64_t open[kNumSpanPhases] = {};
    for (size_t i = 0; i < ring.size(); ++i) {
      const TraceEvent& e = ring.event(i);
      const int p = static_cast<int>(e.phase);
      if (p >= kNumSpanPhases) continue;
      if (e.kind == TraceEventKind::kBegin) open[p] = e.ts;
      if (e.kind == TraceEventKind::kEnd) sums[p] += e.ts - open[p];
    }
    record.Set("server.apply_ms",
               sums[static_cast<int>(TracePhase::kApply)] / 1e6 / batches, "ms");
    record.Set("server.maintain_ms",
               sums[static_cast<int>(TracePhase::kMaintain)] / 1e6 / batches,
               "ms");
  }

  // --- sampled direct calls: the query path layer by layer --------------
  const Symbol engine_anc = engine->program().symbols->Lookup("anc");
  const RelationView* snapshot_anc = engine->snapshot()->view.Find(engine_anc);
  const double snapshot_rows = snapshot_anc == nullptr ? 0 : snapshot_anc->size();
  std::vector<double> parse_us, scan_us, render_us, handle_us;
  double result_rows = 0;
  ProtocolOptions popts;
  popts.allow_snapshot = false;
  for (size_t i = 0; i < size.sampled && i < keys.size(); ++i) {
    const std::string atom = "anc(n" + std::to_string(keys[i]) + ", X)";
    const double t0 = NowSeconds();
    StatusOr<ParsedQuery> parsed = engine->Parse(atom);
    const double t1 = NowSeconds();
    if (!parsed.ok()) continue;
    StatusOr<QueryResult> answer = engine->Query(*parsed);
    const double t2 = NowSeconds();
    if (!answer.ok()) continue;
    std::string text = engine->Render(*answer);
    const double t3 = NowSeconds();
    ProtocolReply reply = HandleRequest(engine, "?- " + atom + ".", popts);
    const double t4 = NowSeconds();
    parse_us.push_back((t1 - t0) * 1e6);
    scan_us.push_back((t2 - t1) * 1e6);
    render_us.push_back((t3 - t2) * 1e6);
    handle_us.push_back((t4 - t3) * 1e6);
    result_rows += static_cast<double>(answer->bindings.size());
  }
  result_rows /= std::max<size_t>(1, parse_us.size());
  record.Set("server.parse_us", Median(parse_us), "us");
  record.Set("server.scan_us", Median(scan_us), "us");
  record.Set("server.render_us", Median(render_us), "us");
  record.Set("server.handle_us", Median(handle_us), "us");
  // Client round trip minus the engine's share of it (scan time from
  // hist.query_ns during the stream, parse and render from the sampled
  // calls): socket read/write, framing and scheduling.
  record.Set("server.socket_us",
             Median(stream.query_rtt_ms) * 1e3 -
                 hist_ms("hist.query_ns", 50) * 1e3 - Median(parse_us) -
                 Median(render_us),
             "us");
  record.Set("server.scan_rows_per_result",
             result_rows == 0 ? 0.0 : snapshot_rows / result_rows, "ratio");
  record.Set("server.result_rows", result_rows, "count");
  record.Set("server.gen_late_p99_ms", gen_late_p99, "ms");

  // --- correctness: the published snapshot vs a from-scratch oracle -----
  StatusOr<std::unique_ptr<Ancestor>> oracle_program =
      ParseAncestor(kAncestorRules);
  if (!oracle_program.ok()) {
    record.Fail("parse: " + oracle_program.status().ToString());
    return record;
  }
  Ancestor* oa = oracle_program->get();
  StatusOr<std::unique_ptr<Oracle>> oracle =
      RunOracle(oa, all_tsv, options.corrupt_oracle);
  if (!oracle.ok()) {
    record.Fail("oracle: " + oracle.status().ToString());
    return record;
  }
  {
    StatusOr<QueryResult> served = engine->QueryText("anc(X, Y)");
    QueryResult expected;
    expected.variables = {oa->symbols.Intern("X"), oa->symbols.Intern("Y")};
    if ((*oracle)->anc != nullptr) {
      for (size_t r = 0; r < (*oracle)->anc->size(); ++r) {
        expected.bindings.push_back((*oracle)->anc->row(r));
      }
    }
    if (!served.ok() || SortedLines(engine->Render(*served)) !=
                            SortedLines(expected.ToString(oa->symbols))) {
      ++record.failed;
      record.Fail("published snapshot differs from a from-scratch evaluation "
                  "of base + streamed facts");
    }
  }
  const Fingerprint want = FingerprintOf((*oracle)->anc);
  const uint64_t oracle_firings = (*oracle)->stats.firings;
  const double seminaive_s = (*oracle)->seconds;
  oracle->reset();
  live.reset();  // stops the listener, then the engine

  // --- set-up and rebuild samples, interleaved ---------------------------
  // A shared host has slow spells lasting seconds; alternating the two kinds
  // of sample over several seconds keeps a spell from owning either
  // median. A rebuild re-materializes the same facts from scratch.
  LayerSamples samples;
  const double samples_end = NowSeconds() + 0.25 * options.seconds;
  for (int i = 0; i < size.min_samples || NowSeconds() < samples_end; ++i) {
    {
      const double t0 = NowSeconds();
      StatusOr<std::unique_ptr<Live>> sample = StartLive(source, false);
      if (!sample.ok()) {
        record.Fail(sample.status().ToString());
        return record;
      }
      setup_s.push_back(NowSeconds() - t0);
    }
    const double t0 = NowSeconds();
    StatusOr<std::unique_ptr<Ancestor>> a = ParseAncestor(kAncestorRules);
    const double t1 = NowSeconds();
    if (!a.ok()) {
      record.Fail("parse: " + a.status().ToString());
      return record;
    }
    Database edb;
    StatusOr<size_t> loaded =
        LoadFactsFromString(all_tsv, "par", &(*a)->symbols, &edb);
    const double t2 = NowSeconds();
    if (!loaded.ok()) {
      record.Fail("load: " + loaded.status().ToString());
      return record;
    }
    samples.loaded_rows = *loaded;
    samples.parse_ms.push_back((t1 - t0) * 1e3);
    samples.load_ms.push_back((t2 - t1) * 1e3);
    const bool traced = options.trace && i % 2 == 0;
    std::unique_ptr<Tracer> tracer;
    if (traced) tracer = std::make_unique<Tracer>(kProcessors, size_t{1} << 20);
    ++record.attempted;
    StatusOr<FixpointRun> run = RunFixpoint(a->get(), Scheme::kExample1,
                                            kProcessors, &edb, tracer.get());
    if (!run.ok()) {
      ++record.failed;
      record.Fail("RunParallel: " + run.status().ToString());
      continue;
    }
    const Relation* anc =
        run->result->output.Find((*a)->symbols.Lookup("anc"));
    if (FingerprintOf(anc) != want ||
        run->result->total_firings != oracle_firings) {
      ++record.failed;
      record.Fail("rebuilt fixpoint differs from the oracle");
    }
    (traced ? samples.traced_fixpoint_s : samples.fixpoint_s)
        .push_back(run->fixpoint_s);
    if (traced) {
      RunRecord layers;
      AddFixpointLayers(a->get(), Scheme::kExample1, kProcessors, *run,
                        *tracer, edb, &layers);
      samples.traced_layers.push_back(std::move(layers));
    }
  }
  const double measured_s = NowSeconds() - start;

  // --- report -------------------------------------------------------------
  // The user's wait for one unit of work: here, one served query.
  record.Set("latency_p50_ms", Quantile(stream.query_ms, 0.5), "ms");
  record.Set("setup_s", Median(setup_s), "s");
  record.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.Set("query_p50_ms", Quantile(stream.query_ms, 0.5), "ms");
  record.Set("query_p99_ms", Quantile(stream.query_ms, 0.99), "ms");
  record.Set("flush_p50_ms", Quantile(stream.flush_ms, 0.5), "ms");
  record.Set("flush_p99_ms", Quantile(stream.flush_ms, 0.99), "ms");
  record.NoteNumber("samples.queries", stream.query_ms.size());
  record.NoteNumber("samples.flushes", stream.flush_ms.size());
  record.NoteSeries("samples.fixpoint_s", samples.fixpoint_s);
  record.NoteSeries("samples.setup_s", setup_s);
  record.NoteNumber("measured_s", measured_s);
  record.NoteNumber("oracle.firings", static_cast<double>(oracle_firings));
  record.NoteNumber("oracle.anc_rows", static_cast<double>(want.rows));

  ReportLayers(samples, seminaive_s, &record);
  return record;
}

}  // namespace perfbench

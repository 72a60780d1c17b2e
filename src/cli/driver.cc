#include "cli/driver.h"

#include <charconv>
#include <cmath>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "core/advisor.h"
#include "core/report.h"
#include "core/engine.h"
#include "datalog/fact_io.h"
#include "datalog/parser.h"
#include "datalog/query.h"
#include "obs/analyze.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/engine.h"
#include "server/protocol.h"
#include "storage/snapshot.h"
#include "eval/naive.h"
#include "workload/programs.h"
#include "eval/seminaive.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace pdatalog {

namespace {

using Mode = CliOptions::Mode;
using Scheme = CliOptions::Scheme;

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

// Strict number parser: the whole value must parse as a finite T in
// [lo, hi], so "4x", "abc", "1e3" for an integer, and overflow all fail.
template <typename T>
Status ParseNumber(const std::string& text, T lo, T hi, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !(value >= lo && value <= hi) ||
      !std::isfinite(static_cast<double>(value))) {
    std::ostringstream range;
    range << "expects a number in [" << lo << ", " << hi
          << (std::isinf(static_cast<double>(hi)) ? ")" : "]");
    return Status::InvalidArgument(range.str());
  }
  *out = value;
  return Status::Ok();
}

// Splits "KEY:VALUE" at the first ':'; both sides must be non-empty.
bool SplitPair(const std::string& item, std::string* key,
               std::string* value) {
  const size_t colon = item.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == item.size()) {
    return false;
  }
  *key = item.substr(0, colon);
  *value = item.substr(colon + 1);
  return true;
}

// Splits "K:V,K:V,..." into pairs with SplitPair.
bool SplitPairs(const std::string& text,
                std::vector<std::pair<std::string, std::string>>* pairs) {
  size_t pos = 0;
  while (true) {
    const size_t comma = text.find(',', pos);
    std::string key;
    std::string value;
    if (!SplitPair(text.substr(pos, comma - pos), &key, &value)) return false;
    pairs->emplace_back(std::move(key), std::move(value));
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

// Parses a flag's value into CliOptions; the value is never empty.
using Setter = std::function<Status(const std::string& value, CliOptions* o)>;

Setter Text(std::string CliOptions::*field) {
  return [field](const std::string& v, CliOptions* o) {
    o->*field = v;
    return Status::Ok();
  };
}

template <typename T>
Setter Number(T CliOptions::*field, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi) {
  return [=](const std::string& v, CliOptions* o) {
    return ParseNumber(v, lo, hi, &(o->*field));
  };
}

template <typename E>
Setter Names(E CliOptions::*field,
             std::vector<std::pair<std::string, E>> names) {
  return [=](const std::string& v, CliOptions* o) {
    for (const auto& [name, value] : names) {
      if (v != name) continue;
      o->*field = value;
      return Status::Ok();
    }
    return Status::InvalidArgument("expects one of the names shown");
  };
}

// A u64 in decimal, or in hex after a 0x prefix.
Status SetSeed(const std::string& text, CliOptions* o) {
  const bool hex = text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data() + (hex ? 2 : 0), end,
                                    o->seed, hex ? 16 : 10);
  if (ec == std::errc() && stop == end) return Status::Ok();
  return Status::InvalidArgument("expects a decimal or 0x-hex u64");
}

Status SetFacts(const std::string& text, CliOptions* o) {
  std::string pred;
  std::string path;
  if (!SplitPair(text, &pred, &path)) {
    return Status::InvalidArgument("expects PRED:FILE");
  }
  o->fact_files.emplace_back(pred, path);
  return Status::Ok();
}

Status SetVars(const std::string& text, CliOptions* o) {
  std::vector<std::pair<std::string, std::string>> items;
  if (!SplitPairs(text, &items)) {
    return Status::InvalidArgument("expects IDX:VAR items");
  }
  for (const auto& [index, var] : items) {
    int rule = 0;
    PDATALOG_RETURN_IF_ERROR(
        ParseNumber(index, 0, std::numeric_limits<int>::max(), &rule));
    o->rule_vars.emplace_back(rule, var);
  }
  return Status::Ok();
}

Status SetFaults(const std::string& text, CliOptions* o) {
  std::vector<std::pair<std::string, std::string>> items;
  if (!SplitPairs(text, &items)) {
    return Status::InvalidArgument("items must look like drop:0.1");
  }
  FaultSpec& f = o->faults;
  for (const auto& [key, value] : items) {
    if (key == "polls") {
      PDATALOG_RETURN_IF_ERROR(ParseNumber(value, 0, 1 << 20, &f.delay_polls));
      continue;
    }
    double* probability = key == "drop"                      ? &f.drop
                          : key == "dup" || key == "duplicate" ? &f.duplicate
                          : key == "reorder"                  ? &f.reorder
                          : key == "corrupt"                  ? &f.corrupt
                          : key == "delay"                    ? &f.delay
                                                              : nullptr;
    if (probability == nullptr) {
      return Status::InvalidArgument("unknown key '" + key + "'");
    }
    PDATALOG_RETURN_IF_ERROR(ParseNumber(value, 0.0, 1.0, probability));
  }
  return Status::Ok();
}

// One command-line flag, written `--name`, `--name=VALUE`, or
// `--name[=VALUE]`. `value` is the usage placeholder (nullptr for a
// switch). `on` is the bool the bare flag sets; a flag with both `on`
// and `value` takes its value optionally.
struct Flag {
  const char* name;
  const char* value;
  bool CliOptions::*on;
  Setter set;
};

using O = CliOptions;

// Every flag of the tool, in docs/cli.md order; the usage text is built
// from this table and cli_test checks docs/cli.md against it.
const Flag kFlags[] = {
    {"program", "NAME", nullptr, Text(&O::builtin)},
    {"list-programs", nullptr, &O::list_programs, nullptr},
    {"facts", "PRED:FILE", nullptr, SetFacts},
    {"mode", "seq|naive|par", nullptr,
     Names(&O::mode, {{"seq", Mode::kSequential},
                      {"naive", Mode::kNaive},
                      {"par", Mode::kParallel}})},
    {"stratified", nullptr, &O::stratified, nullptr},
    {"processors", "N", nullptr, Number(&O::processors, 1, 1024)},
    {"scheme", "auto|example1|example2|example3|general|tradeoff", nullptr,
     Names(&O::scheme, {{"auto", Scheme::kAuto},
                        {"example1", Scheme::kExample1},
                        {"example2", Scheme::kExample2},
                        {"example3", Scheme::kExample3},
                        {"general", Scheme::kGeneral},
                        {"tradeoff", Scheme::kTradeoff}})},
    {"rho", "R", nullptr, Number(&O::rho, 0.0, 1.0)},
    {"vars", "IDX:VAR[,IDX:VAR...]", nullptr, SetVars},
    {"seed", "S", nullptr, SetSeed},
    {"rebalance-skew", "R", nullptr, Number(&O::rebalance_skew, 1, kUnbounded)},
    {"rebalance-buckets", "N", nullptr,
     Number(&O::rebalance_buckets, 1, 65536)},
    {"advise", nullptr, &O::advise, nullptr},
    {"net", "C", nullptr, Number(&O::net_cost, 0, kUnbounded)},
    {"explain", nullptr, &O::explain, nullptr},
    {"print-programs", nullptr, &O::print_programs, nullptr},
    {"block-tuples", "N", nullptr,
     Number(&O::block_tuples, 1, static_cast<int>(kMaxBlockTuples))},
    {"faults", "drop:P,dup:P,reorder:P,corrupt:P,delay:P,polls:N", nullptr,
     SetFaults},
    {"retransmit", nullptr, &O::retransmit, nullptr},
    {"trace", "FILE", nullptr, Text(&O::trace_file)},
    {"metrics", "FILE", nullptr, Text(&O::metrics_file)},
    {"profile", "FILE", &O::profile, Text(&O::profile_file)},
    // Each KiB holds 64 events; cap at 1 GiB per ring.
    {"trace-ring-kb", "N", nullptr, Number(&O::trace_ring_kb, 1, 1 << 20)},
    {"stats", nullptr, &O::print_stats, nullptr},
    {"dump", "PRED", nullptr, Text(&O::dump_predicate)},
    {"query", "ATOM", nullptr, Text(&O::query)},
    {"interactive", nullptr, &O::interactive, nullptr},
    {"save", "DIR", nullptr, Text(&O::save_directory)},
    {"serve", "PORT", &O::serve, Number(&O::serve_port, 0, 65535)},
    {"serve-batch", "N", nullptr, Number(&O::serve_batch, 1, 1 << 20)},
    {"telemetry-port", "PORT", nullptr, Number(&O::telemetry_port, 0, 65535)},
    {"slow-query-ms", "T", nullptr, Number(&O::slow_query_ms, 0, kUnbounded)},
    {"health-queue", "N", nullptr,
     Number(&O::health_queue, 0, std::numeric_limits<int64_t>::max())},
    {"health-lag-ms", "T", nullptr, Number(&O::health_lag_ms, 0, kUnbounded)},
};

std::string FlagText(const Flag& flag) {
  std::string text = std::string("--") + flag.name;
  if (flag.value == nullptr) return text;
  if (flag.on != nullptr) return text + "[=" + flag.value + "]";
  return text + "=" + flag.value;
}

Status UsageError(const std::string& message) {
  std::string usage = "usage: pdatalog";
  for (const Flag& flag : kFlags) usage += " [" + FlagText(flag) + "]";
  return Status::InvalidArgument(message + "\n" + usage + " [program.dl]");
}

std::string U64(uint64_t v) { return std::to_string(v); }

// Per-ring event capacity from --trace-ring-kb (0 = compiled default).
size_t RingCapacity(const CliOptions& options) {
  if (options.trace_ring_kb <= 0) return kDefaultTraceRingCapacity;
  size_t capacity = static_cast<size_t>(options.trace_ring_kb) * 1024 /
                    sizeof(TraceEvent);
  return capacity == 0 ? 1 : capacity;
}

// The program text: a built-in program's rules followed by `source`.
StatusOr<std::string> ProgramSource(const CliOptions& options,
                                    const std::string& source) {
  if (options.builtin.empty()) return source;
  StatusOr<NamedProgram> builtin = FindProgram(options.builtin);
  if (!builtin.ok()) return builtin.status();
  return builtin->source + source;
}

// A loaded program and the one database every mode evaluates into: the
// base relations, joined by the derived relations of the least model.
struct Session {
  SymbolTable symbols;
  Program program;  // points into `symbols`
  ProgramInfo info;
  Database db;
};

// Source → parse → validate → program facts → --facts files.
Status Load(const CliOptions& options, const std::string& source,
            Session* s) {
  StatusOr<std::string> text = ProgramSource(options, source);
  if (!text.ok()) return text.status();
  StatusOr<Program> program = ParseProgram(*text, &s->symbols);
  if (!program.ok()) return program.status();
  s->program = std::move(*program);
  PDATALOG_RETURN_IF_ERROR(Validate(s->program, &s->info));
  PDATALOG_RETURN_IF_ERROR(s->db.LoadFacts(s->program));
  for (const auto& [pred, path] : options.fact_files) {
    StatusOr<size_t> loaded =
        LoadFactsFromFile(path, pred, &s->symbols, &s->db);
    if (!loaded.ok()) return loaded.status();
  }
  return Status::Ok();
}

Status Explain(const Session& s, std::string* out) {
  StatusOr<CompiledProgram> compiled =
      CompiledProgram::Compile(s.program, s.info);
  if (!compiled.ok()) return compiled.status();
  for (size_t r = 0; r < s.program.rules.size(); ++r) {
    const auto& variants = compiled->rules()[r];
    *out += "rule " + std::to_string(r) + " (full):\n";
    *out += variants.full.DebugString(s.symbols);
    for (const auto& [delta_idx, delta_rule] : variants.deltas) {
      *out += "rule " + std::to_string(r) + " (delta on body atom " +
              std::to_string(delta_idx) + "):\n";
      *out += delta_rule.DebugString(s.symbols);
    }
  }
  return Status::Ok();
}

Status Advise(const CliOptions& options, Session* s, std::string* out) {
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(s->program, s->info);
  if (!sirup.ok()) return sirup.status();
  AdvisorOptions aopts;
  aopts.num_processors = options.processors;
  aopts.seed = options.seed;
  aopts.cost = CostParams{1.0, options.net_cost, 0.0};
  aopts.tradeoff_rhos = {0.5, 1.0};
  StatusOr<AdvisorReport> report =
      AdviseScheme(s->program, s->info, *sirup, &s->db, aopts);
  if (!report.ok()) return report.status();
  *out += "scheme advice (net/cpu cost ratio " +
          TextTable::Cell(options.net_cost, 2) + ", " +
          std::to_string(options.processors) + " processors):\n";
  *out += report->ToString();
  *out += "advice: " + report->best().name + " — " +
          report->best().description + "\n";
  return Status::Ok();
}

// What an evaluation hands the report besides the database.
struct Run {
  std::unique_ptr<Tracer> tracer;  // --trace or --profile
  MetricsRegistry metrics;         // sequential modes
  // --mode=par; its `output` has moved into the session database.
  std::optional<ParallelResult> parallel;
};

Status EvaluateSequential(const CliOptions& options, Session* s, Run* run,
                          std::string* out) {
  Stopwatch watch;
  EvalStats stats;
  if (options.mode == Mode::kSequential) {
    EvalOptions eopts;
    eopts.stratified = options.stratified;
    if (run->tracer != nullptr) eopts.trace = run->tracer->ring(0);
    PDATALOG_RETURN_IF_ERROR(
        SemiNaiveEvaluate(s->program, s->info, &s->db, &stats, eopts));
    *out += options.stratified ? "mode: sequential semi-naive (stratified)\n"
                               : "mode: sequential semi-naive\n";
  } else {
    PDATALOG_RETURN_IF_ERROR(
        NaiveEvaluate(s->program, s->info, &s->db, &stats));
    *out += "mode: sequential naive\n";
  }
  const double wall_seconds = watch.ElapsedSeconds();
  *out += "firings: " + U64(stats.firings) +
          ", tuples: " + U64(stats.tuples_inserted) +
          ", rounds: " + std::to_string(stats.rounds) + ", " +
          TextTable::Cell(wall_seconds * 1e3, 2) + " ms\n";
  MetricsRegistry& m = run->metrics;
  m.AddCounter("eval.rounds", static_cast<uint64_t>(stats.rounds));
  m.AddCounter("eval.firings", stats.firings);
  m.AddCounter("eval.tuples_inserted", stats.tuples_inserted);
  m.AddCounter("eval.rows_examined", stats.rows_examined);
  m.AddCounter("eval.batch_fallbacks", stats.batch_fallbacks);
  m.SetGauge("run.wall_seconds", wall_seconds);
  return Status::Ok();
}

Status EvaluateParallel(const CliOptions& options, Session* s, Run* run,
                        std::string* out) {
  SchemeRequest request;
  request.kind = options.scheme;
  request.processors = options.processors;
  request.seed = options.seed;
  // Rebalancing moves hash buckets between workers mid-run, which a
  // fragmented base cannot follow; keep bases replicated instead.
  request.fragment_bases = options.rebalance_skew == 0.0;
  request.rho = options.rho;
  request.rule_vars = options.rule_vars;
  StatusOr<BuiltScheme> scheme =
      BuildScheme(s->program, s->info, s->db, request);
  if (!scheme.ok()) return scheme.status();
  const RewriteBundle& bundle = scheme->bundle;

  *out += "mode: parallel, " + std::to_string(options.processors) +
          " processors\nscheme: " + scheme->note + "\n";
  if (options.print_programs) {
    for (int i = 0; i < bundle.num_processors; ++i) {
      *out += "-- processor " + std::to_string(i) + " --\n";
      *out += ToString(bundle.per_processor[i]);
    }
  }

  ParallelOptions popts;
  popts.faults = options.faults;
  popts.faults.seed = options.seed;
  popts.retransmit = options.retransmit;
  popts.block_tuples = options.block_tuples;
  // Corruption flips wire bytes, so it needs the serialized channels.
  if (popts.faults.corrupt > 0) popts.serialize_messages = true;
  popts.rebalance.skew_threshold = options.rebalance_skew;
  popts.rebalance.buckets_per_processor =
      static_cast<uint32_t>(options.rebalance_buckets);
  popts.rebalance.net_per_message = options.net_cost;
  popts.tracer = run->tracer.get();
  StatusOr<ParallelResult> result = RunParallel(bundle, &s->db, popts);
  if (!result.ok()) return result.status();

  *out += "firings: " + U64(result->total_firings) +
          ", output tuples: " + U64(result->pooled_tuples) +
          ", cross messages: " + U64(result->cross_tuples) + " in " +
          U64(result->cross_frames) + " frames (" +
          U64(result->cross_bytes) + " bytes)" +
          ", self-routed: " + U64(result->self_tuples) + ", " +
          TextTable::Cell(result->wall_seconds * 1e3, 2) + " ms\n";
  if (result->faults.any()) {
    *out += "faults injected: dropped " + U64(result->faults.dropped) +
            ", duplicated " + U64(result->faults.duplicated) +
            ", reordered " + U64(result->faults.reordered) +
            ", corrupted " + U64(result->faults.corrupted) + ", delayed " +
            U64(result->faults.delayed) + "; retransmitted " +
            U64(result->faults.retransmitted) + "\n";
  }
  if (options.rebalance_skew > 0.0) {
    *out += "rebalance: " +
            U64(result->metrics.counter("rebalance.moves")) + " moves, " +
            U64(result->metrics.counter("rebalance.replications")) +
            " replications in " +
            U64(result->metrics.counter("rebalance.rounds")) + " epochs (" +
            U64(result->metrics.counter("rebalance.windows")) +
            " windows observed)\n";
  }
  // RunParallel writes no derived predicate into its input database, and
  // Validate forbids facts on head predicates, so the pooled relations
  // join the base relations without a collision or a copy.
  PDATALOG_RETURN_IF_ERROR(s->db.Absorb(std::move(result->output)));
  run->parallel = std::move(*result);
  return Status::Ok();
}

// Writes the --trace and --metrics files, counting the trace's events
// in `metrics`. Shared by the one-shot report and the serving mode.
Status ExportTraceAndMetrics(const CliOptions& options, const Tracer* tracer,
                             MetricsRegistry* metrics, std::string* out) {
  if (tracer != nullptr) {
    metrics->AddCounter("trace.events", tracer->total_events());
    metrics->AddCounter("trace.dropped", tracer->total_dropped());
    if (!options.trace_file.empty()) {
      PDATALOG_RETURN_IF_ERROR(WriteChromeTrace(*tracer, options.trace_file));
      *out += "trace: " + U64(tracer->total_events()) + " events (" +
              U64(tracer->total_dropped()) + " dropped) -> " +
              options.trace_file + "\n";
    }
    if (tracer->total_dropped() > 0) {
      *out += TraceDropWarning(tracer->total_dropped());
    }
  }
  if (!options.metrics_file.empty()) {
    PDATALOG_RETURN_IF_ERROR(WriteMetricsJson(*metrics, options.metrics_file));
    *out += "metrics: " + std::to_string(metrics->size()) + " metrics -> " +
            options.metrics_file + "\n";
  }
  return Status::Ok();
}

// The report every mode shares: derived relation sizes, then the trace,
// metrics, --stats, profile, save, dump and query outputs.
Status Report(const CliOptions& options, Session* s, Run* run,
              std::string* out) {
  for (Symbol p : s->info.predicates) {
    if (!s->info.IsDerived(p)) continue;
    *out += "  " + s->symbols.Name(p) + ": " +
            std::to_string(s->db.Find(p)->size()) + " tuples\n";
  }
  Tracer* tracer = run->tracer.get();
  PDATALOG_RETURN_IF_ERROR(ExportTraceAndMetrics(
      options, tracer,
      run->parallel ? &run->parallel->metrics : &run->metrics, out));
  if (options.print_stats && run->parallel) {
    ReportOptions ropts;
    ropts.totals = false;
    ropts.channel_matrix = true;
    *out += RenderReport(*run->parallel, ropts);
    *out += RenderBspTimeline(*run->parallel, 1.0, options.net_cost);
  }
  if (options.profile && tracer != nullptr) {
    ProfileReport prof = AnalyzeRun(
        *tracer, run->parallel ? MakeProfileContext(*run->parallel)
                               : ProfileContext{});
    *out += prof.ToText();
    if (!options.profile_file.empty()) {
      PDATALOG_RETURN_IF_ERROR(WriteProfileJson(prof, options.profile_file));
      *out += "profile: -> " + options.profile_file + "\n";
    }
  }
  if (!options.save_directory.empty()) {
    StatusOr<size_t> saved =
        SaveDatabase(s->db, s->symbols, options.save_directory);
    if (!saved.ok()) return saved.status();
    *out += "saved " + std::to_string(*saved) + " relations to " +
            options.save_directory + "\n";
  }
  if (!options.dump_predicate.empty()) {
    Symbol pred = s->symbols.Lookup(options.dump_predicate);
    const Relation* rel = pred == kInvalidSymbol ? nullptr : s->db.Find(pred);
    *out += options.dump_predicate + ":\n";
    *out += rel == nullptr ? std::string("  (no such relation)\n")
                           : rel->ToSortedString(s->symbols);
  }
  // --query, then the program's embedded `?- atom.` directives.
  std::vector<std::string> queries;
  if (!options.query.empty()) queries.push_back(options.query);
  for (const Atom& query : s->program.queries) {
    queries.push_back(ToString(query, s->symbols));
  }
  for (const std::string& query : queries) {
    StatusOr<QueryResult> answer = EvaluateQuery(query, &s->symbols, s->db);
    if (!answer.ok()) return answer.status();
    *out += "?- " + query + "\n";
    *out += answer->ToString(s->symbols);
  }
  return Status::Ok();
}

// Load → evaluate by mode → report, the one path behind RunCli and
// RunInteractive. Leaves the least model in `session->db`, except under
// --explain and --advise, which stop before evaluation.
Status RunPipeline(const CliOptions& options, const std::string& source,
                   Session* session, std::string* out) {
  PDATALOG_RETURN_IF_ERROR(Load(options, source, session));
  *out += "program: " + std::to_string(session->program.rules.size()) +
          " rules, " + std::to_string(session->program.facts.size()) +
          " facts, " + std::to_string(session->info.derived.size()) +
          " derived predicates\n";
  if (options.explain) return Explain(*session, out);
  if (options.advise) return Advise(options, session, out);

  const bool parallel = options.mode == Mode::kParallel;
  Run run;
  // --profile implies tracing even without a --trace file.
  if (!options.trace_file.empty() || options.profile) {
    run.tracer = std::make_unique<Tracer>(parallel ? options.processors : 1,
                                          RingCapacity(options));
  }
  PDATALOG_RETURN_IF_ERROR(parallel
                               ? EvaluateParallel(options, session, &run, out)
                               : EvaluateSequential(options, session, &run,
                                                    out));
  return Report(options, session, &run, out);
}

const Flag* FindFlag(const std::string& name) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

}  // namespace

StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  CliOptions options;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      if (!arg.empty() && arg[0] == '-') {
        return UsageError("unknown flag '" + arg + "'");
      }
      if (!options.program_path.empty()) {
        return UsageError("multiple program files given");
      }
      options.program_path = arg;
      continue;
    }
    const size_t eq = arg.find('=');
    const Flag* flag = FindFlag(arg.substr(2, eq - 2));
    if (flag == nullptr) return UsageError("unknown flag '" + arg + "'");
    if (eq == std::string::npos) {
      if (flag->on == nullptr) {
        return UsageError(FlagText(*flag) + " needs a value");
      }
      options.*flag->on = true;
      continue;
    }
    const std::string value = arg.substr(eq + 1);
    if (flag->value == nullptr) {
      return UsageError(FlagText(*flag) + " takes no value");
    }
    if (value.empty()) return UsageError(FlagText(*flag) + " needs a value");
    Status status = flag->set(value, &options);
    if (!status.ok()) {
      return UsageError("bad value '" + value + "' for " + FlagText(*flag) +
                        ": " + status.message());
    }
    if (flag->on != nullptr) options.*flag->on = true;
  }
  if (options.serve && options.interactive) {
    return UsageError("--serve and --interactive are exclusive");
  }
  if (options.interactive &&
      (options.explain || options.advise || options.list_programs)) {
    return UsageError(
        "--interactive queries the evaluated database, which --explain, "
        "--advise and --list-programs do not produce");
  }
  if (!options.serve &&
      (options.telemetry_port >= 0 || options.slow_query_ms > 0 ||
       options.health_queue >= 0 || options.health_lag_ms >= 0)) {
    return UsageError(
        "--telemetry-port, --slow-query-ms, --health-queue, and "
        "--health-lag-ms require --serve");
  }
  if (options.serve && !options.fact_files.empty()) {
    return UsageError(
        "--serve does not take --facts; put facts in the program or "
        "stream them as '+fact.' updates");
  }
  if (options.list_programs) return options;
  if (options.program_path.empty() && options.builtin.empty()) {
    return UsageError("no program file or --program given");
  }
  if (!options.program_path.empty() && !options.builtin.empty()) {
    return UsageError("give either a program file or --program, not both");
  }
  return options;
}

StatusOr<std::string> RunCli(const CliOptions& options,
                             const std::string& source) {
  if (options.list_programs) {
    std::string out;
    for (const NamedProgram& named : BuiltinPrograms()) {
      out += named.name + (named.linear_sirup ? "  [linear sirup]" : "") +
             "\n    " + named.description + "\n";
    }
    return out;
  }
  Session session;
  std::string out;
  PDATALOG_RETURN_IF_ERROR(RunPipeline(options, source, &session, &out));
  return out;
}

void QueryLoop(const Database& db, SymbolTable* symbols, std::istream& in,
               std::ostream& out) {
  std::string line;
  out << "?- " << std::flush;
  while (std::getline(in, line)) {
    // Trim whitespace; blank line quits.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) break;
    size_t last = line.find_last_not_of(" \t\r");
    std::string query = line.substr(first, last - first + 1);
    StatusOr<QueryResult> answer = EvaluateQuery(query, symbols, db);
    if (!answer.ok()) {
      out << answer.status().ToString() << "\n";
    } else {
      out << answer->ToString(*symbols);
    }
    out << "?- " << std::flush;
  }
  out << "\n";
}

Status RunInteractive(const CliOptions& options, const std::string& source,
                      std::istream& in, std::ostream& out) {
  Session session;
  std::string report;
  PDATALOG_RETURN_IF_ERROR(RunPipeline(options, source, &session, &report));
  out << report;
  QueryLoop(session.db, &session.symbols, in, out);
  return Status::Ok();
}

Status RunServe(const CliOptions& options, const std::string& source,
                std::istream& in, std::ostream& out) {
  StatusOr<std::string> text = ProgramSource(options, source);
  if (!text.ok()) return text.status();

  ServerOptions sopts;
  sopts.max_batch = static_cast<size_t>(options.serve_batch);
  sopts.trace = !options.trace_file.empty();
  sopts.trace_ring_capacity = RingCapacity(options);
  sopts.slow_query_ms = options.slow_query_ms;
  if (options.health_queue >= 0) {
    sopts.health.max_queue_depth =
        static_cast<uint64_t>(options.health_queue);
  }
  if (options.health_lag_ms >= 0) {
    sopts.health.max_lag_ms = options.health_lag_ms;
  }
  StatusOr<std::unique_ptr<ServerEngine>> engine =
      ServerEngine::Create(*text, sopts);
  if (!engine.ok()) return engine.status();
  ServerEngine* server = engine->get();

  std::shared_ptr<const ServerSnapshot> snapshot = server->snapshot();
  out << "serving: epoch " << snapshot->epoch << ", "
      << snapshot->view.relation_count() << " relations, "
      << snapshot->view.total_rows() << " rows\n";

  std::unique_ptr<SocketServer> socket;
  if (options.serve_port >= 0) {
    socket = std::make_unique<SocketServer>(server);
    PDATALOG_RETURN_IF_ERROR(socket->Start(options.serve_port));
    out << "listening on 127.0.0.1:" << socket->port() << "\n";
  }
  std::unique_ptr<TelemetryHttpServer> telemetry;
  if (options.telemetry_port >= 0) {
    telemetry = std::make_unique<TelemetryHttpServer>(server);
    PDATALOG_RETURN_IF_ERROR(telemetry->Start(options.telemetry_port));
    out << "telemetry on http://127.0.0.1:" << telemetry->port()
        << "/metrics\n";
  }
  out.flush();

  // The stdio session owns the server's lifetime: EOF or `!quit` here
  // stops the listeners and shuts the engine down.
  ServeLoop(server, in, out);
  if (telemetry != nullptr) telemetry->Stop();
  if (socket != nullptr) socket->Stop();
  server->Shutdown();

  // Post-shutdown exports, as in the one-shot report: the Chrome trace
  // carries kQuery/kApply/kMaintain spans (query End events carry the
  // snapshot epoch as their arg), the metrics JSON the final telemetry
  // sample.
  MetricsRegistry metrics = server->MetricsCopy();
  std::string exports;
  PDATALOG_RETURN_IF_ERROR(
      ExportTraceAndMetrics(options, server->tracer(), &metrics, &exports));
  out << exports;
  out.flush();
  return Status::Ok();
}

}  // namespace pdatalog

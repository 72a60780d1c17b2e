#include "cli/driver.h"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <memory>
#include <ostream>

#include "core/advisor.h"
#include "core/report.h"
#include "core/dataflow_graph.h"
#include "core/engine.h"
#include "core/partition.h"
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

bool ConsumePrefix(const std::string& arg, const char* prefix,
                   std::string* rest) {
  std::string p(prefix);
  if (arg.rfind(p, 0) != 0) return false;
  *rest = arg.substr(p.size());
  return true;
}

Status UsageError(const std::string& message) {
  return Status::InvalidArgument(
      message +
      "\nusage: pdatalog [--mode=seq|naive|par] [--processors=N]"
      " [--scheme=auto|example1|example2|example3|general|tradeoff]"
      " [--rho=R] [--seed=S] [--dump=pred] [--facts=pred:file]"
      " [--faults=drop:P,dup:P,reorder:P,corrupt:P,delay:P,polls:N]"
      " [--retransmit] [--block-tuples=N]"
      " [--rebalance-skew=R] [--rebalance-buckets=N]"
      " [--trace=FILE] [--metrics=FILE] [--profile[=FILE]]"
      " [--trace-ring-kb=N]"
      " [--serve[=PORT]] [--serve-batch=N] [--telemetry-port=P]"
      " [--slow-query-ms=T] [--health-queue=N] [--health-lag-ms=M]"
      " [--program=name] [--print-programs] [--stats] [program.dl]");
}

std::string U64(uint64_t v) { return std::to_string(v); }

// Per-ring event capacity from --trace-ring-kb (0 = compiled default).
size_t RingCapacity(const CliOptions& options) {
  if (options.trace_ring_kb <= 0) return kDefaultTraceRingCapacity;
  size_t capacity = static_cast<size_t>(options.trace_ring_kb) * 1024 /
                    sizeof(TraceEvent);
  return capacity == 0 ? 1 : capacity;
}

// Picks default discriminating sequences for the general scheme: each
// rule is keyed on the first variable of its first derived body atom
// (the join variable in the common case), falling back to the first
// head variable for exit rules.
std::vector<GeneralRuleSpec> AutoGeneralSpecs(
    const Program& program, const ProgramInfo& info, int processors,
    uint64_t seed,
    const std::vector<std::pair<int, std::string>>& overrides) {
  std::vector<GeneralRuleSpec> specs(program.rules.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    Symbol var = kInvalidSymbol;
    for (const Atom& atom : rule.body) {
      if (!info.IsDerived(atom.predicate)) continue;
      for (const Term& t : atom.args) {
        if (t.is_var()) {
          var = t.sym;
          break;
        }
      }
      if (var != kInvalidSymbol) break;
    }
    if (var == kInvalidSymbol) {
      for (const Term& t : rule.head.args) {
        if (t.is_var()) {
          var = t.sym;
          break;
        }
      }
    }
    if (var != kInvalidSymbol) specs[r].vars = {var};
    specs[r].h = DiscriminatingFunction::UniformHash(processors, seed);
  }
  for (const auto& [idx, name] : overrides) {
    if (idx < 0 || idx >= static_cast<int>(specs.size())) continue;
    Symbol sym = program.symbols->Lookup(name);
    if (sym != kInvalidSymbol) specs[idx].vars = {sym};
  }
  return specs;
}

StatusOr<RewriteBundle> BuildBundle(const CliOptions& options,
                                    const Program& program,
                                    const ProgramInfo& info,
                                    const Database& edb,
                                    std::string* scheme_note) {
  using Scheme = CliOptions::Scheme;
  const int P = options.processors;
  // Rebalancing moves hash buckets between workers mid-run, which a
  // fragmented base cannot follow; keep bases replicated instead.
  const bool rebalancing = options.rebalance_skew > 0.0;

  // Schemes other than kGeneral need a linear sirup.
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);

  Scheme scheme = options.scheme;
  if (scheme == Scheme::kAuto) {
    if (!sirup.ok()) {
      scheme = Scheme::kGeneral;
    } else if (DataflowGraph::Build(*sirup).HasCycle()) {
      StatusOr<LinearSchemeOptions> free_scheme =
          CommunicationFreeScheme(*sirup, P, options.seed);
      if (free_scheme.ok()) {
        *scheme_note =
            "auto: dataflow cycle found; communication-free scheme "
            "(Theorem 3)";
        if (rebalancing) free_scheme->fragment_bases = false;
        return RewriteLinearSirup(program, info, *sirup, P, *free_scheme);
      }
      scheme = Scheme::kExample3;
    } else {
      scheme = Scheme::kExample3;
    }
  }

  switch (scheme) {
    case Scheme::kGeneral: {
      *scheme_note = "general scheme (Section 7), per-rule hash on the "
                     "first derived-atom variable";
      return RewriteGeneral(
          program, info, P,
          AutoGeneralSpecs(program, info, P, options.seed,
                           options.rule_vars),
          /*fragment_bases=*/!rebalancing);
    }
    case Scheme::kExample1: {
      if (!sirup.ok()) return sirup.status();
      StatusOr<LinearSchemeOptions> free_scheme =
          CommunicationFreeScheme(*sirup, P, options.seed);
      if (!free_scheme.ok()) return free_scheme.status();
      *scheme_note = "Example 1: communication-free (needs a dataflow "
                     "cycle; base relation replicated)";
      if (rebalancing) free_scheme->fragment_bases = false;
      return RewriteLinearSirup(program, info, *sirup, P, *free_scheme);
    }
    case Scheme::kExample2: {
      if (!sirup.ok()) return sirup.status();
      const Relation* base = edb.Find(sirup->s);
      if (base == nullptr) {
        return Status::FailedPrecondition(
            "example2 needs facts for the base relation to fragment");
      }
      LinearSchemeOptions o;
      // v(r) = all variables of the recursive rule's base atoms' join
      // with the head -- the paper's instantiation uses the base atom's
      // full variable list.
      const Atom& b0 = sirup->base_atoms.empty() ? sirup->exit.body[0]
                                                 : sirup->base_atoms[0];
      CollectVariables(b0, &o.v_r);
      CollectVariables(sirup->exit.body[0], &o.v_e);
      o.h = MakeArbitraryFragmentation(*base, P, options.seed);
      *scheme_note = "Example 2: arbitrary fragmentation + broadcast";
      return RewriteLinearSirup(program, info, *sirup, P, o);
    }
    case Scheme::kExample3: {
      if (!sirup.ok()) return sirup.status();
      LinearSchemeOptions o;
      // v(r) = variables of the recursive body atom; v(e) = variables
      // of the exit head (positionally complete hash partitioning).
      for (Symbol v : sirup->BodyVarsY()) {
        if (v != kInvalidSymbol) o.v_r.push_back(v);
      }
      for (Symbol v : sirup->ExitVarsZ()) {
        if (v != kInvalidSymbol) o.v_e.push_back(v);
      }
      o.h = DiscriminatingFunction::UniformHash(P, options.seed);
      if (rebalancing) o.fragment_bases = false;
      *scheme_note = "Example 3 style: hash partitioning on the recursive "
                     "atom's variables";
      return RewriteLinearSirup(program, info, *sirup, P, o);
    }
    case Scheme::kTradeoff: {
      if (!sirup.ok()) return sirup.status();
      TradeoffOptions o;
      for (Symbol v : sirup->BodyVarsY()) {
        if (v != kInvalidSymbol) o.v_r.push_back(v);
      }
      for (Symbol v : sirup->ExitVarsZ()) {
        if (v != kInvalidSymbol) o.v_e.push_back(v);
      }
      o.h_prime = DiscriminatingFunction::UniformHash(P, options.seed);
      for (int i = 0; i < P; ++i) {
        o.h_i.push_back(DiscriminatingFunction::KeepOrHash(
            i, options.rho, P, options.seed));
      }
      *scheme_note = "Section 6 trade-off scheme, rho=" +
                     TextTable::Cell(options.rho, 2);
      return RewriteTradeoff(program, info, *sirup, P, o);
    }
    case Scheme::kAuto:
      break;  // handled above
  }
  return Status::Internal("unhandled scheme");
}

}  // namespace

StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  CliOptions options;
  std::string rest;
  for (const std::string& arg : args) {
    if (ConsumePrefix(arg, "--mode=", &rest)) {
      if (rest == "seq") {
        options.mode = CliOptions::Mode::kSequential;
      } else if (rest == "naive") {
        options.mode = CliOptions::Mode::kNaive;
      } else if (rest == "par") {
        options.mode = CliOptions::Mode::kParallel;
      } else {
        return UsageError("unknown mode '" + rest + "'");
      }
    } else if (ConsumePrefix(arg, "--processors=", &rest)) {
      int value = std::atoi(rest.c_str());
      if (value < 1 || value > 1024) {
        return UsageError("processors must be in [1, 1024]");
      }
      options.processors = value;
    } else if (ConsumePrefix(arg, "--scheme=", &rest)) {
      if (rest == "auto") {
        options.scheme = CliOptions::Scheme::kAuto;
      } else if (rest == "example1") {
        options.scheme = CliOptions::Scheme::kExample1;
      } else if (rest == "example2") {
        options.scheme = CliOptions::Scheme::kExample2;
      } else if (rest == "example3") {
        options.scheme = CliOptions::Scheme::kExample3;
      } else if (rest == "general") {
        options.scheme = CliOptions::Scheme::kGeneral;
      } else if (rest == "tradeoff") {
        options.scheme = CliOptions::Scheme::kTradeoff;
      } else {
        return UsageError("unknown scheme '" + rest + "'");
      }
    } else if (ConsumePrefix(arg, "--vars=", &rest)) {
      size_t pos = 0;
      while (pos < rest.size()) {
        size_t comma = rest.find(',', pos);
        std::string item = rest.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= item.size()) {
          return UsageError("--vars expects IDX:VAR[,IDX:VAR...]");
        }
        options.rule_vars.emplace_back(std::atoi(item.substr(0, colon).c_str()),
                                       item.substr(colon + 1));
        pos = comma == std::string::npos ? rest.size() : comma + 1;
      }
    } else if (ConsumePrefix(arg, "--rho=", &rest)) {
      options.rho = std::atof(rest.c_str());
      if (options.rho < 0.0 || options.rho > 1.0) {
        return UsageError("rho must be in [0, 1]");
      }
    } else if (ConsumePrefix(arg, "--seed=", &rest)) {
      options.seed = std::strtoull(rest.c_str(), nullptr, 0);
    } else if (ConsumePrefix(arg, "--dump=", &rest)) {
      options.dump_predicate = rest;
    } else if (ConsumePrefix(arg, "--query=", &rest)) {
      options.query = rest;
    } else if (ConsumePrefix(arg, "--save=", &rest)) {
      options.save_directory = rest;
    } else if (ConsumePrefix(arg, "--program=", &rest)) {
      options.builtin = rest;
    } else if (ConsumePrefix(arg, "--facts=", &rest)) {
      size_t colon = rest.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= rest.size()) {
        return UsageError("--facts expects pred:file");
      }
      options.fact_files.emplace_back(rest.substr(0, colon),
                                      rest.substr(colon + 1));
    } else if (ConsumePrefix(arg, "--faults=", &rest)) {
      size_t pos = 0;
      while (pos < rest.size()) {
        size_t comma = rest.find(',', pos);
        std::string item = rest.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t colon = item.find(':');
        if (colon == std::string::npos || colon + 1 >= item.size()) {
          return UsageError("--faults items must look like drop:0.1");
        }
        std::string key = item.substr(0, colon);
        std::string value = item.substr(colon + 1);
        if (key == "drop") {
          options.faults.drop = std::atof(value.c_str());
        } else if (key == "dup" || key == "duplicate") {
          options.faults.duplicate = std::atof(value.c_str());
        } else if (key == "reorder") {
          options.faults.reorder = std::atof(value.c_str());
        } else if (key == "corrupt") {
          options.faults.corrupt = std::atof(value.c_str());
        } else if (key == "delay") {
          options.faults.delay = std::atof(value.c_str());
        } else if (key == "polls") {
          options.faults.delay_polls = std::atoi(value.c_str());
        } else {
          return UsageError("unknown --faults key '" + key + "'");
        }
        pos = comma == std::string::npos ? rest.size() : comma + 1;
      }
    } else if (ConsumePrefix(arg, "--rebalance-skew=", &rest)) {
      options.rebalance_skew = std::atof(rest.c_str());
      if (options.rebalance_skew < 1.0) {
        return UsageError("rebalance-skew must be >= 1 (max/mean busy)");
      }
    } else if (ConsumePrefix(arg, "--rebalance-buckets=", &rest)) {
      int value = std::atoi(rest.c_str());
      if (value < 1 || value > 65536) {
        return UsageError("rebalance-buckets must be in [1, 65536]");
      }
      options.rebalance_buckets = value;
    } else if (ConsumePrefix(arg, "--block-tuples=", &rest)) {
      int value = std::atoi(rest.c_str());
      if (value < 1 || static_cast<uint32_t>(value) > kMaxBlockTuples) {
        return UsageError("block-tuples must be in [1, " +
                          std::to_string(kMaxBlockTuples) + "]");
      }
      options.block_tuples = value;
    } else if (ConsumePrefix(arg, "--trace=", &rest)) {
      if (rest.empty()) return UsageError("--trace needs a file path");
      options.trace_file = rest;
    } else if (ConsumePrefix(arg, "--metrics=", &rest)) {
      if (rest.empty()) return UsageError("--metrics needs a file path");
      options.metrics_file = rest;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (ConsumePrefix(arg, "--profile=", &rest)) {
      if (rest.empty()) return UsageError("--profile needs a file path");
      options.profile = true;
      options.profile_file = rest;
    } else if (ConsumePrefix(arg, "--trace-ring-kb=", &rest)) {
      int value = std::atoi(rest.c_str());
      // Each KiB holds 64 events; cap at 1 GiB per ring.
      if (value < 1 || value > (1 << 20)) {
        return UsageError("trace-ring-kb must be in [1, 1048576]");
      }
      options.trace_ring_kb = value;
    } else if (arg == "--retransmit") {
      options.retransmit = true;
    } else if (arg == "--advise") {
      options.advise = true;
    } else if (arg == "--interactive") {
      options.interactive = true;
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (ConsumePrefix(arg, "--serve=", &rest)) {
      int value = std::atoi(rest.c_str());
      if (value < 0 || value > 65535 ||
          rest.find_first_not_of("0123456789") != std::string::npos) {
        return UsageError("--serve port must be in [0, 65535]");
      }
      options.serve = true;
      options.serve_port = value;
    } else if (ConsumePrefix(arg, "--serve-batch=", &rest)) {
      int value = std::atoi(rest.c_str());
      if (value < 1 || value > (1 << 20)) {
        return UsageError("serve-batch must be in [1, 1048576]");
      }
      options.serve_batch = value;
    } else if (ConsumePrefix(arg, "--telemetry-port=", &rest)) {
      int value = std::atoi(rest.c_str());
      if (rest.empty() || value < 0 || value > 65535 ||
          rest.find_first_not_of("0123456789") != std::string::npos) {
        return UsageError("--telemetry-port must be in [0, 65535]");
      }
      options.telemetry_port = value;
    } else if (ConsumePrefix(arg, "--slow-query-ms=", &rest)) {
      options.slow_query_ms = std::atof(rest.c_str());
      if (options.slow_query_ms < 0) {
        return UsageError("slow-query-ms must be >= 0");
      }
    } else if (ConsumePrefix(arg, "--health-queue=", &rest)) {
      long long value = std::atoll(rest.c_str());
      if (rest.empty() || value < 0 ||
          rest.find_first_not_of("0123456789") != std::string::npos) {
        return UsageError("health-queue must be a non-negative integer");
      }
      options.health_queue = value;
    } else if (ConsumePrefix(arg, "--health-lag-ms=", &rest)) {
      options.health_lag_ms = std::atof(rest.c_str());
      if (options.health_lag_ms < 0) {
        return UsageError("health-lag-ms must be >= 0");
      }
    } else if (arg == "--list-programs") {
      options.list_programs = true;
    } else if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--stratified") {
      options.stratified = true;
    } else if (ConsumePrefix(arg, "--net=", &rest)) {
      options.net_cost = std::atof(rest.c_str());
      if (options.net_cost < 0) return UsageError("net cost must be >= 0");
    } else if (arg == "--print-programs") {
      options.print_programs = true;
    } else if (arg == "--stats") {
      options.print_stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return UsageError("unknown flag '" + arg + "'");
    } else if (options.program_path.empty()) {
      options.program_path = arg;
    } else {
      return UsageError("multiple program files given");
    }
  }
  if (options.serve && options.interactive) {
    return UsageError("--serve and --interactive are exclusive");
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

  SymbolTable symbols;
  std::string effective_source = source;
  if (!options.builtin.empty()) {
    StatusOr<NamedProgram> builtin = FindProgram(options.builtin);
    if (!builtin.ok()) return builtin.status();
    effective_source = builtin->source + source;
  }
  StatusOr<Program> program = ParseProgram(effective_source, &symbols);
  if (!program.ok()) return program.status();
  ProgramInfo info;
  PDATALOG_RETURN_IF_ERROR(Validate(*program, &info));

  Database edb;
  PDATALOG_RETURN_IF_ERROR(edb.LoadFacts(*program));
  for (const auto& [pred, path] : options.fact_files) {
    StatusOr<size_t> loaded =
        LoadFactsFromFile(path, pred, &symbols, &edb);
    if (!loaded.ok()) return loaded.status();
  }

  std::string out;
  out += "program: " + std::to_string(program->rules.size()) + " rules, " +
         std::to_string(program->facts.size()) + " facts, " +
         std::to_string(info.derived.size()) + " derived predicates\n";

  if (options.explain) {
    StatusOr<CompiledProgram> compiled =
        CompiledProgram::Compile(*program, info);
    if (!compiled.ok()) return compiled.status();
    for (size_t r = 0; r < program->rules.size(); ++r) {
      const auto& variants = compiled->rules()[r];
      out += "rule " + std::to_string(r) + " (full):\n";
      out += variants.full.DebugString(symbols);
      for (const auto& [delta_idx, delta_rule] : variants.deltas) {
        out += "rule " + std::to_string(r) + " (delta on body atom " +
               std::to_string(delta_idx) + "):\n";
        out += delta_rule.DebugString(symbols);
      }
    }
    return out;
  }

  auto dump_relation = [&](const Database& db) -> Status {
    if (!options.dump_predicate.empty()) {
      Symbol pred = symbols.Lookup(options.dump_predicate);
      const Relation* rel =
          pred == kInvalidSymbol ? nullptr : db.Find(pred);
      out += options.dump_predicate + ":\n";
      out += rel == nullptr ? std::string("  (no such relation)\n")
                            : rel->ToSortedString(symbols);
    }
    if (!options.query.empty()) {
      StatusOr<QueryResult> answer =
          EvaluateQuery(options.query, &symbols, db);
      if (!answer.ok()) return answer.status();
      out += "?- " + options.query + "\n";
      out += answer->ToString(symbols);
    }
    // Embedded `?- atom.` directives from the program text.
    for (const Atom& query : program->queries) {
      StatusOr<QueryResult> answer =
          EvaluateQuery(ToString(query, symbols), &symbols, db);
      if (!answer.ok()) return answer.status();
      out += "?- " + ToString(query, symbols) + "\n";
      out += answer->ToString(symbols);
    }
    return Status::Ok();
  };

  Stopwatch watch;
  if (options.mode != CliOptions::Mode::kParallel) {
    // Sequential tracer: one worker ring for the evaluator's thread.
    // --profile implies tracing even without a --trace file.
    std::unique_ptr<Tracer> tracer;
    if (!options.trace_file.empty() || options.profile) {
      tracer = std::make_unique<Tracer>(1, RingCapacity(options));
    }
    EvalStats stats;
    if (options.mode == CliOptions::Mode::kSequential) {
      EvalOptions eopts;
      eopts.stratified = options.stratified;
      if (tracer != nullptr) eopts.trace = tracer->ring(0);
      PDATALOG_RETURN_IF_ERROR(
          SemiNaiveEvaluate(*program, info, &edb, &stats, eopts));
      out += options.stratified
                 ? "mode: sequential semi-naive (stratified)\n"
                 : "mode: sequential semi-naive\n";
    } else {
      PDATALOG_RETURN_IF_ERROR(NaiveEvaluate(*program, info, &edb, &stats));
      out += "mode: sequential naive\n";
    }
    double wall_seconds = watch.ElapsedSeconds();
    out += "firings: " + U64(stats.firings) +
           ", tuples: " + U64(stats.tuples_inserted) +
           ", rounds: " + std::to_string(stats.rounds) + ", " +
           TextTable::Cell(wall_seconds * 1e3, 2) + " ms\n";
    for (Symbol p : info.predicates) {
      if (!info.IsDerived(p)) continue;
      out += "  " + symbols.Name(p) + ": " +
             std::to_string(edb.Find(p)->size()) + " tuples\n";
    }
    if (tracer != nullptr && !options.trace_file.empty()) {
      PDATALOG_RETURN_IF_ERROR(
          WriteChromeTrace(*tracer, options.trace_file));
      out += "trace: " + U64(tracer->total_events()) + " events (" +
             U64(tracer->total_dropped()) + " dropped) -> " +
             options.trace_file + "\n";
    }
    if (tracer != nullptr && tracer->total_dropped() > 0) {
      out += TraceDropWarning(tracer->total_dropped());
    }
    if (!options.metrics_file.empty()) {
      MetricsRegistry m;
      m.AddCounter("eval.rounds", static_cast<uint64_t>(stats.rounds));
      m.AddCounter("eval.firings", stats.firings);
      m.AddCounter("eval.tuples_inserted", stats.tuples_inserted);
      m.AddCounter("eval.rows_examined", stats.rows_examined);
      m.AddCounter("eval.batch_fallbacks", stats.batch_fallbacks);
      if (tracer != nullptr) {
        m.AddCounter("trace.events", tracer->total_events());
        m.AddCounter("trace.dropped", tracer->total_dropped());
      }
      m.SetGauge("run.wall_seconds", wall_seconds);
      PDATALOG_RETURN_IF_ERROR(
          WriteMetricsJson(m, options.metrics_file));
      out += "metrics: " + std::to_string(m.size()) + " metrics -> " +
             options.metrics_file + "\n";
    }
    if (options.profile && tracer != nullptr) {
      ProfileReport prof = AnalyzeTrace(*tracer);
      out += prof.ToText();
      if (!options.profile_file.empty()) {
        PDATALOG_RETURN_IF_ERROR(
            WriteProfileJson(prof, options.profile_file));
        out += "profile: -> " + options.profile_file + "\n";
      }
    }
    if (!options.save_directory.empty()) {
      StatusOr<size_t> saved =
          SaveDatabase(edb, symbols, options.save_directory);
      if (!saved.ok()) return saved.status();
      out += "saved " + std::to_string(*saved) + " relations to " +
             options.save_directory + "\n";
    }
    PDATALOG_RETURN_IF_ERROR(dump_relation(edb));
    return out;
  }

  if (options.advise) {
    StatusOr<LinearSirup> sirup = ExtractLinearSirup(*program, info);
    if (!sirup.ok()) return sirup.status();
    AdvisorOptions aopts;
    aopts.num_processors = options.processors;
    aopts.seed = options.seed;
    aopts.cost = CostParams{1.0, options.net_cost, 0.0};
    aopts.tradeoff_rhos = {0.5, 1.0};
    StatusOr<AdvisorReport> report =
        AdviseScheme(*program, info, *sirup, &edb, aopts);
    if (!report.ok()) return report.status();
    out += "scheme advice (net/cpu cost ratio " +
           TextTable::Cell(options.net_cost, 2) + ", " +
           std::to_string(options.processors) + " processors):\n";
    out += report->ToString();
    out += "advice: " + report->best().name + " — " +
           report->best().description + "\n";
    return out;
  }

  std::string scheme_note;
  StatusOr<RewriteBundle> bundle =
      BuildBundle(options, *program, info, edb, &scheme_note);
  if (!bundle.ok()) return bundle.status();

  out += "mode: parallel, " + std::to_string(options.processors) +
         " processors\nscheme: " + scheme_note + "\n";
  if (options.print_programs) {
    for (int i = 0; i < bundle->num_processors; ++i) {
      out += "-- processor " + std::to_string(i) + " --\n";
      out += ToString(bundle->per_processor[i]);
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
  std::unique_ptr<Tracer> tracer;
  if (!options.trace_file.empty() || options.profile) {
    tracer =
        std::make_unique<Tracer>(options.processors, RingCapacity(options));
    popts.tracer = tracer.get();
  }
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, popts);
  if (!result.ok()) return result.status();

  out += "firings: " + U64(result->total_firings) +
         ", output tuples: " + U64(result->pooled_tuples) +
         ", cross messages: " + U64(result->cross_tuples) +
         " in " + U64(result->cross_frames) + " frames (" +
         U64(result->cross_bytes) + " bytes)" +
         ", self-routed: " + U64(result->self_tuples) + ", " +
         TextTable::Cell(result->wall_seconds * 1e3, 2) + " ms\n";
  if (result->faults.any()) {
    out += "faults injected: dropped " + U64(result->faults.dropped) +
           ", duplicated " + U64(result->faults.duplicated) +
           ", reordered " + U64(result->faults.reordered) +
           ", corrupted " + U64(result->faults.corrupted) + ", delayed " +
           U64(result->faults.delayed) + "; retransmitted " +
           U64(result->faults.retransmitted) + "\n";
  }
  if (options.rebalance_skew > 0.0) {
    out += "rebalance: " + U64(result->metrics.counter("rebalance.moves")) +
           " moves, " +
           U64(result->metrics.counter("rebalance.replications")) +
           " replications in " +
           U64(result->metrics.counter("rebalance.rounds")) + " epochs (" +
           U64(result->metrics.counter("rebalance.windows")) +
           " windows observed)\n";
  }
  for (Symbol p : bundle->derived) {
    out += "  " + symbols.Name(p) + ": " +
           std::to_string(result->output.Find(p)->size()) + " tuples\n";
  }
  if (tracer != nullptr) {
    result->metrics.AddCounter("trace.events", tracer->total_events());
    result->metrics.AddCounter("trace.dropped", tracer->total_dropped());
    if (!options.trace_file.empty()) {
      PDATALOG_RETURN_IF_ERROR(
          WriteChromeTrace(*tracer, options.trace_file));
      out += "trace: " + U64(tracer->total_events()) + " events (" +
             U64(tracer->total_dropped()) + " dropped) -> " +
             options.trace_file + "\n";
    }
    if (tracer->total_dropped() > 0) {
      out += TraceDropWarning(tracer->total_dropped());
    }
  }
  if (!options.metrics_file.empty()) {
    PDATALOG_RETURN_IF_ERROR(
        WriteMetricsJson(result->metrics, options.metrics_file));
    out += "metrics: " + std::to_string(result->metrics.size()) +
           " metrics -> " + options.metrics_file + "\n";
  }
  if (options.print_stats) {
    ReportOptions ropts;
    ropts.totals = false;
    ropts.channel_matrix = true;
    out += RenderReport(*result, ropts);
    out += RenderBspTimeline(*result, 1.0, options.net_cost);
  }
  if (options.profile && tracer != nullptr) {
    ProfileReport prof = AnalyzeRun(*tracer, MakeProfileContext(*result));
    out += prof.ToText();
    if (!options.profile_file.empty()) {
      PDATALOG_RETURN_IF_ERROR(WriteProfileJson(prof, options.profile_file));
      out += "profile: -> " + options.profile_file + "\n";
    }
  }
  if (!options.save_directory.empty()) {
    StatusOr<size_t> saved =
        SaveDatabase(result->output, symbols, options.save_directory);
    if (!saved.ok()) return saved.status();
    out += "saved " + std::to_string(*saved) + " relations to " +
           options.save_directory + "\n";
  }
  PDATALOG_RETURN_IF_ERROR(dump_relation(result->output));
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
  // Produce the normal report first.
  StatusOr<std::string> report = RunCli(options, source);
  if (!report.ok()) return report.status();
  out << *report;

  // Re-evaluate to obtain the database for querying (RunCli returns
  // only text; evaluation here is cheap relative to an interactive
  // session). Sequential evaluation yields the same least model as any
  // scheme (Theorem 1).
  SymbolTable symbols;
  std::string effective_source = source;
  if (!options.builtin.empty()) {
    StatusOr<NamedProgram> builtin = FindProgram(options.builtin);
    if (!builtin.ok()) return builtin.status();
    effective_source = builtin->source + source;
  }
  StatusOr<Program> program = ParseProgram(effective_source, &symbols);
  if (!program.ok()) return program.status();
  ProgramInfo info;
  PDATALOG_RETURN_IF_ERROR(Validate(*program, &info));
  Database db;
  PDATALOG_RETURN_IF_ERROR(db.LoadFacts(*program));
  for (const auto& [pred, path] : options.fact_files) {
    StatusOr<size_t> loaded = LoadFactsFromFile(path, pred, &symbols, &db);
    if (!loaded.ok()) return loaded.status();
  }
  EvalStats stats;
  PDATALOG_RETURN_IF_ERROR(SemiNaiveEvaluate(*program, info, &db, &stats));
  QueryLoop(db, &symbols, in, out);
  return Status::Ok();
}

Status RunServe(const CliOptions& options, const std::string& source,
                std::istream& in, std::ostream& out) {
  std::string effective_source = source;
  if (!options.builtin.empty()) {
    StatusOr<NamedProgram> builtin = FindProgram(options.builtin);
    if (!builtin.ok()) return builtin.status();
    effective_source = builtin->source + source;
  }

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
      ServerEngine::Create(effective_source, sopts);
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

  // Post-shutdown exports, mirroring the one-shot paths: the Chrome
  // trace carries kQuery/kApply/kMaintain spans (query End events carry
  // the snapshot epoch as their arg), the metrics JSON the final
  // telemetry sample.
  Tracer* tracer = server->tracer();
  if (tracer != nullptr && !options.trace_file.empty()) {
    PDATALOG_RETURN_IF_ERROR(WriteChromeTrace(*tracer, options.trace_file));
    out << "trace: " << tracer->total_events() << " events ("
        << tracer->total_dropped() << " dropped) -> " << options.trace_file
        << "\n";
  }
  if (tracer != nullptr && tracer->total_dropped() > 0) {
    out << TraceDropWarning(tracer->total_dropped());
  }
  if (!options.metrics_file.empty()) {
    MetricsRegistry m = server->MetricsCopy();
    if (tracer != nullptr) {
      m.AddCounter("trace.events", tracer->total_events());
      m.AddCounter("trace.dropped", tracer->total_dropped());
    }
    PDATALOG_RETURN_IF_ERROR(WriteMetricsJson(m, options.metrics_file));
    out << "metrics: " << m.size() << " metrics -> " << options.metrics_file
        << "\n";
  }
  out.flush();
  return Status::Ok();
}

}  // namespace pdatalog

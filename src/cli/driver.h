// Command-line driver: everything behind the `pdatalog` tool, exposed
// as a library so it is unit-testable.
//
// The flags are documented in docs/cli.md, which cli_test checks against
// the parser's flag table.
#ifndef PDATALOG_CLI_DRIVER_H_
#define PDATALOG_CLI_DRIVER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/schemes.h"
#include "datalog/symbol_table.h"
#include "util/status.h"

namespace pdatalog {

struct CliOptions {
  enum class Mode { kSequential, kNaive, kParallel };
  using Scheme = SchemeKind;

  Mode mode = Mode::kParallel;
  Scheme scheme = Scheme::kAuto;
  int processors = 4;
  double rho = 0.5;        // tradeoff keep-fraction
  // --scheme=general overrides: rule index -> variable name.
  std::vector<std::pair<int, std::string>> rule_vars;
  uint64_t seed = 0x5eed;
  std::string dump_predicate;
  std::string query;  // single-atom query, e.g. "anc(a, X)"
  std::string save_directory;
  bool interactive = false;
  // --serve[=PORT]: resident serving mode. serve_port -1 = stdio only;
  // [0, 65535] = also listen on 127.0.0.1 (0 picks an ephemeral port).
  bool serve = false;
  int serve_port = -1;
  int serve_batch = 256;  // --serve-batch
  // --telemetry-port=P: serving-mode HTTP scrape endpoint. -1 = off;
  // [0, 65535] listens on 127.0.0.1 (0 picks an ephemeral port).
  int telemetry_port = -1;
  // --slow-query-ms: slow-query capture threshold (0 = off).
  double slow_query_ms = 0;
  // --health-queue / --health-lag-ms: degraded thresholds. -1 = engine
  // default (see obs/telemetry.h HealthThresholds); 0 disables a check.
  int64_t health_queue = -1;
  double health_lag_ms = -1;
  bool list_programs = false;
  bool print_programs = false;
  bool print_stats = false;
  bool advise = false;
  bool explain = false;
  bool stratified = false;
  // --faults / --retransmit / --block-tuples (parallel mode only).
  FaultSpec faults;
  bool retransmit = false;
  int block_tuples = 256;
  // --rebalance-skew / --rebalance-buckets (parallel mode only;
  // 0 = rebalancing off).
  double rebalance_skew = 0.0;
  int rebalance_buckets = 32;
  // --trace / --metrics observability exports (empty = disabled).
  std::string trace_file;
  std::string metrics_file;
  // --profile[=FILE]: post-run trace analysis (text; JSON when a file
  // is given). Implies tracing even without --trace.
  bool profile = false;
  std::string profile_file;
  // --trace-ring-kb: per-worker ring capacity in KiB (0 = default).
  int trace_ring_kb = 0;
  double net_cost = 1.0;  // --advise cost model
  std::string program_path;  // informational; source is passed separately
  std::string builtin;       // name of a built-in program, if chosen
  // (predicate, file path) pairs for --facts.
  std::vector<std::pair<std::string, std::string>> fact_files;
};

// Parses tool arguments (argv[1..]). Returns an error with a usage hint
// on unknown flags or malformed values.
StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

// Runs `source` under `options` and returns the textual report the tool
// prints. Fails with the underlying error for parse/validation/engine
// problems.
StatusOr<std::string> RunCli(const CliOptions& options,
                             const std::string& source);

// The --interactive loop, separated for testability: reads one query
// atom per line from `in` and writes its bindings to `out`. A blank
// line or EOF ends the loop. Malformed queries print the error and
// continue.
void QueryLoop(const class Database& db, SymbolTable* symbols,
               std::istream& in, std::ostream& out);

// Full interactive session: runs the RunCli pipeline, prints its report
// to `out`, then runs QueryLoop over the database that run evaluated.
Status RunInteractive(const CliOptions& options, const std::string& source,
                      std::istream& in, std::ostream& out);

// The --serve mode: builds a resident ServerEngine (src/server/) from
// the program, optionally starts the socket listener, then runs the
// line protocol over `in`/`out` until EOF or `!quit`. Separated from
// the tool for testability.
Status RunServe(const CliOptions& options, const std::string& source,
                std::istream& in, std::ostream& out);

}  // namespace pdatalog

#endif  // PDATALOG_CLI_DRIVER_H_

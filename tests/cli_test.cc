#include "cli/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "gtest/gtest.h"

namespace pdatalog {
namespace {

constexpr char kAncestor[] =
    "par(a, b).  par(b, c).  par(c, d).\n"
    "anc(X, Y) :- par(X, Y).\n"
    "anc(X, Y) :- par(X, Z), anc(Z, Y).\n";

TEST(CliParseTest, Defaults) {
  StatusOr<CliOptions> options = ParseCliArgs({"prog.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->mode, CliOptions::Mode::kParallel);
  EXPECT_EQ(options->scheme, CliOptions::Scheme::kAuto);
  EXPECT_EQ(options->processors, 4);
  EXPECT_EQ(options->program_path, "prog.dl");
}

TEST(CliParseTest, AllFlags) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--mode=seq", "--processors=7", "--scheme=example2", "--rho=0.25",
       "--seed=0x10", "--dump=anc", "--print-programs", "--stats", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->mode, CliOptions::Mode::kSequential);
  EXPECT_EQ(options->processors, 7);
  EXPECT_EQ(options->scheme, CliOptions::Scheme::kExample2);
  EXPECT_DOUBLE_EQ(options->rho, 0.25);
  EXPECT_EQ(options->seed, 0x10u);
  EXPECT_EQ(options->dump_predicate, "anc");
  EXPECT_TRUE(options->print_programs);
  EXPECT_TRUE(options->print_stats);
}

TEST(CliParseTest, Rejections) {
  EXPECT_FALSE(ParseCliArgs({}).ok());                      // no file
  EXPECT_FALSE(ParseCliArgs({"--mode=warp", "p.dl"}).ok()); // bad mode
  EXPECT_FALSE(ParseCliArgs({"--processors=0", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--scheme=magic", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--rho=1.5", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--nonsense", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"a.dl", "b.dl"}).ok());  // two files
  // Every value is parsed strictly: no trailing text, no non-numbers,
  // no overflow, no empty value.
  for (const char* flag :
       {"--processors=4x", "--block-tuples=1e3", "--rebalance-buckets=12abc",
        "--rho=abc", "--seed=xyz", "--net=abc", "--slow-query-ms=abc",
        "--health-lag-ms=5ms", "--health-queue=99999999999999999999",
        "--serve=", "--vars=x:Y"}) {
    EXPECT_FALSE(ParseCliArgs({flag, "--serve", "p.dl"}).ok()) << flag;
  }
  // --interactive needs a database, which these modes never produce.
  for (const char* flag : {"--explain", "--advise", "--list-programs"}) {
    EXPECT_FALSE(ParseCliArgs({"--interactive", flag, "p.dl"}).ok()) << flag;
  }
}

TEST(CliParseTest, FaultsFlag) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--faults=drop:0.1,dup:0.05,reorder:0.2,corrupt:0.15,delay:0.1,"
       "polls:5",
       "--retransmit", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_DOUBLE_EQ(options->faults.drop, 0.1);
  EXPECT_DOUBLE_EQ(options->faults.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(options->faults.reorder, 0.2);
  EXPECT_DOUBLE_EQ(options->faults.corrupt, 0.15);
  EXPECT_DOUBLE_EQ(options->faults.delay, 0.1);
  EXPECT_EQ(options->faults.delay_polls, 5);
  EXPECT_TRUE(options->retransmit);
  EXPECT_FALSE(ParseCliArgs({"--faults=drop", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--faults=jitter:0.1", "p.dl"}).ok());
}

// Example 1 on the shipped ancestor program communicates nothing: the
// report still reads cleanly, with no NaN or inf in the profile's
// critical path or BSP timeline, and the same anc as --mode=seq.
TEST(CliRunTest, CommunicationFreeRunReportsCleanly) {
  std::ifstream file(PDATALOG_ANCESTOR_DL);
  ASSERT_TRUE(file.good()) << PDATALOG_ANCESTOR_DL;
  std::stringstream source;
  source << file.rdbuf();
  StatusOr<CliOptions> par = ParseCliArgs(
      {"--mode=par", "--scheme=example1", "--stats", "--profile", "a.dl"});
  StatusOr<CliOptions> seq = ParseCliArgs({"--mode=seq", "a.dl"});
  ASSERT_TRUE(par.ok() && seq.ok());
  StatusOr<std::string> report = RunCli(*par, source.str());
  StatusOr<std::string> oracle = RunCli(*seq, source.str());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  EXPECT_NE(report->find("cross messages: 0 in 0 frames (0 bytes), "
                         "self-routed: 0,"),
            std::string::npos)
      << *report;
  const std::regex count("anc: [0-9]+ tuples");
  std::smatch par_count, seq_count;
  ASSERT_TRUE(std::regex_search(*report, par_count, count)) << *report;
  ASSERT_TRUE(std::regex_search(*oracle, seq_count, count)) << *oracle;
  EXPECT_EQ(par_count.str(), seq_count.str());

  const size_t timeline = report->find("BSP timeline");
  const size_t critical = report->find("critical path:");
  ASSERT_NE(timeline, std::string::npos);
  ASSERT_NE(critical, std::string::npos);
  const std::regex not_finite("(^|[^a-z])(nan|inf)([^a-z]|$)",
                              std::regex::icase);
  EXPECT_FALSE(std::regex_search(report->substr(timeline), not_finite))
      << report->substr(timeline);
}

TEST(CliRunTest, FaultyRunWithRetransmitStaysExact) {
  // --scheme=example3 forces real cross-processor traffic (auto would
  // pick the communication-free scheme, leaving nothing to inject on).
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=example3", "--faults=drop:0.2,corrupt:0.2",
       "--retransmit", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, FaultyRunWithoutRetransmitReportsTheFault) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--scheme=example3", "--faults=drop:0.4", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("channel fault"),
            std::string::npos)
      << report.status().ToString();
}

TEST(CliRunTest, SequentialReport) {
  StatusOr<CliOptions> options = ParseCliArgs({"--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("sequential semi-naive"), std::string::npos);
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, SequentialMetricsExportBatchFallbacks) {
  // The three-atom recursive rule cannot run on the scan->probe batch
  // kernel, so every run of it is a fallback the export must report.
  const std::string path = testing::TempDir() + "seq-metrics.json";
  StatusOr<CliOptions> options =
      ParseCliArgs({"--mode=seq", "--metrics=" + path, "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(
      *options,
      "up(a, b).  up(c, d).  flat(b, d).  down(d, e).  down(b, f).\n"
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  const std::string key = "\"eval.batch_fallbacks\": ";
  size_t at = json.str().find(key);
  ASSERT_NE(at, std::string::npos) << json.str();
  EXPECT_GT(std::stoull(json.str().substr(at + key.size())), 0u);
}

TEST(CliRunTest, NaiveReport) {
  StatusOr<CliOptions> options = ParseCliArgs({"--mode=naive", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("sequential naive"), std::string::npos);
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, AutoPicksTheoremThreeForAncestor) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("Theorem 3"), std::string::npos);
  EXPECT_NE(report->find("cross messages: 0"), std::string::npos);
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, AutoFallsBackToGeneralForNonLinear) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  const char* source =
      "par(a, b).  par(b, c).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("general scheme"), std::string::npos);
  EXPECT_NE(report->find("anc: 3 tuples"), std::string::npos);
}

TEST(CliRunTest, DumpPredicate) {
  StatusOr<CliOptions> options = ParseCliArgs({"--dump=anc", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("(a, d)"), std::string::npos);
}

TEST(CliRunTest, DumpUnknownPredicate) {
  StatusOr<CliOptions> options = ParseCliArgs({"--dump=ghost", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("no such relation"), std::string::npos);
}

TEST(CliRunTest, PrintProgramsShowsConstraints) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=example3", "--processors=2", "--print-programs", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("-- processor 1 --"), std::string::npos);
  EXPECT_NE(report->find("anc_in"), std::string::npos);
  EXPECT_NE(report->find("= 1."), std::string::npos);
}

// Example 3 hashes the recursive atom's join variable Z (v(e) = <X>),
// so par fragments on it instead of staying replicated.
TEST(CliRunTest, Example3IsThePapersExample3) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=example3", "--processors=2", "--print-programs", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("anc_in(Z, Y), h(Z) = 1."), std::string::npos)
      << *report;
  EXPECT_NE(report->find("h'(X) = 1."), std::string::npos) << *report;
  EXPECT_EQ(report->find("h(Z, Y)"), std::string::npos) << *report;
}

// The built-in acyclic sirup under every scheme that applies to it:
// each prints the sequential least model.
TEST(CliRunTest, SameGenerationAgreesUnderEverySirupScheme) {
  const std::string facts =
      "up(a, b).  up(c, d).  up(e, b).  up(x, a).  flat(b, d).\n"
      "flat(d, b).  down(d, f).  down(b, g).  down(b, h).  down(f, z).\n";
  auto run = [&](std::vector<std::string> args) {
    args.insert(args.end(), {"--program=same_generation", "--dump=sg"});
    StatusOr<CliOptions> options = ParseCliArgs(args);
    EXPECT_TRUE(options.ok());
    return RunCli(*options, facts);
  };
  StatusOr<std::string> seq = run({"--mode=seq"});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  const std::string expected = seq->substr(seq->find("\nsg:\n"));
  EXPECT_NE(expected.find("(x, z)"), std::string::npos) << expected;
  for (const char* scheme : {"--scheme=auto", "--scheme=example2",
                             "--scheme=example3", "--scheme=tradeoff",
                             "--scheme=general"}) {
    StatusOr<std::string> report = run({scheme});
    ASSERT_TRUE(report.ok()) << scheme << ": " << report.status().ToString();
    EXPECT_EQ(report->substr(report->find("\nsg:\n")), expected) << scheme;
  }
  EXPECT_NE(run({"--scheme=example3"})->find("v(r) = <U,V>, v(e) = <X,Y>"),
            std::string::npos);
  // No dataflow cycle, so Example 1 (Theorem 3) does not apply.
  StatusOr<std::string> example1 = run({"--scheme=example1"});
  ASSERT_FALSE(example1.ok());
  EXPECT_NE(example1.status().message().find("acyclic"), std::string::npos);
}

TEST(CliRunTest, TradeoffSchemeRuns) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--scheme=tradeoff", "--rho=1.0", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("cross messages: 0"), std::string::npos);
}

TEST(CliRunTest, Example2SchemeRuns) {
  StatusOr<CliOptions> options = ParseCliArgs({"--scheme=example2", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, ParseErrorPropagates) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "anc(X :-");
  EXPECT_FALSE(report.ok());
}

TEST(CliRunTest, UnsafeProgramRejected) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "p(X, Y) :- q(X).\n");
  EXPECT_FALSE(report.ok());
}

TEST(CliRunTest, StatsTableShown) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--stats", "--processors=2", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("proc"), std::string::npos);
  EXPECT_NE(report->find("rounds"), std::string::npos);
}

TEST(CliParseTest, BuiltinProgramFlag) {
  StatusOr<CliOptions> options = ParseCliArgs({"--program=ancestor"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->builtin, "ancestor");
  EXPECT_TRUE(options->program_path.empty());
}

TEST(CliParseTest, FileAndBuiltinConflict) {
  EXPECT_FALSE(ParseCliArgs({"--program=ancestor", "p.dl"}).ok());
}

TEST(CliParseTest, FactsFlag) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--facts=edge:/tmp/e.tsv", "--facts=w:x.tsv", "p.dl"});
  ASSERT_TRUE(options.ok());
  ASSERT_EQ(options->fact_files.size(), 2u);
  EXPECT_EQ(options->fact_files[0].first, "edge");
  EXPECT_EQ(options->fact_files[0].second, "/tmp/e.tsv");
  EXPECT_FALSE(ParseCliArgs({"--facts=broken", "p.dl"}).ok());
}

TEST(CliRunTest, BuiltinProgramWithInlineFacts) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--program=ancestor", "--mode=seq"});
  ASSERT_TRUE(options.ok());
  // Extra source (facts) is appended after the built-in rules.
  StatusOr<std::string> report =
      RunCli(*options, "par(a, b).\npar(b, c).\n");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("anc: 3 tuples"), std::string::npos);
}

TEST(CliRunTest, UnknownBuiltinFails) {
  StatusOr<CliOptions> options = ParseCliArgs({"--program=zzz"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(CliRunTest, MissingFactFileFails) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--program=ancestor", "--facts=par:/nonexistent/x.tsv"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "");
  EXPECT_FALSE(report.ok());
}

TEST(CliRunTest, ExplainPrintsPlans) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--explain", "--program=ancestor"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("probe par(X, Z)"), std::string::npos) << *report;
  EXPECT_NE(report->find("delta on body atom 1"), std::string::npos);
}

TEST(CliRunTest, StratifiedSequentialMode) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--mode=seq", "--stratified", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("(stratified)"), std::string::npos);
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, AdviseRanking) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--advise", "--net=8", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("advice:"), std::string::npos);
  EXPECT_NE(report->find("theorem3"), std::string::npos);
}

TEST(CliRunTest, AdviseRejectsNonLinear) {
  StatusOr<CliOptions> options = ParseCliArgs({"--advise", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(
      *options,
      "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).\n");
  EXPECT_FALSE(report.ok());
}

TEST(CliInteractiveTest, QueryLoopAnswersAndQuits) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--interactive", "--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(options->interactive);
  std::istringstream in("anc(a, X)\nanc(zzz, W)\n\n");
  std::ostringstream out;
  Status status = RunInteractive(*options, kAncestor, in, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::string text = out.str();
  EXPECT_NE(text.find("X = d"), std::string::npos) << text;
  // Unknown constant: no bindings, loop continues to next prompt.
  EXPECT_GE(std::count(text.begin(), text.end(), '?'), 3);
}

TEST(CliInteractiveTest, MalformedQueryKeepsLooping) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--interactive", "--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  std::istringstream in("anc(a,\nanc(a, X)\n");
  std::ostringstream out;
  ASSERT_TRUE(RunInteractive(*options, kAncestor, in, out).ok());
  EXPECT_NE(out.str().find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(out.str().find("X = b"), std::string::npos);
}

TEST(CliInteractiveTest, EofEndsLoop) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--interactive", "--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  std::istringstream in("");
  std::ostringstream out;
  EXPECT_TRUE(RunInteractive(*options, kAncestor, in, out).ok());
}

TEST(CliInteractiveTest, ParallelModeAnswersBaseAndDerived) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--interactive", "--mode=par", "--scheme=example3", "p.dl"});
  ASSERT_TRUE(options.ok());
  std::istringstream in("anc(a, X)\npar(a, X)\n");
  std::ostringstream out;
  Status status = RunInteractive(*options, kAncestor, in, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The report, then one answer after each "?- " prompt.
  std::vector<std::string> parts;
  std::string text = out.str();
  for (size_t at; (at = text.find("?- ")) != std::string::npos;) {
    parts.push_back(text.substr(0, at));
    text = text.substr(at + 3);
  }
  ASSERT_EQ(parts.size(), 3u) << out.str();
  EXPECT_NE(parts[1].find("X = b"), std::string::npos) << out.str();
  EXPECT_NE(parts[1].find("X = d"), std::string::npos) << out.str();
  EXPECT_EQ(parts[2], "X = b\n") << out.str();
}

// Sorted lines of `path`.
std::vector<std::string> SortedLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Theorem 1: every scheme computes the least model, so every mode puts
// the same base and derived relations behind --dump, --query and --save.
TEST(CliRunTest, EveryModeReportsTheSameDatabase) {
  const std::vector<std::vector<std::string>> modes = {
      {"--mode=seq"},
      {"--mode=naive"},
      {"--mode=par", "--scheme=example1"},
      {"--mode=par", "--scheme=example2"},
      {"--mode=par", "--scheme=example3"},
      {"--mode=par", "--scheme=tradeoff"},
      {"--mode=par", "--scheme=general"},
      {"--mode=par", "--scheme=auto"}};
  std::map<std::string, std::string> expected_output;
  std::map<std::string, std::vector<std::string>> expected_files;
  for (size_t m = 0; m < modes.size(); ++m) {
    const std::string mode = modes[m].back();
    const std::string dir =
        testing::TempDir() + "cli-modes-" + std::to_string(m);
    std::filesystem::remove_all(dir);
    for (const std::string pred : {"par", "anc"}) {
      std::vector<std::string> args = modes[m];
      args.insert(args.end(), {"--dump=" + pred, "--query=par(a, X)",
                               "--save=" + dir, "p.dl"});
      StatusOr<CliOptions> options = ParseCliArgs(args);
      ASSERT_TRUE(options.ok()) << mode;
      StatusOr<std::string> report = RunCli(*options, kAncestor);
      ASSERT_TRUE(report.ok()) << mode << ": " << report.status().ToString();
      const size_t dump = report->find("\n" + pred + ":\n");
      ASSERT_NE(dump, std::string::npos) << mode << ":\n" << *report;
      const std::string output = report->substr(dump);
      auto [it, first] = expected_output.emplace(pred, output);
      EXPECT_EQ(output, it->second) << mode;
    }
    std::set<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files.insert(entry.path().filename().string());
    }
    EXPECT_EQ(files, (std::set<std::string>{"anc.tsv", "par.tsv"})) << mode;
    for (const std::string& file : files) {
      std::vector<std::string> lines = SortedLines(dir + "/" + file);
      auto [it, first] = expected_files.emplace(file, lines);
      EXPECT_EQ(lines, it->second) << mode << " " << file;
    }
  }
  EXPECT_NE(expected_output["par"].find("(c, d)"), std::string::npos);
  EXPECT_NE(expected_output["anc"].find("(a, d)"), std::string::npos);
  EXPECT_NE(expected_output["anc"].find("X = b"), std::string::npos);
  EXPECT_EQ(expected_files["anc.tsv"].size(), 6u);
  EXPECT_EQ(expected_files["par.tsv"].size(), 3u);
}

// Flag names (without "--") in `text`: "--mode" out of "--mode=seq".
std::set<std::string> FlagNames(const std::string& text) {
  std::set<std::string> names;
  for (size_t at = text.find("--"); at != std::string::npos;
       at = text.find("--", at + 2)) {
    const size_t end = text.find_first_not_of(
        "abcdefghijklmnopqrstuvwxyz0123456789-", at + 2);
    names.insert(text.substr(at + 2, end - at - 2));
  }
  return names;
}

// The usage text is generated from the parser's flag table, so this keeps
// docs/cli.md's flag tables and the parser in step, in both directions.
TEST(CliDocsTest, DocsTablesListExactlyTheParsersFlags) {
  StatusOr<CliOptions> bad = ParseCliArgs({"--nonsense"});
  ASSERT_FALSE(bad.ok());
  const std::string& message = bad.status().message();
  const size_t usage = message.find("usage: pdatalog");
  ASSERT_NE(usage, std::string::npos) << message;
  const std::set<std::string> parsed = FlagNames(message.substr(usage));

  std::ifstream doc(PDATALOG_CLI_DOC);
  ASSERT_TRUE(doc.good()) << PDATALOG_CLI_DOC;
  std::set<std::string> documented;
  for (std::string line; std::getline(doc, line);) {
    // First cell of a flag row: "| `--mode=par` | ...".
    if (line.rfind("| `--", 0) != 0) continue;
    const std::set<std::string> cell =
        FlagNames(line.substr(0, line.find('|', 1)));
    documented.insert(cell.begin(), cell.end());
  }
  EXPECT_GT(parsed.size(), 30u);
  EXPECT_EQ(parsed, documented);
}

TEST(CliRunTest, ListPrograms) {
  StatusOr<CliOptions> options = ParseCliArgs({"--list-programs"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  StatusOr<std::string> report = RunCli(*options, "");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("ancestor"), std::string::npos);
  EXPECT_NE(report->find("points_to"), std::string::npos);
  EXPECT_NE(report->find("[linear sirup]"), std::string::npos);
}

TEST(CliParseTest, VarsFlag) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--vars=0:Y,1:Z", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  ASSERT_EQ(options->rule_vars.size(), 2u);
  EXPECT_EQ(options->rule_vars[0].first, 0);
  EXPECT_EQ(options->rule_vars[0].second, "Y");
  EXPECT_EQ(options->rule_vars[1].second, "Z");
  EXPECT_FALSE(ParseCliArgs({"--vars=broken", "p.dl"}).ok());
}

TEST(CliRunTest, VarsNamingNoRuleOrNoVariableFail) {
  for (const char* vars : {"--vars=9:Y", "--vars=0:NOPE"}) {
    StatusOr<CliOptions> options =
        ParseCliArgs({"--scheme=general", vars, "p.dl"});
    ASSERT_TRUE(options.ok()) << vars;
    StatusOr<std::string> report = RunCli(*options, kAncestor);
    ASSERT_FALSE(report.ok()) << vars;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(report.status().message().find(vars[7] == '9' ? "rule 9"
                                                             : "NOPE"),
              std::string::npos)
        << report.status().ToString();
  }
}

TEST(CliRunTest, VarsOverrideGeneralScheme) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=general", "--vars=1:Z", "--print-programs",
       "--processors=2", "p.dl"});
  ASSERT_TRUE(options.ok());
  const char* source =
      "par(a, b).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("h2(Z) = 0"), std::string::npos) << *report;
}

TEST(CliRunTest, EmbeddedQueriesAnswered) {
  StatusOr<CliOptions> options = ParseCliArgs({"--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  std::string source = std::string(kAncestor) + "?- anc(a, X).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("?- anc(a, X)"), std::string::npos);
  EXPECT_NE(report->find("X = d"), std::string::npos);
}

TEST(CliRunTest, EmbeddedQueriesAnsweredInParallelMode) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  std::string source = std::string(kAncestor) + "?- anc(b, d).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("true"), std::string::npos);
}

TEST(CliParseTest, ProfileAndRingFlags) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--profile", "--trace-ring-kb=8", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_TRUE(options->profile);
  EXPECT_TRUE(options->profile_file.empty());
  EXPECT_EQ(options->trace_ring_kb, 8);

  options = ParseCliArgs({"--profile=out.json", "p.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(options->profile);
  EXPECT_EQ(options->profile_file, "out.json");

  EXPECT_FALSE(ParseCliArgs({"--profile=", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--trace-ring-kb=0", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--trace-ring-kb=-4", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--trace-ring-kb=2000000", "p.dl"}).ok());
}

TEST(CliRunTest, ProfilePrintsAnalysisWithoutTraceFile) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--profile", "--processors=2", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("profile:"), std::string::npos) << *report;
  EXPECT_NE(report->find("overall skew"), std::string::npos);
  EXPECT_NE(report->find("per-worker busy/idle"), std::string::npos);
  EXPECT_NE(report->find("communication matrix"), std::string::npos);
  EXPECT_NE(report->find("critical path"), std::string::npos);
  EXPECT_NE(report->find("percentiles"), std::string::npos);
}

TEST(CliRunTest, ProfileSequentialMode) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--mode=seq", "--profile", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("profile:"), std::string::npos) << *report;
  EXPECT_NE(report->find("1 workers"), std::string::npos);
}

TEST(CliRunTest, TinyRingWarnsAboutDrops) {
  // 1 KiB = 64 events per ring: a parallel run overflows immediately
  // and must say so instead of silently truncating the analysis.
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--profile", "--trace-ring-kb=1", "--processors=4", "p.dl"});
  ASSERT_TRUE(options.ok());
  // A 40-edge chain runs ~40 rounds: far more than 64 events per ring.
  std::string source =
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n";
  for (int i = 0; i < 40; ++i) {
    source += "par(n" + std::to_string(i) + ", n" +
              std::to_string(i + 1) + ").\n";
  }
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("warning: trace ring overflow dropped"),
            std::string::npos)
      << *report;
}

}  // namespace
}  // namespace pdatalog

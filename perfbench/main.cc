// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload oneshot_ex3|oneshot_ex1|serve_mixed --seed N
//             --seconds S --trace 0|1 [--smoke] [--corrupt-oracle]
//
// Prints one JSON line: {"correct", "attempted", "failed", "metrics",
// "detail"} with every number the run measured. perfbench/run.py builds
// this program and reduces that line to the metrics BENCHMARK.json names.
// Exit codes: 0 measured (check "correct"), 2 usage, 3 invalid open loop.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed number is a usage error, not a crash.
    auto number = [&](auto parse) {
      const std::string text = value();
      try {
        return parse(text);
      } catch (const std::exception&) {
        std::fprintf(stderr, "perfbench: bad value for %s: %s\n", arg.c_str(),
                     text.c_str());
        std::exit(2);
      }
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed =
          number([](const std::string& t) { return std::stoull(t); });
    } else if (arg == "--seconds") {
      options.seconds = number([](const std::string& t) { return std::stod(t); });
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  perfbench::RunRecord record;
  if (options.workload == "oneshot_ex3") {
    record = perfbench::RunOneshot(options, perfbench::Scheme::kExample3);
  } else if (options.workload == "oneshot_ex1") {
    record = perfbench::RunOneshot(options, perfbench::Scheme::kExample1);
  } else if (options.workload == "serve_mixed") {
    record = perfbench::RunServe(options);
  } else {
    std::fprintf(stderr,
                 "perfbench: --workload must be oneshot_ex3, oneshot_ex1 or "
                 "serve_mixed\n");
    return 2;
  }
  if (!record.invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n",
                 record.invalid.c_str());
    return 3;
  }
  std::printf("%s\n", record.ToJson().c_str());
  return 0;
}

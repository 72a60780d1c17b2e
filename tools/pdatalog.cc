// The pdatalog command-line tool: evaluates a Datalog program file
// sequentially or in parallel with any of the paper's schemes.
// See docs/cli.md for the flag reference.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli/driver.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  pdatalog::StatusOr<pdatalog::CliOptions> options =
      pdatalog::ParseCliArgs(args);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().message().c_str());
    return 2;
  }

  std::ostringstream source;
  if (!options->program_path.empty()) {
    std::ifstream file(options->program_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n",
                   options->program_path.c_str());
      return 2;
    }
    source << file.rdbuf();
  }

  if (options->serve) {
    pdatalog::Status status = pdatalog::RunServe(
        *options, source.str(), std::cin, std::cout);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  if (options->interactive) {
    pdatalog::Status status = pdatalog::RunInteractive(
        *options, source.str(), std::cin, std::cout);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  pdatalog::StatusOr<std::string> report =
      pdatalog::RunCli(*options, source.str());
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->c_str(), stdout);
  return 0;
}

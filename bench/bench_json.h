// Machine-readable benchmark records. Each harness that wants its
// results archived builds a BenchJson, appends flat records, and writes
// `BENCH_<name>.json` into the working directory, so CI and EXPERIMENTS
// tooling can diff runs without scraping the human-facing tables.
#ifndef PDATALOG_BENCH_BENCH_JSON_H_
#define PDATALOG_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pdatalog {
namespace bench {

// One flat record: ordered (key, literal) pairs. Values are stored
// pre-rendered as JSON literals (quoted strings or bare numbers).
class JsonRecord {
 public:
  JsonRecord& Set(const std::string& key, const std::string& value);
  JsonRecord& Set(const std::string& key, const char* value);
  JsonRecord& Set(const std::string& key, double value);
  JsonRecord& Set(const std::string& key, uint64_t value);
  JsonRecord& Set(const std::string& key, int value);
  JsonRecord& Set(const std::string& key, bool value);

  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// A named collection of records:
// {"bench": <name>, "cores": <hardware threads>, "records": [...]}.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  JsonRecord& NewRecord();

  std::string ToString() const;

  // Writes BENCH_<name>.json into `dir` (default: working directory).
  // Returns true on success; failures are reported on stderr and must
  // not fail the bench run itself.
  bool WriteFile(const std::string& dir = ".") const;

 private:
  std::string name_;
  std::vector<JsonRecord> records_;
};

}  // namespace bench
}  // namespace pdatalog

#endif  // PDATALOG_BENCH_BENCH_JSON_H_

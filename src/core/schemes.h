// The scheme catalogue: the one place that chooses the discriminating
// sequences and functions of the paper's parallelizations. Section 4's
// Examples 1-3 are instantiations of the Section 3 scheme that differ
// only in v(r), v(e) and h; Section 6's trade-off and Section 7's
// general scheme are the other families. Section 8 leaves the choice
// among them to a compiler: kAuto picks one from the program's shape,
// and the advisor (core/advisor.h) profiles the candidates built here.
#ifndef PDATALOG_CORE_SCHEMES_H_
#define PDATALOG_CORE_SCHEMES_H_

#include <string>
#include <utility>
#include <vector>

#include "core/rewrite.h"
#include "datalog/analysis.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdatalog {

enum class SchemeKind {
  kAuto,  // Example 1 on a dataflow cycle, else Example 3; general
          // when the program is not a linear sirup
  kExample1,
  kExample2,
  kExample3,
  kGeneral,
  kTradeoff,
};

struct SchemeRequest {
  SchemeKind kind = SchemeKind::kAuto;
  int processors = 4;
  uint64_t seed = 0x5eed;
  bool fragment_bases = true;  // false keeps every base replicated
  double rho = 0.5;            // trade-off keep-fraction
  // General scheme overrides: rule index -> variable name.
  std::vector<std::pair<int, std::string>> rule_vars;
};

struct BuiltScheme {
  RewriteBundle bundle;
  std::string note;  // names the scheme and its sequences
};

// `edb` supplies Example 2's base facts.
StatusOr<BuiltScheme> BuildScheme(const Program& program,
                                  const ProgramInfo& info,
                                  const Database& edb,
                                  const SchemeRequest& request);

// The choices behind BuildScheme, for a linear sirup
// t(X) :- t(Y), b_1, ..., b_k with exit rule t(Z) :- s.
//
// Example 1, built by Theorem 3: v(r) = the variables of Y on a
// dataflow-graph cycle, v(e) = Z's at the same columns. A one-position
// cycle hashes uniformly; along a longer one the produced tuple's values
// are a permutation of the consumed tuple's, so h must be symmetric.
// Fails if the graph is acyclic or a cycle column holds a constant.
StatusOr<LinearSchemeOptions> CommunicationFreeScheme(
    const LinearSirup& sirup, int num_processors, uint64_t seed = 0x5eed);

// Example 2: v(r) = b_1's variables, v(e) = s's, h = a lookup into an
// arbitrary fragmentation of s's facts (so sends broadcast).
StatusOr<LinearSchemeOptions> FragmentationScheme(const LinearSirup& sirup,
                                                  const Database& edb,
                                                  int num_processors,
                                                  uint64_t seed = 0x5eed);

// Section 3 uniform hashing on `v_r` (variables of Y); v(e) takes Z's
// variables at the matching columns.
LinearSchemeOptions HashScheme(const LinearSirup& sirup,
                               const std::vector<Symbol>& v_r,
                               int num_processors, uint64_t seed = 0x5eed);

// Example 3's v(r): the variables of Y that some b_i also holds (all of
// Y's if none does), so bases fragment and each tuple goes to one place.
std::vector<Symbol> Example3Vars(const LinearSirup& sirup);

// Section 6: Example 3's sequences; processor i routes with
// KeepOrHash(i, rho), keeping a `rho` share of its outputs.
TradeoffOptions TradeoffScheme(const LinearSirup& sirup, double rho,
                               int num_processors, uint64_t seed = 0x5eed);

// Section 7: each rule keyed on the first variable of its first derived
// body atom (the first head variable for exit rules), then `overrides`.
StatusOr<std::vector<GeneralRuleSpec>> GeneralScheme(
    const Program& program, const ProgramInfo& info, int num_processors,
    uint64_t seed,
    const std::vector<std::pair<int, std::string>>& overrides = {});

// "<Z,Y>": a sequence as notes and advisor candidates print it.
std::string SequenceName(const std::vector<Symbol>& vars,
                         const SymbolTable& symbols);

}  // namespace pdatalog

#endif  // PDATALOG_CORE_SCHEMES_H_

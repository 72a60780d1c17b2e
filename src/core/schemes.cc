#include "core/schemes.h"

#include <algorithm>

#include "core/dataflow_graph.h"
#include "core/partition.h"
#include "util/table.h"

namespace pdatalog {

namespace {

// v(e) matching v(r) positionally: for each v(r) variable's first
// column in the recursive body atom, the exit head's variable at that
// column, or its first variable when that column holds a constant.
// Tuples are then seeded where they will be consumed.
std::vector<Symbol> MatchingExitVars(const LinearSirup& sirup,
                                     const std::vector<Symbol>& v_r) {
  const std::vector<Symbol> y = sirup.BodyVarsY();
  const std::vector<Symbol> z = sirup.ExitVarsZ();
  const auto first = std::find_if(
      z.begin(), z.end(), [](Symbol v) { return v != kInvalidSymbol; });
  std::vector<Symbol> v_e;
  for (Symbol v : v_r) {
    const size_t pos = std::find(y.begin(), y.end(), v) - y.begin();
    if (pos < z.size() && z[pos] != kInvalidSymbol) {
      v_e.push_back(z[pos]);
    } else if (first != z.end()) {
      v_e.push_back(*first);
    }
  }
  return v_e;
}

}  // namespace

std::string SequenceName(const std::vector<Symbol>& vars,
                         const SymbolTable& symbols) {
  std::string out;
  for (Symbol v : vars) out += (out.empty() ? "" : ",") + symbols.Name(v);
  return "<" + out + ">";
}

StatusOr<LinearSchemeOptions> CommunicationFreeScheme(
    const LinearSirup& sirup, int num_processors, uint64_t seed) {
  const std::vector<int> cycle = DataflowGraph::Build(sirup).CyclePositions();
  if (cycle.empty()) {
    return Status::FailedPrecondition(
        "dataflow graph is acyclic; Theorem 3 does not apply");
  }
  const std::vector<Symbol> y = sirup.BodyVarsY();
  const std::vector<Symbol> z = sirup.ExitVarsZ();
  LinearSchemeOptions options;
  for (int pos : cycle) {
    if (y[pos] == kInvalidSymbol || z[pos] == kInvalidSymbol) {
      return Status::FailedPrecondition(
          "cycle position holds a constant; cannot build the "
          "communication-free sequence");
    }
    options.v_r.push_back(y[pos]);
    options.v_e.push_back(z[pos]);
  }
  options.h = cycle.size() == 1
                  ? DiscriminatingFunction::UniformHash(num_processors, seed)
                  : DiscriminatingFunction::SymmetricHash(num_processors,
                                                          seed);
  return options;
}

StatusOr<LinearSchemeOptions> FragmentationScheme(const LinearSirup& sirup,
                                                  const Database& edb,
                                                  int num_processors,
                                                  uint64_t seed) {
  const Relation* base = edb.Find(sirup.s);
  if (base == nullptr) {
    return Status::FailedPrecondition(
        "example2 needs facts for the base relation to fragment");
  }
  LinearSchemeOptions options;
  const Atom& b0 = sirup.base_atoms.empty() ? sirup.exit.body[0]
                                            : sirup.base_atoms[0];
  CollectVariables(b0, &options.v_r);
  CollectVariables(sirup.exit.body[0], &options.v_e);
  options.h = MakeArbitraryFragmentation(*base, num_processors, seed);
  return options;
}

LinearSchemeOptions HashScheme(const LinearSirup& sirup,
                               const std::vector<Symbol>& v_r,
                               int num_processors, uint64_t seed) {
  LinearSchemeOptions options;
  options.v_r = v_r;
  options.v_e = MatchingExitVars(sirup, v_r);
  options.h = DiscriminatingFunction::UniformHash(num_processors, seed);
  return options;
}

std::vector<Symbol> Example3Vars(const LinearSirup& sirup) {
  std::vector<Symbol> rec_vars, base_vars, joined;
  CollectVariables(sirup.rec_body_atom(), &rec_vars);
  for (const Atom& atom : sirup.base_atoms) CollectVariables(atom, &base_vars);
  for (Symbol v : rec_vars) {
    if (std::count(base_vars.begin(), base_vars.end(), v)) joined.push_back(v);
  }
  return joined.empty() ? rec_vars : joined;
}

TradeoffOptions TradeoffScheme(const LinearSirup& sirup, double rho,
                               int num_processors, uint64_t seed) {
  LinearSchemeOptions hash =
      HashScheme(sirup, Example3Vars(sirup), num_processors, seed);
  TradeoffOptions options{std::move(hash.v_r), std::move(hash.v_e),
                          hash.h, {}};
  for (int i = 0; i < num_processors; ++i) {
    options.h_i.push_back(
        DiscriminatingFunction::KeepOrHash(i, rho, num_processors, seed));
  }
  return options;
}

StatusOr<std::vector<GeneralRuleSpec>> GeneralScheme(
    const Program& program, const ProgramInfo& info, int num_processors,
    uint64_t seed,
    const std::vector<std::pair<int, std::string>>& overrides) {
  auto first_var = [](const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_var()) return t.sym;
    }
    return kInvalidSymbol;
  };
  std::vector<GeneralRuleSpec> specs(program.rules.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    Symbol var = kInvalidSymbol;
    for (const Atom& atom : rule.body) {
      if (info.IsDerived(atom.predicate)) var = first_var(atom);
      if (var != kInvalidSymbol) break;
    }
    if (var == kInvalidSymbol) var = first_var(rule.head);
    if (var != kInvalidSymbol) specs[r].vars = {var};
    specs[r].h = DiscriminatingFunction::UniformHash(num_processors, seed);
  }
  for (const auto& [idx, name] : overrides) {
    if (idx < 0 || idx >= static_cast<int>(specs.size())) {
      return Status::InvalidArgument(
          "--vars: no rule " + std::to_string(idx) + " (the program has " +
          std::to_string(specs.size()) + " rules)");
    }
    Symbol sym = program.symbols->Lookup(name);
    if (sym == kInvalidSymbol) {
      return Status::InvalidArgument("--vars: rule " + std::to_string(idx) +
                                     ": the program has no variable " + name);
    }
    specs[idx].vars = {sym};
  }
  return specs;
}

StatusOr<BuiltScheme> BuildScheme(const Program& program,
                                  const ProgramInfo& info,
                                  const Database& edb,
                                  const SchemeRequest& request) {
  const int P = request.processors;
  const uint64_t seed = request.seed;
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  SchemeKind kind = request.kind;
  if (kind == SchemeKind::kAuto) {
    kind = !sirup.ok() ? SchemeKind::kGeneral
           : CommunicationFreeScheme(*sirup, P, seed).ok()
               ? SchemeKind::kExample1
               : SchemeKind::kExample3;
  }
  BuiltScheme out;
  out.note = request.kind == SchemeKind::kAuto ? "auto: " : "";
  StatusOr<RewriteBundle> bundle = Status::Internal("unhandled scheme");
  if (kind == SchemeKind::kGeneral) {
    StatusOr<std::vector<GeneralRuleSpec>> specs =
        GeneralScheme(program, info, P, seed, request.rule_vars);
    if (!specs.ok()) return specs.status();
    out.note += "general scheme (Section 7), per-rule hash on the first "
                "derived-atom variable";
    bundle = RewriteGeneral(program, info, P, *specs, request.fragment_bases);
  } else if (!sirup.ok()) {
    return sirup.status();
  } else if (kind == SchemeKind::kTradeoff) {
    out.note += "Section 6 trade-off scheme, rho=" +
                TextTable::Cell(request.rho, 2);
    bundle = RewriteTradeoff(program, info, *sirup, P,
                             TradeoffScheme(*sirup, request.rho, P, seed));
  } else {
    StatusOr<LinearSchemeOptions> linear =
        kind == SchemeKind::kExample1 ? CommunicationFreeScheme(*sirup, P, seed)
        : kind == SchemeKind::kExample2
            ? FragmentationScheme(*sirup, edb, P, seed)
            : HashScheme(*sirup, Example3Vars(*sirup), P, seed);
    if (!linear.ok()) return linear.status();
    linear->fragment_bases = request.fragment_bases;
    out.note += kind == SchemeKind::kExample1
                    ? "Example 1: communication-free (Theorem 3)"
                : kind == SchemeKind::kExample2
                    ? "Example 2: arbitrary fragmentation + broadcast"
                    : "Example 3: hash partitioning";
    out.note += ", v(r) = " + SequenceName(linear->v_r, *program.symbols) +
                ", v(e) = " + SequenceName(linear->v_e, *program.symbols);
    bundle = RewriteLinearSirup(program, info, *sirup, P, *linear);
  }
  if (!bundle.ok()) return bundle.status();
  out.bundle = std::move(*bundle);
  return out;
}

}  // namespace pdatalog

#include "core/rewrite.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace pdatalog {

namespace {

// Internal per-rule rewriting parameters shared by all three schemes.
struct RuleSpecInternal {
  std::vector<Symbol> vars;
  Symbol label = kInvalidSymbol;
  // Registry id of the rule's constraint function (and of the Q/T-scheme
  // send function). -1 when the rule is not constrained.
  int function = -1;
  bool constrain = false;
  // Send functions: size 1 (shared by all processors) or size P
  // (per-processor, R scheme). Empty = no sends from this rule.
  std::vector<int> send_functions;
};

std::vector<Symbol> BodyVariables(const Rule& rule) {
  std::vector<Symbol> vars;
  for (const Atom& atom : rule.body) CollectVariables(atom, &vars);
  return vars;
}

bool Occurs(const std::vector<Symbol>& haystack, Symbol needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

// First column of `atom` holding variable `v`, or -1.
int FirstPosition(const Atom& atom, Symbol v) {
  for (int c = 0; c < atom.arity(); ++c) {
    if (atom.args[c].is_var() && atom.args[c].sym == v) return c;
  }
  return -1;
}

// Interns a decorated predicate name not colliding with program
// predicates.
Symbol DecoratedName(SymbolTable* symbols, const ProgramInfo& info,
                     const std::string& base) {
  std::string candidate = base;
  while (true) {
    Symbol sym = symbols->Intern(candidate);
    if (info.arity.find(sym) == info.arity.end()) return sym;
    candidate += "_";
  }
}

// Whether functions `a` and `b` of `registry` agree on every input: one
// registration, or two hashes of the same kind, range and seed.
bool SameFunction(const DiscriminatingRegistry& registry, int a, int b) {
  if (a == b) return true;
  const DiscriminatingFunction& fa = registry.function(a);
  const DiscriminatingFunction& fb = registry.function(b);
  const bool hash = fa.kind == DiscriminatingFunction::Kind::kUniformHash ||
                    fa.kind == DiscriminatingFunction::Kind::kSymmetricHash;
  return hash && fa.kind == fb.kind &&
         fa.num_processors == fb.num_processors && fa.seed == fb.seed;
}

// The static rule behind RewriteBundle::self_routed: the sends partition
// `p`, and each rule deriving `p` constrains h(v) = i with the send's
// function over variables the head holds at the send's columns, so
// every row processor i derives hashes to i.
bool SelfRouted(const Program& program,
                const std::vector<RuleSpecInternal>& specs,
                const RewriteBundle& bundle, Symbol p) {
  if (!SendsPartition(bundle, p)) return false;
  const SendSpec* send = nullptr;
  for (const SendSpec& spec : bundle.sends[0]) {
    if (spec.predicate == p) send = &spec;
  }
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Atom& head = program.rules[r].head;
    if (head.predicate != p) continue;
    const RuleSpecInternal& spec = specs[r];
    if (!spec.constrain || spec.vars.empty() ||
        spec.vars.size() != send->var_positions.size() ||
        !SameFunction(*bundle.registry, spec.function, send->function)) {
      return false;
    }
    for (size_t k = 0; k < spec.vars.size(); ++k) {
      const Term& term = head.args[send->var_positions[k]];
      if (!term.is_var() || term.sym != spec.vars[k]) return false;
    }
  }
  return true;
}

StatusOr<RewriteBundle> BuildBundle(
    const Program& program, const ProgramInfo& info, int num_processors,
    const std::vector<RuleSpecInternal>& specs,
    std::shared_ptr<DiscriminatingRegistry> registry, bool fragment_bases,
    bool non_redundant) {
  if (num_processors < 1) {
    return Status::InvalidArgument("num_processors must be >= 1");
  }
  if (specs.size() != program.rules.size()) {
    return Status::Internal("one rule spec required per rule");
  }

  RewriteBundle bundle;
  bundle.num_processors = num_processors;
  bundle.registry = std::move(registry);
  bundle.arity = info.arity;
  bundle.non_redundant = non_redundant;

  for (Symbol p : info.predicates) {
    if (!info.IsDerived(p)) continue;
    bundle.derived.push_back(p);
    const std::string& name = program.symbols->Name(p);
    bundle.out_name[p] = DecoratedName(program.symbols, info, name + "_out");
    bundle.in_name[p] = DecoratedName(program.symbols, info, name + "_in");
  }

  // Validate discriminating sequences: constraint variables must occur
  // in the rule body (Section 3's evaluability requirement).
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const RuleSpecInternal& spec = specs[r];
    if (!spec.constrain && spec.send_functions.empty()) continue;
    if (spec.vars.size() > 32) {
      return Status::InvalidArgument(
          "discriminating sequence exceeds 32 variables");
    }
    std::vector<Symbol> body_vars = BodyVariables(program.rules[r]);
    for (Symbol v : spec.vars) {
      if (!Occurs(body_vars, v)) {
        return Status::InvalidArgument(
            "discriminating variable '" + program.symbols->Name(v) +
            "' does not occur in the body of rule " + std::to_string(r));
      }
    }
  }

  // Local programs (identical across processors except for constraint
  // targets).
  for (int i = 0; i < num_processors; ++i) {
    Program local;
    local.symbols = program.symbols;
    for (size_t r = 0; r < program.rules.size(); ++r) {
      const Rule& rule = program.rules[r];
      const RuleSpecInternal& spec = specs[r];
      Rule lr;
      lr.head = rule.head;
      lr.head.predicate = bundle.out_name.at(rule.head.predicate);
      for (const Atom& atom : rule.body) {
        Atom la = atom;
        if (info.IsDerived(atom.predicate)) {
          la.predicate = bundle.in_name.at(atom.predicate);
        }
        lr.body.push_back(std::move(la));
      }
      if (spec.constrain && !spec.vars.empty()) {
        HashConstraint c;
        c.function = spec.function;
        c.label = spec.label;
        c.vars = spec.vars;
        c.target = i;
        lr.constraints.push_back(std::move(c));
      }
      local.rules.push_back(std::move(lr));
    }
    bundle.per_processor.push_back(std::move(local));
  }

  // Send specs: one per (rule, recursive body atom).
  bundle.sends.resize(num_processors);
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    const RuleSpecInternal& spec = specs[r];
    if (spec.send_functions.empty()) continue;
    for (const Atom& atom : rule.body) {
      if (!info.IsDerived(atom.predicate)) continue;
      SendSpec send;
      send.predicate = atom.predicate;
      send.pattern = atom;
      send.vars = spec.vars;
      send.determined = true;
      for (Symbol v : spec.vars) {
        int pos = FirstPosition(atom, v);
        send.var_positions.push_back(pos);
        if (pos < 0) send.determined = false;
      }
      for (int i = 0; i < num_processors; ++i) {
        SendSpec copy = send;
        copy.function = spec.send_functions.size() == 1
                            ? spec.send_functions[0]
                            : spec.send_functions[i];
        bundle.sends[i].push_back(std::move(copy));
      }
    }
  }

  // Base-atom access decisions (same for all processors; the fragment
  // contents differ per processor, built by the partitioner).
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    const RuleSpecInternal& spec = specs[r];
    for (size_t b = 0; b < rule.body.size(); ++b) {
      const Atom& atom = rule.body[b];
      if (info.IsDerived(atom.predicate)) continue;
      BaseOccurrence occ;
      occ.rule_index = static_cast<int>(r);
      occ.body_index = static_cast<int>(b);
      occ.access = BaseOccurrence::Access::kReplicated;
      if (fragment_bases && spec.constrain && !spec.vars.empty()) {
        std::vector<int> positions;
        bool all_present = true;
        for (Symbol v : spec.vars) {
          int pos = FirstPosition(atom, v);
          if (pos < 0) {
            all_present = false;
            break;
          }
          positions.push_back(pos);
        }
        if (all_present) {
          occ.access = BaseOccurrence::Access::kFragment;
          occ.function = spec.function;
          occ.positions = std::move(positions);
        }
      }
      bundle.base_occurrences.push_back(std::move(occ));
    }
  }

  for (Symbol p : bundle.derived) {
    if (SelfRouted(program, specs, bundle, p)) bundle.self_routed.insert(p);
  }
  return bundle;
}

}  // namespace

bool SendsPartition(const RewriteBundle& bundle, Symbol p) {
  const SendSpec* first = nullptr;
  for (const std::vector<SendSpec>& sends : bundle.sends) {
    const SendSpec* only = nullptr;
    for (const SendSpec& spec : sends) {
      if (spec.predicate != p) continue;
      if (only != nullptr) return false;  // two sends for p
      only = &spec;
    }
    if (only == nullptr || !only->determined) return false;
    if (first == nullptr) {
      first = only;
    } else if (only->function != first->function ||
               only->var_positions != first->var_positions) {
      return false;
    }
    std::unordered_set<Symbol> vars;
    for (const Term& term : only->pattern.args) {
      if (!term.is_var() || !vars.insert(term.sym).second) return false;
    }
  }
  if (first == nullptr) return false;
  switch (bundle.registry->function(first->function).kind) {
    case DiscriminatingFunction::Kind::kKeepOrHash:
    case DiscriminatingFunction::Kind::kRemapped:
    case DiscriminatingFunction::Kind::kCustom:
      return false;
    default:
      return true;
  }
}

StatusOr<RewriteBundle> RewriteLinearSirup(
    const Program& program, const ProgramInfo& info, const LinearSirup& sirup,
    int num_processors, const LinearSchemeOptions& options) {
  auto registry = std::make_shared<DiscriminatingRegistry>();
  int h = registry->Register(options.h);
  int h_prime =
      options.h_prime ? registry->Register(*options.h_prime) : h;

  Symbol h_label = program.symbols->Intern("h");
  Symbol hp_label = program.symbols->Intern("h'");

  std::vector<RuleSpecInternal> specs(program.rules.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    RuleSpecInternal& spec = specs[r];
    if (program.rules[r] == sirup.exit) {
      spec.vars = options.v_e;
      spec.label = hp_label;
      spec.function = h_prime;
      spec.constrain = true;
      spec.send_functions = {};  // exit rule has no recursive body atom
    } else {
      spec.vars = options.v_r;
      spec.label = h_label;
      spec.function = h;
      spec.constrain = true;
      spec.send_functions = {h};
    }
  }

  return BuildBundle(program, info, num_processors, specs,
                     std::move(registry), options.fragment_bases,
                     /*non_redundant=*/true);
}

StatusOr<RewriteBundle> RewriteGeneral(
    const Program& program, const ProgramInfo& info, int num_processors,
    const std::vector<GeneralRuleSpec>& rule_specs, bool fragment_bases) {
  if (rule_specs.size() != program.rules.size()) {
    return Status::InvalidArgument(
        "RewriteGeneral requires one GeneralRuleSpec per rule");
  }
  auto registry = std::make_shared<DiscriminatingRegistry>();
  std::vector<RuleSpecInternal> specs(program.rules.size());
  bool all_constrained = true;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    RuleSpecInternal& spec = specs[r];
    spec.vars = rule_specs[r].vars;
    spec.label =
        program.symbols->Intern("h" + std::to_string(r + 1));
    spec.function = registry->Register(rule_specs[r].h);
    spec.constrain = !spec.vars.empty();
    if (!spec.constrain) all_constrained = false;
    bool has_recursive_atom = false;
    for (const Atom& atom : program.rules[r].body) {
      if (info.IsDerived(atom.predicate)) has_recursive_atom = true;
    }
    if (has_recursive_atom) spec.send_functions = {spec.function};
  }
  return BuildBundle(program, info, num_processors, specs,
                     std::move(registry), fragment_bases,
                     /*non_redundant=*/all_constrained);
}

StatusOr<RewriteBundle> RewriteTradeoff(const Program& program,
                                        const ProgramInfo& info,
                                        const LinearSirup& sirup,
                                        int num_processors,
                                        const TradeoffOptions& options) {
  if (static_cast<int>(options.h_i.size()) != num_processors) {
    return Status::InvalidArgument(
        "RewriteTradeoff requires one h_i per processor");
  }
  // Section 6 restriction: every variable of v(r) must appear in the
  // recursive body atom Y so each processor can route its outputs.
  for (Symbol v : options.v_r) {
    if (FirstPosition(sirup.rec_body_atom(), v) < 0) {
      return Status::InvalidArgument(
          "Section 6 requires every v(r) variable to occur in Y; '" +
          program.symbols->Name(v) + "' does not");
    }
  }

  auto registry = std::make_shared<DiscriminatingRegistry>();
  int h_prime = registry->Register(options.h_prime);
  std::vector<int> send_fns;
  send_fns.reserve(options.h_i.size());
  for (const DiscriminatingFunction& fn : options.h_i) {
    send_fns.push_back(registry->Register(fn));
  }

  std::vector<RuleSpecInternal> specs(program.rules.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    RuleSpecInternal& spec = specs[r];
    if (program.rules[r] == sirup.exit) {
      spec.vars = options.v_e;
      spec.label = program.symbols->Intern("h'");
      spec.function = h_prime;
      spec.constrain = true;
    } else {
      // Processing rule of R_i: no constraint; per-processor sends.
      spec.vars = options.v_r;
      spec.label = program.symbols->Intern("h_i");
      spec.constrain = false;
      spec.send_functions = send_fns;
    }
  }
  return BuildBundle(program, info, num_processors, specs,
                     std::move(registry), /*fragment_bases=*/false,
                     /*non_redundant=*/false);
}

}  // namespace pdatalog

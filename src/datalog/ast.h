// Abstract syntax for Datalog programs.
//
// A program is a set of rules `head :- body.` plus ground facts. Following
// the paper (Section 2), predicate symbols split into *base* (extensional)
// and *derived* (intensional) predicates; the split is computed by
// analysis.h rather than declared.
//
// Rules may additionally carry *hash constraints* — the paper's
// `h(v(r)) = i` conjuncts. Parsed programs never contain them; the
// rewriters in core/ produce them, so a rewritten per-processor program
// is a first-class, printable Datalog program exactly as the paper
// presents it.
#ifndef PDATALOG_DATALOG_AST_H_
#define PDATALOG_DATALOG_AST_H_

#include <string>
#include <vector>

#include "datalog/symbol_table.h"

namespace pdatalog {

// A term is a variable or a constant; both are interned symbols.
struct Term {
  enum class Kind { kVariable, kConstant };

  Kind kind;
  Symbol sym;

  static Term Var(Symbol s) { return Term{Kind::kVariable, s}; }
  static Term Const(Symbol s) { return Term{Kind::kConstant, s}; }

  bool is_var() const { return kind == Kind::kVariable; }
  bool is_const() const { return kind == Kind::kConstant; }

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind == b.kind && a.sym == b.sym;
  }
};

// A predicate applied to terms, e.g. `anc(X, Y)` or ground `par(a, b)`.
struct Atom {
  Symbol predicate;
  std::vector<Term> args;

  int arity() const { return static_cast<int>(args.size()); }
  bool IsGround() const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate == b.predicate && a.args == b.args;
  }
};

// The paper's discriminating conjunct `h(v) = target` attached to a rule
// body. `function` indexes into the discriminating-function registry of
// the rewrite bundle that produced this rule (core/discriminating.h);
// `label` is only for printing (e.g. "h" or "h'").
struct HashConstraint {
  int function = 0;
  Symbol label = kInvalidSymbol;
  std::vector<Symbol> vars;  // the discriminating sequence, as variable names
  int target = 0;            // processor id the hash value must equal

  friend bool operator==(const HashConstraint& a, const HashConstraint& b) {
    return a.function == b.function && a.vars == b.vars &&
           a.target == b.target;
  }
};

// `head :- body, constraints.` An empty body makes the rule a fact-rule
// (used to seed derived predicates).
struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<HashConstraint> constraints;

  // Distinct variables of head and body, in first-occurrence order.
  std::vector<Symbol> Variables() const;

  // True if every head variable also occurs in the body (range
  // restriction / the paper's safety property).
  bool IsRangeRestricted() const;

  friend bool operator==(const Rule& a, const Rule& b) {
    return a.head == b.head && a.body == b.body &&
           a.constraints == b.constraints;
  }
};

// A Datalog program: rules plus ground EDB facts, sharing one symbol
// table (not owned).
struct Program {
  SymbolTable* symbols = nullptr;
  std::vector<Rule> rules;
  std::vector<Atom> facts;  // ground atoms for base predicates
  // Embedded query directives `?- atom.` — answered after evaluation.
  std::vector<Atom> queries;
};

// --- Printing ------------------------------------------------------------

std::string ToString(const Term& term, const SymbolTable& symbols);
std::string ToString(const Atom& atom, const SymbolTable& symbols);
std::string ToString(const HashConstraint& c, const SymbolTable& symbols);
std::string ToString(const Rule& rule, const SymbolTable& symbols);
std::string ToString(const Program& program);

// --- Construction helpers ------------------------------------------------

// Builds atoms/rules tersely in tests and rewriters. Names starting with
// an uppercase letter or '_' denote variables (same rule as the parser).
Term MakeTerm(SymbolTable& symbols, std::string_view name);
Atom MakeAtom(SymbolTable& symbols, std::string_view predicate,
              const std::vector<std::string>& args);

// Appends all variables of `atom` not already in `out`.
void CollectVariables(const Atom& atom, std::vector<Symbol>* out);

}  // namespace pdatalog

#endif  // PDATALOG_DATALOG_AST_H_

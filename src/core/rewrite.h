// Program rewriting: from a Datalog program to the per-processor
// programs of the paper's parallelization schemes.
//
// One parameterized transformation covers all three schemes:
//
//   * Section 3 (Q_i, non-redundant, linear sirups): every rule gets a
//     `h(v(r)) = i` constraint on its processing rule, and tuples are
//     routed by the same shared h. RewriteLinearSirup().
//
//   * Section 7 (T_i, arbitrary programs): same construction applied
//     per rule, with a discriminating sequence and function chosen for
//     each rule. RewriteGeneral().
//
//   * Section 6 (R_i, redundancy/communication trade-off): processing
//     rules carry NO constraint, and each processor routes its outputs
//     with its own h_i. RewriteTradeoff().
//
// The per-processor program is materialized as a real, printable Datalog
// Program over decorated predicates (`t_out`, `t_in`) with hash
// constraints, exactly as the paper presents the rewriting. Sending and
// receiving rules are represented as SendSpecs: the engine implements
// the channel predicates t_ij natively.
//
// The bundle also records which derived predicates are *self-routed*:
// every row processor i derives for them is sent back to processor i
// (Example 1, Theorem 3). For those the sending rule is the identity
// t_in(Y) :- t_out(Y), so a worker evaluates Q_i with t_in as the head
// and the t_out relation and the self channel never exist at run time.
// The printed Q_i keeps the paper's t_out heads.
#ifndef PDATALOG_CORE_REWRITE_H_
#define PDATALOG_CORE_REWRITE_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/discriminating.h"
#include "datalog/analysis.h"
#include "datalog/validate.h"
#include "util/status.h"

namespace pdatalog {

// One sending rule `t_ij(Y) :- t_out^i(Y), h(v(r)) = j` (Section 3).
// `pattern` is the recursive body atom the tuples will feed at the
// receiver; a tuple is routed by matching it against the pattern and
// hashing the bindings of `vars`.
//
// If some var of `vars` does not occur in the pattern, the sender cannot
// evaluate the constraint and must broadcast (the paper's Example 2:
// "all tuples in anc_out^i are communicated to processor j").
struct SendSpec {
  Symbol predicate = kInvalidSymbol;  // derived predicate being sent
  Atom pattern;                       // recursive body atom (args = Y)
  std::vector<Symbol> vars;           // discriminating sequence v(r)
  int function = -1;                  // registry id of h
  bool determined = false;            // vars all occur in pattern
  // For determined specs: var_positions[k] = first column of `pattern`
  // holding vars[k].
  std::vector<int> var_positions;
};

// How one base-atom occurrence of the local program is accessed at each
// processor: the paper's b_k^i (Section 3) / D_in^i (Section 7).
struct BaseOccurrence {
  int rule_index = -1;  // into the local program's rules
  int body_index = -1;  // into that rule's body

  enum class Access { kReplicated, kFragment };
  Access access = Access::kReplicated;

  // kFragment: h(v(r)) evaluated on these columns of the base atom must
  // equal the processor id.
  int function = -1;
  std::vector<int> positions;
};

// The result of rewriting: everything the parallel engine needs.
struct RewriteBundle {
  int num_processors = 0;

  std::shared_ptr<DiscriminatingRegistry> registry;

  // per_processor[i] = the program Q_i/R_i/T_i (init + processing rules
  // only; sending/receiving/pooling are engine-native). All processors
  // share rule structure; only constraint targets differ.
  std::vector<Program> per_processor;

  // sends[i] = sending rules evaluated at processor i. Identical across
  // processors for the Q/T schemes; per-processor for the R scheme.
  std::vector<std::vector<SendSpec>> sends;

  // Access decision for every base atom occurrence of the local rules.
  std::vector<BaseOccurrence> base_occurrences;

  // Original derived predicates, and their decorated names.
  std::vector<Symbol> derived;
  std::unordered_map<Symbol, Symbol> out_name;  // t -> t_out
  std::unordered_map<Symbol, Symbol> in_name;   // t -> t_in
  std::unordered_map<Symbol, int> arity;        // original predicates

  // True when every processing rule carries its h(v(r))=i constraint;
  // then the parallel execution is semi-naive non-redundant (Thm 2/6).
  bool non_redundant = false;

  // Derived predicates p whose rows route back to the processor that
  // derived them: SendsPartition(*this, p) holds, and every rule with
  // head p carries an h(v) = i constraint whose function equals p's send
  // function and whose variable v[k] the head holds at the send's
  // var_positions[k]. Then h(send columns of a row) = h(v) = i.
  std::unordered_set<Symbol> self_routed;
};

// True when the sending rules of derived predicate `p` partition it:
// every processor has exactly one send for `p`, that send is determined
// over a pattern of distinct variables, all processors share its
// function and var_positions, and the function's kind makes the
// destination a function of the tuple alone (not keep-or-hash, remapped
// or custom). Then every p-tuple reaches exactly one t_in, the same one
// whichever processor derived it, so the t_ins are pairwise disjoint and
// their union is the fixpoint. A rebalancer moves buckets mid-run and
// breaks this; RunParallel checks for one separately.
bool SendsPartition(const RewriteBundle& bundle, Symbol p);

// --- Scheme constructors ---------------------------------------------

// Section 3. `v_r` / `v_e` are the discriminating sequences for the
// recursive and exit rules; `h` is shared by all processors (and used
// as h' unless `h_prime` is provided). `fragment_bases` enables the
// b_k^i fragmentation when the sequence's variables appear in the atom.
struct LinearSchemeOptions {
  std::vector<Symbol> v_r;
  std::vector<Symbol> v_e;
  DiscriminatingFunction h;
  std::optional<DiscriminatingFunction> h_prime;
  bool fragment_bases = true;
};

StatusOr<RewriteBundle> RewriteLinearSirup(const Program& program,
                                           const ProgramInfo& info,
                                           const LinearSirup& sirup,
                                           int num_processors,
                                           const LinearSchemeOptions& options);

// Section 7. One spec per rule of `program` (same order).
struct GeneralRuleSpec {
  std::vector<Symbol> vars;  // v(r_k); must occur in the rule body
  DiscriminatingFunction h;
};

StatusOr<RewriteBundle> RewriteGeneral(
    const Program& program, const ProgramInfo& info, int num_processors,
    const std::vector<GeneralRuleSpec>& rule_specs, bool fragment_bases = true);

// Section 6. Processing rules carry no constraint; processor i routes
// outputs with its own h_i. Requires every v_r variable to occur in the
// recursive body atom (the section's stated restriction). With all
// h_i = Constant(i) this is the no-communication scheme of [18]; with
// all h_i equal to one shared h it coincides with Section 3.
struct TradeoffOptions {
  std::vector<Symbol> v_r;
  std::vector<Symbol> v_e;
  DiscriminatingFunction h_prime;             // splits the exit rule
  std::vector<DiscriminatingFunction> h_i;    // size = num_processors
};

StatusOr<RewriteBundle> RewriteTradeoff(const Program& program,
                                        const ProgramInfo& info,
                                        const LinearSirup& sirup,
                                        int num_processors,
                                        const TradeoffOptions& options);

}  // namespace pdatalog

#endif  // PDATALOG_CORE_REWRITE_H_

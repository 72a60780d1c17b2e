// Compile-time network planning (Section 5): given a linear sirup and a
// choice of discriminating sequence + linear discriminating function,
// derive the minimal communication network before running anything —
// "the rewriting method at compile time can be adapted to the
// architecture of the system" (Section 8).
#include <cstdio>

#include "core/advisor.h"
#include "core/dataflow_graph.h"
#include "core/schemes.h"
#include "core/network_graph.h"
#include "datalog/parser.h"
#include "workload/generators.h"

using namespace pdatalog;

namespace {

void Plan(const char* title, const char* source,
          const std::vector<std::string>& v_r_names,
          const std::vector<std::string>& v_e_names,
          const std::vector<int>& coeffs_h,
          const std::vector<int>& coeffs_hp) {
  std::printf("=== %s ===\n%s", title, source);

  SymbolTable symbols;
  StatusOr<Program> program = ParseProgram(source, &symbols);
  ProgramInfo info;
  (void)Validate(*program, &info);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(*program, info);
  if (!sirup.ok()) {
    std::printf("  not a linear sirup: %s\n\n",
                sirup.status().ToString().c_str());
    return;
  }

  DataflowGraph dataflow = DataflowGraph::Build(*sirup);
  std::printf("dataflow graph (Definition 2): %s\n",
              dataflow.edges.empty() ? "(empty)"
                                     : dataflow.ToString().c_str());
  if (dataflow.HasCycle()) {
    StatusOr<LinearSchemeOptions> free_scheme =
        CommunicationFreeScheme(*sirup, 4);
    if (free_scheme.ok()) {
      std::printf("cycle found (Theorem 3): choose v(r) = <");
      for (size_t i = 0; i < free_scheme->v_r.size(); ++i) {
        std::printf("%s%s", i ? ", " : "",
                    symbols.Name(free_scheme->v_r[i]).c_str());
      }
      std::printf("> for a communication-free execution\n");
    }
  } else {
    std::printf("acyclic: some communication is unavoidable; deriving the "
                "minimal network\n");
  }

  std::vector<Symbol> v_r, v_e;
  for (const std::string& n : v_r_names) v_r.push_back(symbols.Intern(n));
  for (const std::string& n : v_e_names) v_e.push_back(symbols.Intern(n));
  StatusOr<NetworkGraph> network =
      DeriveNetworkGraph(*sirup, v_r, v_e, coeffs_h, coeffs_hp);
  if (!network.ok()) {
    std::printf("  derivation failed: %s\n\n",
                network.status().ToString().c_str());
    return;
  }
  std::printf("chosen v(r) = <");
  for (size_t i = 0; i < v_r_names.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", v_r_names[i].c_str());
  }
  std::printf(">, h = ");
  for (size_t i = 0; i < coeffs_h.size(); ++i) {
    std::printf("%s%d*g(a%zu)", i ? " + " : "", coeffs_h[i], i + 1);
  }
  std::printf("\nprocessors (achievable h values): {");
  for (size_t i = 0; i < network->processors.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", network->processors[i]);
  }
  std::printf("}\nminimal network graph:\n%s",
              network->ToString().c_str());
  size_t possible = network->processors.size() * network->processors.size();
  std::printf("channels needed: %zu of %zu possible\n\n",
              network->edges.size(), possible);
}

}  // namespace

int main() {
  // The paper's Example 6 (Figure 3): a de Bruijn-style 4-processor net.
  Plan("Example 6 / Figure 3",
       "p(X, Y) :- q(X, Y).\n"
       "p(X, Y) :- p(Y, Z), r(X, Z).\n",
       {"Y", "Z"}, {"X", "Y"}, {2, 1}, {2, 1});

  // The paper's Example 7 (Figure 4): h = g(a1) - g(a2) + g(a3).
  Plan("Example 7 / Figure 4",
       "p(U, V, W) :- s(U, V, W).\n"
       "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
       {"V", "W", "Z"}, {"U", "V", "W"}, {1, -1, 1}, {1, -1, 1});

  // Ancestor with the Example 1 sequence: self-loops only, proving at
  // compile time that no interconnect is needed.
  Plan("Ancestor, v(r) = <Y> (Example 1)",
       "anc(X, Y) :- par(X, Y).\n"
       "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
       {"Y"}, {"Y"}, {1}, {1});

  // Ancestor with the Example 3 sequence: the price of disjoint
  // fragments is a complete interconnect.
  Plan("Ancestor, v(r) = <Z> (Example 3)",
       "anc(X, Y) :- par(X, Y).\n"
       "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
       {"Z"}, {"X"}, {1}, {1});

  // Close the loop: let the advisor pick among the candidates for a
  // concrete database and cost model (Section 8's compiler decision).
  {
    std::printf("=== scheme advisor (ancestor, random data, net/cpu=4) ===\n");
    SymbolTable symbols;
    StatusOr<Program> program = ParseProgram(
        "anc(X, Y) :- par(X, Y).\n"
        "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
        &symbols);
    ProgramInfo info;
    (void)Validate(*program, &info);
    StatusOr<LinearSirup> sirup = ExtractLinearSirup(*program, info);
    Database edb;
    GenRandomGraph(&symbols, &edb, "par", 60, 140, 17);
    AdvisorOptions options;
    options.cost = {1.0, 4.0, 0.0};
    StatusOr<AdvisorReport> report =
        AdviseScheme(*program, info, *sirup, &edb, options);
    if (report.ok()) {
      std::printf("%s", report->ToString().c_str());
      std::printf("advice: %s — %s\n", report->best().name.c_str(),
                  report->best().description.c_str());
    }
  }
  return 0;
}

// FIG-1 / FIG-2: regenerates the paper's Figures 1 and 2 — the dataflow
// graphs of Example 4 and of the ancestor rule — plus Theorem 3's
// conclusion for each.
#include <cstdio>

#include "bench_util.h"
#include "core/dataflow_graph.h"

using namespace pdatalog;

namespace {

void ShowDataflow(const char* figure, const char* source,
                  const char* expected) {
  SymbolTable symbols;
  StatusOr<Program> program = ParseProgram(source, &symbols);
  ProgramInfo info;
  (void)Validate(*program, &info);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(*program, info);
  DataflowGraph graph = DataflowGraph::Build(*sirup);

  std::printf("--- %s ---\n", figure);
  std::printf("rule: %s\n", ToString(sirup->rec, symbols).c_str());
  std::printf("measured dataflow graph: %s\n", graph.ToString().c_str());
  std::printf("paper:                   %s\n", expected);
  std::printf("cycle: %s", graph.HasCycle() ? "yes" : "no");
  if (graph.HasCycle()) {
    StatusOr<LinearSchemeOptions> scheme =
        CommunicationFreeScheme(*sirup, 4);
    if (scheme.ok()) {
      std::printf(" -> Theorem 3: communication-free with v(r) = <");
      for (size_t i = 0; i < scheme->v_r.size(); ++i) {
        std::printf("%s%s", i ? ", " : "",
                    symbols.Name(scheme->v_r[i]).c_str());
      }
      std::printf(">");
    }
  } else {
    std::printf(" -> communication needed for any discriminating choice "
                "pushing selections into the body");
  }
  std::printf("\n\n");
}

}  // namespace

int main() {
  std::printf("Reproduction of Figures 1 and 2 (Section 5).\n\n");

  ShowDataflow("Figure 1 (Example 4)",
               "p(U, V, W) :- s(U, V, W).\n"
               "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
               "1 -> 2, 2 -> 3   (the paper draws 1 -> 2 -> 3)");

  ShowDataflow("Figure 2 (Example 5, ancestor)",
               bench::kAncestorSource,
               "2 -> 2   (self-loop; hence Example 1 needs no "
               "communication)");
  return 0;
}

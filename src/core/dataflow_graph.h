// Dataflow graphs of linear recursive rules (Section 5, Definition 2).
// A cycle yields a choice of discriminating sequence that makes the
// parallel execution communication-free (Theorem 3); core/schemes.h
// builds that scheme.
#ifndef PDATALOG_CORE_DATAFLOW_GRAPH_H_
#define PDATALOG_CORE_DATAFLOW_GRAPH_H_

#include <string>
#include <vector>

#include "datalog/analysis.h"

namespace pdatalog {

// Definition 2: for head t(X_1..X_m) and body atom t(Y_1..Y_m), vertex i
// exists iff Y_i equals some X_j, and edge i -> j exists iff Y_i == X_j.
// Positions are 0-based here; ToString prints them 1-based like the
// paper's figures.
struct DataflowGraph {
  int arity = 0;
  std::vector<int> vertices;                 // 0-based positions
  std::vector<std::pair<int, int>> edges;    // (i, j), 0-based

  static DataflowGraph Build(const LinearSirup& sirup);

  bool HasCycle() const;

  // Body-atom positions lying on some cycle (empty if acyclic).
  std::vector<int> CyclePositions() const;

  // e.g. "1 -> 2, 2 -> 3" (1-based, matching Figures 1 and 2).
  std::string ToString() const;
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_DATAFLOW_GRAPH_H_

#include "core/dataflow_graph.h"

#include <algorithm>

namespace pdatalog {

DataflowGraph DataflowGraph::Build(const LinearSirup& sirup) {
  DataflowGraph graph;
  graph.arity = sirup.arity();
  const std::vector<Symbol> x = sirup.HeadVarsX();
  const std::vector<Symbol> y = sirup.BodyVarsY();
  for (int i = 0; i < graph.arity; ++i) {
    if (y[i] == kInvalidSymbol) continue;  // constant position
    for (int j = 0; j < graph.arity; ++j) {
      if (y[i] == x[j]) graph.edges.emplace_back(i, j);
    }
  }
  for (const auto& [i, j] : graph.edges) {
    if (!std::count(graph.vertices.begin(), graph.vertices.end(), i)) {
      graph.vertices.push_back(i);
    }
    if (!std::count(graph.vertices.begin(), graph.vertices.end(), j)) {
      graph.vertices.push_back(j);
    }
  }
  std::sort(graph.vertices.begin(), graph.vertices.end());
  return graph;
}

namespace {

// DFS cycle search returning the vertices of one simple cycle.
bool FindCycleFrom(int v, const std::vector<std::vector<int>>& adj,
                   std::vector<int>* color, std::vector<int>* stack,
                   std::vector<int>* cycle) {
  (*color)[v] = 1;  // on stack
  stack->push_back(v);
  for (int w : adj[v]) {
    if ((*color)[w] == 1) {
      // Found a cycle: the stack suffix starting at w.
      auto it = std::find(stack->begin(), stack->end(), w);
      cycle->assign(it, stack->end());
      return true;
    }
    if ((*color)[w] == 0 &&
        FindCycleFrom(w, adj, color, stack, cycle)) {
      return true;
    }
  }
  stack->pop_back();
  (*color)[v] = 2;
  return false;
}

std::vector<int> FindCycle(int arity,
                           const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> adj(arity);
  for (const auto& [i, j] : edges) adj[i].push_back(j);
  std::vector<int> color(arity, 0);
  std::vector<int> stack;
  std::vector<int> cycle;
  for (int v = 0; v < arity; ++v) {
    if (color[v] == 0 &&
        FindCycleFrom(v, adj, &color, &stack, &cycle)) {
      return cycle;
    }
  }
  return {};
}

}  // namespace

bool DataflowGraph::HasCycle() const {
  return !FindCycle(arity, edges).empty();
}

std::vector<int> DataflowGraph::CyclePositions() const {
  std::vector<int> cycle = FindCycle(arity, edges);
  std::sort(cycle.begin(), cycle.end());
  return cycle;
}

std::string DataflowGraph::ToString() const {
  std::string out;
  for (size_t k = 0; k < edges.size(); ++k) {
    if (k > 0) out += ", ";
    out += std::to_string(edges[k].first + 1);
    out += " -> ";
    out += std::to_string(edges[k].second + 1);
  }
  return out;
}

}  // namespace pdatalog

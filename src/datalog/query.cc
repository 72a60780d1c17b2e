#include "datalog/query.h"

#include <algorithm>
#include <span>
#include <utility>

#include "datalog/parser.h"

namespace pdatalog {

std::string QueryResult::ToString(const SymbolTable& symbols) const {
  if (IsBoolean()) return Holds() ? "true\n" : "false\n";
  // Size the output exactly, then append each name in place.
  size_t line_bytes = 1;  // '\n'
  for (size_t v = 0; v < variables.size(); ++v) {
    line_bytes += symbols.Name(variables[v]).size() + (v > 0 ? 5 : 3);
  }
  size_t bytes = bindings.size() * line_bytes;
  // Sorts pointers, not Tuple copies. Every binding has the same arity,
  // so the lexicographic order is Tuple's operator< order.
  std::vector<const Tuple*> sorted;
  sorted.reserve(bindings.size());
  for (const Tuple& t : bindings) {
    sorted.push_back(&t);
    for (Value value : t) bytes += symbols.Name(value).size();
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Tuple* a, const Tuple* b) {
              return std::lexicographical_compare(a->begin(), a->end(),
                                                  b->begin(), b->end());
            });
  std::string out;
  out.reserve(bytes);
  for (const Tuple* t : sorted) {
    for (size_t v = 0; v < variables.size(); ++v) {
      if (v > 0) out += ", ";
      out += symbols.Name(variables[v]);
      out += " = ";
      out += symbols.Name((*t)[static_cast<int>(v)]);
    }
    out += '\n';
  }
  return out;
}

StatusOr<ParsedQuery> ParseQuery(std::string_view query_text,
                                 SymbolTable* symbols) {
  // Reuse the program parser: a query atom with variables parses as the
  // head of a bodyless clause only if ground, so parse `q :- ATOM.`
  // and take the body atom.
  std::string wrapped = "q__query :- " + std::string(query_text);
  // Allow an optional trailing period in the query text.
  while (!wrapped.empty() &&
         (wrapped.back() == '.' || wrapped.back() == ' ' ||
          wrapped.back() == '\n')) {
    wrapped.pop_back();
  }
  wrapped += ".";
  StatusOr<Program> parsed = ParseProgram(wrapped, symbols);
  if (!parsed.ok()) {
    return Status::InvalidArgument("malformed query '" +
                                   std::string(query_text) +
                                   "': " + parsed.status().message());
  }
  if (parsed->rules.size() != 1 || parsed->rules[0].body.size() != 1 ||
      !parsed->facts.empty() || !parsed->queries.empty()) {
    return Status::InvalidArgument("query must be a single atom");
  }
  ParsedQuery query;
  query.atom = parsed->rules[0].body[0];
  if (query.atom.arity() > 32) {
    return Status::InvalidArgument("query arity exceeds 32");
  }
  CollectVariables(query.atom, &query.variables);
  return query;
}

namespace {

// A query atom resolved once per query, so the per-row work is plain
// column compares: which columns must equal a constant, which must
// equal an earlier column (a repeated variable), and which column each
// variable binds from.
struct CompiledQuery {
  std::vector<std::pair<int, Value>> constants;  // (column, constant)
  std::vector<std::pair<int, int>> equalities;   // (column, earlier column)
  std::vector<int> projection;  // variable v binds from projection[v]
};

CompiledQuery Compile(const ParsedQuery& query) {
  CompiledQuery compiled;
  const Atom& atom = query.atom;
  std::vector<int> first_column(query.variables.size(), -1);
  for (int c = 0; c < atom.arity(); ++c) {
    const Term& term = atom.args[c];
    if (term.is_const()) {
      compiled.constants.emplace_back(c, term.sym);
      continue;
    }
    const size_t v = static_cast<size_t>(
        std::find(query.variables.begin(), query.variables.end(),
                  term.sym) -
        query.variables.begin());
    if (first_column[v] < 0) {
      first_column[v] = c;
    } else {
      compiled.equalities.emplace_back(c, first_column[v]);
    }
  }
  compiled.projection = std::move(first_column);
  return compiled;
}

bool RowMatches(const CompiledQuery& query, const RelationView& rel,
                size_t row) {
  for (const auto& [col, value] : query.constants) {
    if (rel.cell(row, col) != value) return false;
  }
  for (const auto& [col, earlier] : query.equalities) {
    if (rel.cell(row, col) != rel.cell(row, earlier)) return false;
  }
  return true;
}

// No dedup set: the projection is injective on a relation's rows. The
// constants are fixed, and every other column holds a variable whose
// binding is in the projection, so a binding tuple determines the
// whole row — and a relation holds each row once (set semantics).
void Emit(const CompiledQuery& query, const RelationView& rel, size_t row,
          QueryResult* result) {
  Value binding[32];
  const int num_vars = static_cast<int>(query.projection.size());
  for (int v = 0; v < num_vars; ++v) {
    binding[v] = rel.cell(row, query.projection[static_cast<size_t>(v)]);
  }
  result->bindings.emplace_back(binding, num_vars);
}

// Matches rows [begin, end) in ascending order. With a constant, the
// first constant-bound column is scanned chunk by chunk and only its
// hits are checked further.
void ScanRows(const CompiledQuery& query, const RelationView& rel,
              size_t begin, size_t end, QueryResult* result) {
  result->rows_examined += end - begin;
  if (query.constants.empty()) {
    for (size_t row = begin; row < end; ++row) {
      if (RowMatches(query, rel, row)) Emit(query, rel, row, result);
    }
    return;
  }
  const auto [col, value] = query.constants.front();
  for (size_t row = begin; row < end;) {
    size_t run;
    const Value* cells = rel.ColumnSpan(col, row, end, &run);
    for (size_t i = 0; i < run; ++i) {
      if (cells[i] == value && RowMatches(query, rel, row + i)) {
        Emit(query, rel, row + i, result);
      }
    }
    row += run;
  }
}

// Probes the view's index for rows [0, index rows) with the constant
// whose posting list is shortest, then scans the unindexed tail. Both
// parts ascend and the tail follows the prefix, so the bindings come
// out in the same row order as a full scan.
void MatchRows(const CompiledQuery& query, const RelationView& rel,
               QueryResult* result) {
  const FrozenIndex* index = rel.index();
  if (index == nullptr || query.constants.empty()) {
    ScanRows(query, rel, 0, rel.size(), result);
    return;
  }
  std::span<const uint32_t> hits;
  for (size_t i = 0; i < query.constants.size(); ++i) {
    const auto& [col, value] = query.constants[i];
    std::span<const uint32_t> found =
        index->columns[static_cast<size_t>(col)].Find(value);
    if (i == 0 || found.size() < hits.size()) hits = found;
  }
  result->rows_examined += hits.size();
  for (uint32_t row : hits) {
    if (RowMatches(query, rel, row)) Emit(query, rel, row, result);
  }
  ScanRows(query, rel, index->rows, rel.size(), result);
}

StatusOr<QueryResult> MatchAgainst(const ParsedQuery& query,
                                   const RelationView* rel) {
  QueryResult result;
  result.variables = query.variables;
  if (rel == nullptr) return result;
  if (rel->arity() != query.atom.arity()) {
    return Status::InvalidArgument(
        "query arity " + std::to_string(query.atom.arity()) +
        " does not match relation arity " + std::to_string(rel->arity()));
  }
  MatchRows(Compile(query), *rel, &result);
  return result;
}

}  // namespace

StatusOr<QueryResult> MatchQuery(const ParsedQuery& query,
                                 const Database& db) {
  const Relation* rel = db.Find(query.atom.predicate);
  if (rel == nullptr) return MatchAgainst(query, nullptr);
  // An unindexed view of the live relation: a few chunk pointers.
  const RelationView view(*rel);
  return MatchAgainst(query, &view);
}

StatusOr<QueryResult> MatchQuery(const ParsedQuery& query,
                                 const DatabaseView& view) {
  return MatchAgainst(query, view.Find(query.atom.predicate));
}

StatusOr<QueryResult> EvaluateQuery(std::string_view query_text,
                                    SymbolTable* symbols,
                                    const Database& db) {
  StatusOr<ParsedQuery> query = ParseQuery(query_text, symbols);
  if (!query.ok()) return query.status();
  return MatchQuery(*query, db);
}

StatusOr<QueryResult> EvaluateQuery(std::string_view query_text,
                                    SymbolTable* symbols,
                                    const DatabaseView& view) {
  StatusOr<ParsedQuery> query = ParseQuery(query_text, symbols);
  if (!query.ok()) return query.status();
  return MatchQuery(*query, view);
}

}  // namespace pdatalog

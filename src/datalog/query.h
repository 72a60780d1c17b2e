// Point/pattern queries against evaluated relations: given an atom such
// as `anc(alice, X)`, returns the bindings of its variables. This is
// the "answer to the query" step the paper's final pooling feeds, and
// the read path of the serving engine (src/server/).
//
// Parsing and matching are split so a server can intern symbols under a
// lock (ParseQuery) and then match against a frozen snapshot lock-free
// (MatchQuery over a DatabaseView, which probes the snapshot's column
// indexes and scans only the rows appended after them).
#ifndef PDATALOG_DATALOG_QUERY_H_
#define PDATALOG_DATALOG_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "datalog/ast.h"
#include "datalog/symbol_table.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "util/status.h"

namespace pdatalog {

struct QueryResult {
  // The query's distinct variables in first-occurrence order; empty for
  // a ground (boolean) query.
  std::vector<Symbol> variables;
  // One tuple per matching row, projected onto `variables`, in
  // ascending row order. Distinct rows give distinct tuples, so there
  // are no duplicates to remove. A ground query yields a single empty
  // tuple when it holds, none when it does not.
  std::vector<Tuple> bindings;
  // Rows the matcher examined: index hits plus scanned rows. This is
  // the work a query did, which on an indexed view is far below the
  // relation's size.
  size_t rows_examined = 0;

  bool IsBoolean() const { return variables.empty(); }
  bool Holds() const { return !bindings.empty(); }

  // "X = alice, Y = bob" lines, sorted; "true"/"false" for boolean.
  std::string ToString(const SymbolTable& symbols) const;
};

// A parsed query atom plus its distinct variables in first-occurrence
// order. Self-contained value: matching needs no symbol table.
struct ParsedQuery {
  Atom atom;
  std::vector<Symbol> variables;
};

// Parses `query_text` as a single atom (trailing '.' optional),
// interning constants into `symbols`. Rejects anything that is not one
// atom of arity <= 32.
StatusOr<ParsedQuery> ParseQuery(std::string_view query_text,
                                 SymbolTable* symbols);

// Matches a parsed query against `db` / a frozen `view`. An absent
// predicate yields an empty result (not an error), like an empty
// relation would; an arity mismatch is an error. Both overloads run
// one matcher. Against a view with an index, a query with a constant
// probes the index for rows [0, index()->rows) and scans the rest;
// otherwise it scans every row. The view overload touches only the
// frozen rows and is safe to run concurrently with writers of the
// underlying database.
StatusOr<QueryResult> MatchQuery(const ParsedQuery& query,
                                 const Database& db);
StatusOr<QueryResult> MatchQuery(const ParsedQuery& query,
                                 const DatabaseView& view);

// Parse + match in one call (the one-shot CLI path).
StatusOr<QueryResult> EvaluateQuery(std::string_view query_text,
                                    SymbolTable* symbols,
                                    const Database& db);
StatusOr<QueryResult> EvaluateQuery(std::string_view query_text,
                                    SymbolTable* symbols,
                                    const DatabaseView& view);

}  // namespace pdatalog

#endif  // PDATALOG_DATALOG_QUERY_H_

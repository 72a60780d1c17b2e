// Database snapshots, in two forms:
//
//  * On disk: directories of TSV files (one file per relation, named
//    <predicate>.tsv). Constant names are escaped on save (\t, \n, \r
//    and \\ become two-character escapes) and unescaped on load, so
//    round-trips are exact for every internable string; malformed rows
//    (bad escapes, ragged field counts) are rejected with a Status
//    instead of being silently misparsed. Files written by older
//    versions (no escapes) load unchanged unless they contain a bare
//    backslash.
//
//  * In memory: `DatabaseView`, an immutable frozen view of a live
//    database. A view pins, per relation, the row count and the column
//    chunk pointers at freeze time. Chunks never relocate and rows are
//    append-only (set semantics: no update, no delete), so a view stays
//    valid and *constant* while the underlying relations keep growing —
//    this is the copy-on-write read snapshot the serving engine hands
//    to reader threads (src/server/). Freezing must be synchronized
//    with the single writer (the maintenance thread freezes its own
//    database between evaluation rounds); reads afterwards are
//    wait-free and touch no shared mutable state.
//
//    Freeze also gives every relation view one immutable index per
//    column over a prefix [0, m) of its rows, so a point query probes
//    instead of scanning (datalog/query.h). The index is built by the
//    freezing writer, shared by later views while the unindexed tail
//    stays short, and never mutated after construction.
#ifndef PDATALOG_STORAGE_SNAPSHOT_H_
#define PDATALOG_STORAGE_SNAPSHOT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/symbol_table.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdatalog {

// Immutable single-column index over rows [0, rows) of one relation
// column. Layout: a flat open-addressing key directory whose slots hold
// (key, first posting, posting count), over one posting array that
// lists every row id grouped by key, ascending within a key. Keys are
// stored inline, so a lookup reads only the index — never the live
// ColumnStore, whose chunk vector relocates as the writer appends.
// Memory: 4 bytes per indexed row plus the directory, 12 bytes per slot
// at two to four slots per distinct key.
class FrozenColumnIndex {
 public:
  // Builds over the first `rows` rows of a column given as chunk
  // pointers (ColumnStore::kChunkRows values each): one counting pass
  // and one scatter pass, O(rows).
  FrozenColumnIndex(const std::vector<const Value*>& chunks, size_t rows);

  // Ids of the indexed rows whose cell equals `key`, ascending; empty
  // when the key is absent.
  std::span<const uint32_t> Find(Value key) const;

 private:
  struct Slot {
    Value key;
    uint32_t begin;  // first posting of this key
    uint32_t count;  // 0 marks an empty slot
  };

  // The slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(Value key) const;
  void Grow();

  std::vector<Slot> slots_;  // power-of-two sized, at most half full
  int shift_;                // 64 - log2(slots_.size())
  size_t num_keys_ = 0;
  std::vector<uint32_t> postings_;
};

// The column indexes of one frozen relation, all covering rows
// [0, rows). Immutable once built; views share it by shared_ptr.
struct FrozenIndex {
  size_t rows = 0;
  std::vector<FrozenColumnIndex> columns;
};

// Frozen view of one relation: arity, the row count at freeze time, and
// one chunk-pointer list per column. Cells [0, size()) read through the
// live relation's chunks, which are immutable below the freeze point.
class RelationView {
 public:
  RelationView() = default;

  // Captures `relation` at its current size, without an index. Caller
  // must guarantee no concurrent mutation during the capture
  // (single-writer contract).
  explicit RelationView(const Relation& relation);

  int arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  Value cell(size_t row, int col) const {
    return columns_[static_cast<size_t>(col)]
                   [row >> ColumnStore::kChunkShift]
                   [row & ColumnStore::kChunkMask];
  }

  // Pointer to column `col` at `row` (< end <= size()); `*run` receives
  // the rows readable contiguously from there, bounded by the chunk
  // edge and `end`.
  const Value* ColumnSpan(int col, size_t row, size_t end,
                          size_t* run) const {
    const size_t in_chunk = row & ColumnStore::kChunkMask;
    *run = std::min(ColumnStore::kChunkRows - in_chunk, end - row);
    return columns_[static_cast<size_t>(col)]
                   [row >> ColumnStore::kChunkShift] +
           in_chunk;
  }

  // The column indexes over rows [0, index()->rows), or null for a view
  // made by the constructor (only DatabaseView::Freeze indexes).
  const FrozenIndex* index() const { return index_.get(); }

  // Materializes row `i` (cold paths: saving, sorted dumps).
  Tuple row(size_t i) const;

  // Sorted textual dump, identical to Relation::ToSortedString over the
  // same rows (tests compare the two directly).
  std::string ToSortedString(const SymbolTable& symbols) const;

 private:
  friend class DatabaseView;

  int arity_ = 0;
  size_t num_rows_ = 0;
  // columns_[col][chunk] -> first value of that chunk. Pointers alias
  // the live ColumnStore's chunks (never relocated, never freed while
  // the owning Relation lives).
  std::vector<std::vector<const Value*>> columns_;
  std::shared_ptr<const FrozenIndex> index_;
};

// Frozen view of a whole database: one RelationView per relation.
class DatabaseView {
 public:
  DatabaseView() = default;

  // Captures every relation of `db` and indexes every column.
  // Single-writer contract as above. `previous`, if given, must be an
  // earlier view of the same database: a relation whose rows grew by
  // at most 1/8 of its indexed prefix since then keeps that view's
  // index (the rows past it stay an unindexed tail); any other
  // relation gets a fresh index over all its rows.
  static DatabaseView Freeze(const Database& db,
                             const DatabaseView* previous = nullptr);

  const RelationView* Find(Symbol predicate) const;
  size_t relation_count() const { return relations_.size(); }

  // Sum of row counts over all relations (cheap liveness metric).
  size_t total_rows() const;

  const std::unordered_map<Symbol, RelationView>& relations() const {
    return relations_;
  }

 private:
  std::unordered_map<Symbol, RelationView> relations_;
};

// TSV field escaping used by Save/LoadDatabase. Exposed for tests.
std::string EscapeTsvField(const std::string& name);
// Returns false on a malformed escape (trailing '\' or unknown code).
bool UnescapeTsvField(std::string_view field, std::string* out);

// Writes every relation of `db` to `directory` (created if missing) as
// <name>.tsv with tab-separated, escaped constant names, rows sorted
// for reproducible output. Returns the number of files written.
StatusOr<size_t> SaveDatabase(const Database& db, const SymbolTable& symbols,
                              const std::string& directory);

// Same, from a frozen view (the serving engine's `!snapshot` verb saves
// the snapshot readers currently see, not the moving fixpoint).
StatusOr<size_t> SaveDatabase(const DatabaseView& view,
                              const SymbolTable& symbols,
                              const std::string& directory);

// Loads every *.tsv file of `directory` into `db`, using the file stem
// as the predicate name. Fields are split on tabs only and unescaped;
// a row whose field count disagrees with the relation arity or whose
// escapes are malformed fails the load with InvalidArgument. Returns
// the number of relations loaded.
StatusOr<size_t> LoadDatabase(const std::string& directory,
                              SymbolTable* symbols, Database* db);

}  // namespace pdatalog

#endif  // PDATALOG_STORAGE_SNAPSHOT_H_

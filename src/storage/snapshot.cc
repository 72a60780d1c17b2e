#include "storage/snapshot.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace pdatalog {

namespace {

// A view keeps its predecessor's index while the rows appended since
// that index was built number at most 1/8 of the rows it covers. The
// tail scan is then at most 1/8 of a full scan, and a rebuild happens
// only after the relation grew by more than 1/8, so amortized each
// appended row costs about nine index inserts. A fixed ratio, not an
// option: it trades a bounded tail for a bounded rebuild rate, and
// neither end needs tuning per workload.
constexpr size_t kMaxTailShare = 8;  // tail <= indexed rows / 8

constexpr int kMinSlotBits = 4;

// Calls fn(row, cell) for rows [0, rows) of a column given as chunk
// pointers, one chunk at a time.
template <typename Fn>
void ForEachCell(const std::vector<const Value*>& chunks, size_t rows,
                 Fn fn) {
  for (size_t base = 0; base < rows; base += ColumnStore::kChunkRows) {
    const Value* cells = chunks[base >> ColumnStore::kChunkShift];
    const size_t n = std::min(ColumnStore::kChunkRows, rows - base);
    for (size_t i = 0; i < n; ++i) fn(base + i, cells[i]);
  }
}

}  // namespace

FrozenColumnIndex::FrozenColumnIndex(const std::vector<const Value*>& chunks,
                                     size_t rows)
    : slots_(size_t{1} << kMinSlotBits, Slot{0, 0, 0}),
      shift_(64 - kMinSlotBits) {
  // Counting pass: one directory slot per distinct key, each counting
  // its rows. The directory doubles at half load (amortized O(rows)).
  ForEachCell(chunks, rows, [this](size_t, Value key) {
    Slot* slot = &slots_[SlotOf(key)];
    if (slot->count == 0) {
      if (2 * (num_keys_ + 1) > slots_.size()) {
        Grow();
        slot = &slots_[SlotOf(key)];
      }
      slot->key = key;
      ++num_keys_;
    }
    ++slot->count;
  });
  // Lay the keys' posting runs out back to back, in slot order.
  uint32_t next = 0;
  for (Slot& slot : slots_) {
    slot.begin = next;
    next += slot.count;
  }
  // Scatter pass: rows in ascending order, so each key's run ascends.
  // `begin` serves as the key's write cursor and is rewound after.
  postings_.resize(rows);
  ForEachCell(chunks, rows, [this](size_t row, Value key) {
    postings_[slots_[SlotOf(key)].begin++] = static_cast<uint32_t>(row);
  });
  for (Slot& slot : slots_) slot.begin -= slot.count;
}

size_t FrozenColumnIndex::SlotOf(Value key) const {
  // Fibonacci hashing: keys are interned ids, often dense, and the top
  // bits of one multiply spread them evenly. A full 64-bit mixer made
  // the counting pass about four times slower.
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>((uint64_t{key} * 0x9e3779b97f4a7c15ull) >>
                                 shift_);
  while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void FrozenColumnIndex::Grow() {
  std::vector<Slot> old(2 * slots_.size(), Slot{0, 0, 0});
  old.swap(slots_);
  --shift_;
  for (const Slot& slot : old) {
    if (slot.count != 0) slots_[SlotOf(slot.key)] = slot;
  }
}

std::span<const uint32_t> FrozenColumnIndex::Find(Value key) const {
  const Slot& slot = slots_[SlotOf(key)];
  return {postings_.data() + slot.begin, slot.count};
}

RelationView::RelationView(const Relation& relation)
    : arity_(relation.arity()), num_rows_(relation.size()) {
  const ColumnStore& store = relation.store();
  columns_.resize(static_cast<size_t>(arity_));
  for (int c = 0; c < arity_; ++c) {
    std::vector<const Value*>& chunks = columns_[static_cast<size_t>(c)];
    chunks.reserve((num_rows_ + ColumnStore::kChunkRows - 1) >>
                   ColumnStore::kChunkShift);
    for (size_t row = 0; row < num_rows_; row += ColumnStore::kChunkRows) {
      size_t run;
      chunks.push_back(store.ColumnSpan(c, row, &run));
    }
  }
}

Tuple RelationView::row(size_t i) const {
  std::vector<Value> vals(static_cast<size_t>(arity_));
  for (int c = 0; c < arity_; ++c) vals[static_cast<size_t>(c)] = cell(i, c);
  return Tuple(vals.data(), arity_);
}

std::string RelationView::ToSortedString(const SymbolTable& symbols) const {
  // Same name-order sort as Relation::ToSortedString so the two dumps
  // compare equal over the same rows.
  std::vector<Tuple> sorted;
  sorted.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) sorted.push_back(row(r));
  std::sort(sorted.begin(), sorted.end(),
            [&symbols](const Tuple& a, const Tuple& b) {
              if (a.arity() != b.arity()) return a.arity() < b.arity();
              for (int c = 0; c < a.arity(); ++c) {
                const std::string& na = symbols.Name(a[c]);
                const std::string& nb = symbols.Name(b[c]);
                if (na != nb) return na < nb;
              }
              return false;
            });
  std::string out;
  for (const Tuple& t : sorted) {
    out += t.ToString(symbols);
    out += '\n';
  }
  return out;
}

DatabaseView DatabaseView::Freeze(const Database& db,
                                  const DatabaseView* previous) {
  DatabaseView view;
  view.relations_.reserve(db.relation_count());
  for (const auto& [pred, rel] : db.relations()) {
    RelationView frozen(*rel);
    const RelationView* prior =
        previous == nullptr ? nullptr : previous->Find(pred);
    const FrozenIndex* reusable =
        prior == nullptr ? nullptr : prior->index();
    if (reusable != nullptr && prior->arity() == frozen.arity() &&
        reusable->rows <= frozen.size() &&
        (frozen.size() - reusable->rows) * kMaxTailShare <= reusable->rows) {
      frozen.index_ = prior->index_;
    } else {
      auto index = std::make_shared<FrozenIndex>();
      index->rows = frozen.size();
      index->columns.reserve(frozen.columns_.size());
      for (const std::vector<const Value*>& chunks : frozen.columns_) {
        index->columns.emplace_back(chunks, frozen.size());
      }
      frozen.index_ = std::move(index);
    }
    view.relations_.emplace(pred, std::move(frozen));
  }
  return view;
}

const RelationView* DatabaseView::Find(Symbol predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : &it->second;
}

size_t DatabaseView::total_rows() const {
  size_t rows = 0;
  for (const auto& [pred, rel] : relations_) rows += rel.size();
  return rows;
}

std::string EscapeTsvField(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char ch : name) {
    switch (ch) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

bool UnescapeTsvField(std::string_view field, std::string* out) {
  out->clear();
  out->reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    char ch = field[i];
    if (ch != '\\') {
      *out += ch;
      continue;
    }
    if (++i == field.size()) return false;  // trailing backslash
    switch (field[i]) {
      case '\\':
        *out += '\\';
        break;
      case 't':
        *out += '\t';
        break;
      case 'n':
        *out += '\n';
        break;
      case 'r':
        *out += '\r';
        break;
      default:
        return false;  // unknown escape
    }
  }
  return true;
}

namespace {

// Shared save body: `rel` needs size()/row(i) (Relation and
// RelationView both qualify).
template <typename RelationLike>
Status SaveRelationTsv(const RelationLike& rel, const SymbolTable& symbols,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot write '" + path + "'");
  }
  std::vector<Tuple> rows;
  rows.reserve(rel.size());
  for (size_t r = 0; r < rel.size(); ++r) rows.push_back(rel.row(r));
  std::sort(rows.begin(), rows.end());
  for (const Tuple& t : rows) {
    for (int c = 0; c < t.arity(); ++c) {
      if (c > 0) out << '\t';
      out << EscapeTsvField(symbols.Name(t[c]));
    }
    out << '\n';
  }
  return Status::Ok();
}

Status EnsureDirectory(const std::string& directory) {
  // POSIX mkdir (the style guide disallows <filesystem>); EEXIST is fine.
  if (mkdir(directory.c_str(), 0755) != 0) {
    struct stat st;
    if (stat(directory.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
      return Status::Internal("cannot create directory '" + directory + "'");
    }
  }
  return Status::Ok();
}

// relations() maps to unique_ptr<Relation> on a Database and to a
// RelationView on a view; normalize to a reference.
const Relation& Deref(const std::unique_ptr<Relation>& rel) { return *rel; }
const RelationView& Deref(const RelationView& rel) { return rel; }

template <typename DatabaseLike>
StatusOr<size_t> SaveDatabaseImpl(const DatabaseLike& db,
                                  const SymbolTable& symbols,
                                  const std::string& directory) {
  PDATALOG_RETURN_IF_ERROR(EnsureDirectory(directory));
  size_t files = 0;
  for (const auto& [pred, rel] : db.relations()) {
    std::string path = directory + "/" + symbols.Name(pred) + ".tsv";
    PDATALOG_RETURN_IF_ERROR(SaveRelationTsv(Deref(rel), symbols, path));
    ++files;
  }
  return files;
}

// Strict TSV reader for one relation file: fields split on tabs only,
// unescaped; every row must match the relation's arity.
Status LoadRelationTsv(const std::string& path, const std::string& stem,
                       SymbolTable* symbols, Database* db) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open snapshot file '" + path + "'");
  }
  Symbol pred = symbols->Intern(stem);
  Relation* rel = db->Find(pred);
  int arity = rel == nullptr ? -1 : rel->arity();

  std::string line;
  int line_no = 0;
  std::string unescaped;
  Value vals[32];
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;  // blank lines carry no row
    auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument(stem + ".tsv line " +
                                     std::to_string(line_no) + ": " + why);
    };
    // Split on tabs only; escaped tabs were turned into "\t" on save.
    int fields = 0;
    size_t pos = 0;
    while (true) {
      size_t tab = line.find('\t', pos);
      std::string_view field(line.data() + pos,
                             (tab == std::string::npos ? line.size() : tab) -
                                 pos);
      if (fields == 32) return malformed("arity exceeds 32");
      if (!UnescapeTsvField(field, &unescaped)) {
        return malformed("malformed escape in field " +
                         std::to_string(fields + 1));
      }
      vals[fields++] = symbols->Intern(unescaped);
      if (tab == std::string::npos) break;
      pos = tab + 1;
    }
    if (arity < 0) {
      arity = fields;
      rel = &db->GetOrCreate(pred, arity);
    } else if (fields != arity) {
      return malformed("expected " + std::to_string(arity) +
                       " fields, found " + std::to_string(fields));
    }
    rel->InsertView(vals, arity);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<size_t> SaveDatabase(const Database& db, const SymbolTable& symbols,
                              const std::string& directory) {
  return SaveDatabaseImpl(db, symbols, directory);
}

StatusOr<size_t> SaveDatabase(const DatabaseView& view,
                              const SymbolTable& symbols,
                              const std::string& directory) {
  return SaveDatabaseImpl(view, symbols, directory);
}

StatusOr<size_t> LoadDatabase(const std::string& directory,
                              SymbolTable* symbols, Database* db) {
  DIR* dir = opendir(directory.c_str());
  if (dir == nullptr) {
    return Status::NotFound("cannot open directory '" + directory + "'");
  }
  std::vector<std::string> stems;
  while (dirent* entry = readdir(dir)) {
    std::string name = entry->d_name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tsv") {
      stems.push_back(name.substr(0, name.size() - 4));
    }
  }
  closedir(dir);
  std::sort(stems.begin(), stems.end());  // deterministic intern order

  for (const std::string& stem : stems) {
    PDATALOG_RETURN_IF_ERROR(
        LoadRelationTsv(directory + "/" + stem + ".tsv", stem, symbols, db));
  }
  return stems.size();
}

}  // namespace pdatalog

// In-memory relations with set semantics, append-only column-major
// storage, and lazily built hash indexes.
//
// Rows are append-only and deduplicated on insert, which gives the
// semi-naive evaluator its delta windows for free: the tuples derived in
// round k occupy the contiguous row range [watermark_{k-1}, watermark_k).
// Evaluators track watermarks; the relation itself is oblivious to them.
//
// Values live in per-column chunked arrays (ColumnStore): column c of
// rows [0, size) is a chain of fixed-size chunks, so a whole column can
// be scanned with one pointer per chunk and a received TupleBlock's
// columnar payload appends with one copy per column — rows are never
// materialized on the ingest path. Chunks never relocate, so readers of
// a frozen prefix are safe while the relation grows.
//
// Both the dedup set and the column indexes are open-addressing flat
// hash tables keyed by hashes of raw column values, so neither inserts
// nor probes ever materialize a key `Tuple`; equality checks read back
// through the relation's own column chunks.
//
// Thread-safety: a Relation is either worker-local (mutable, no locking
// needed) or shared read-only across workers (base relations). For the
// shared case, all needed indexes must be built before the parallel run
// via EnsureIndex(); lookups afterwards are const and race-free.
#ifndef PDATALOG_STORAGE_RELATION_H_
#define PDATALOG_STORAGE_RELATION_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/tuple.h"
#include "util/hash.h"

namespace pdatalog {

class TraceRing;   // obs/trace.h; storage only holds a pointer
class Histogram;   // obs/histogram.h; likewise

// Hash of a value sequence; the one function the dedup set and every
// column index agree on, so a probe can hash bound values in place and
// match rows hashed column-by-column.
inline uint64_t HashProjection(const Value* values, int n) {
  uint64_t h = 0x12345678u ^ static_cast<uint64_t>(n);
  for (int i = 0; i < n; ++i) h = HashCombine(h, values[i]);
  return h;
}

// Column-major tuple storage: one chain of fixed-size chunks per column.
// Chunks are allocated once and never move, so a pointer into a column
// stays valid while the store grows (the frozen-prefix contract the
// parallel workers rely on).
class ColumnStore {
 public:
  static constexpr size_t kChunkShift = 12;
  static constexpr size_t kChunkRows = size_t{1} << kChunkShift;  // 4096
  static constexpr size_t kChunkMask = kChunkRows - 1;

  explicit ColumnStore(int arity) : arity_(arity), columns_(arity) {}
  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  int arity() const { return arity_; }
  size_t size() const { return num_rows_; }

  Value cell(size_t row, int col) const {
    return columns_[col].chunks[row >> kChunkShift][row & kChunkMask];
  }

  // Pointer to column `col` at `row`; `*run` receives the number of rows
  // readable contiguously from there (bounded by the chunk edge and the
  // store size).
  const Value* ColumnSpan(int col, size_t row, size_t* run) const {
    size_t in_chunk = row & kChunkMask;
    *run = std::min(kChunkRows - in_chunk, num_rows_ - row);
    return columns_[col].chunks[row >> kChunkShift].get() + in_chunk;
  }

  void AppendRow(const Value* values) {
    EnsureCapacity(num_rows_ + 1);
    size_t chunk = num_rows_ >> kChunkShift;
    size_t at = num_rows_ & kChunkMask;
    for (int c = 0; c < arity_; ++c) columns_[c].chunks[chunk][at] = values[c];
    ++num_rows_;
  }

  void CopyRow(size_t row, Value* out) const {
    size_t chunk = row >> kChunkShift;
    size_t at = row & kChunkMask;
    for (int c = 0; c < arity_; ++c) out[c] = columns_[c].chunks[chunk][at];
  }

  bool RowEquals(size_t row, const Value* values) const {
    size_t chunk = row >> kChunkShift;
    size_t at = row & kChunkMask;
    for (int c = 0; c < arity_; ++c) {
      if (columns_[c].chunks[chunk][at] != values[c]) return false;
    }
    return true;
  }

  // Same hash as HashProjection over the row's values, read per column.
  uint64_t HashRow(size_t row) const {
    size_t chunk = row >> kChunkShift;
    size_t at = row & kChunkMask;
    uint64_t h = 0x12345678u ^ static_cast<uint64_t>(arity_);
    for (int c = 0; c < arity_; ++c) {
      h = HashCombine(h, columns_[c].chunks[chunk][at]);
    }
    return h;
  }

  // Bulk-append support: EnsureCapacity allocates chunks for `rows`
  // total rows; MutableSpan exposes the write window (capacity, not
  // size, bounds it); CommitRows publishes the appended rows.
  void EnsureCapacity(size_t rows) {
    size_t chunks = (rows + kChunkRows - 1) >> kChunkShift;
    for (int c = 0; c < arity_; ++c) {
      while (columns_[c].chunks.size() < chunks) {
        columns_[c].chunks.push_back(std::make_unique<Value[]>(kChunkRows));
      }
    }
  }
  Value* MutableSpan(int col, size_t row, size_t limit, size_t* run) {
    size_t in_chunk = row & kChunkMask;
    *run = std::min(kChunkRows - in_chunk, limit - row);
    return columns_[col].chunks[row >> kChunkShift].get() + in_chunk;
  }
  void CommitRows(size_t new_size) { num_rows_ = new_size; }

 private:
  struct Column {
    std::vector<std::unique_ptr<Value[]>> chunks;
  };

  int arity_;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

// Hash index over a subset of columns, identified by a bit mask
// (bit c set => column c is part of the key).
//
// Layout: an open-addressing slot array maps key hashes to buckets; each
// bucket chains fixed-size chunks of ascending row ids through one
// contiguous pool. Probes hash the bound values in place, verify the key
// against a representative row, and walk the chunk chain — no `Tuple`
// key is ever allocated, on insert or lookup.
class ColumnIndex {
 public:
  // `store` is the owning relation's column storage (for key equality
  // checks); it must outlive the index (Relation is pinned).
  ColumnIndex(uint32_t mask, int arity, const ColumnStore* store);

  uint32_t mask() const { return mask_; }
  // Columns in the mask, ascending; probe keys use this order.
  const std::vector<int>& key_columns() const { return key_columns_; }

  // Allocation-free cursor over the row ids matching one probe key,
  // restricted to ids in [begin, end), yielded in ascending order.
  class Probe {
   public:
    // Returns false when exhausted; otherwise stores the next row id.
    bool Next(uint32_t* row_id) {
      while (chunk_ != kNoChunk) {
        const Chunk& c = index_->pool_[chunk_];
        if (pos_ < c.count) {
          uint32_t id = c.rows[pos_];
          if (id >= end_) break;  // ids ascend: nothing later can match
          ++pos_;
          if (id < begin_) continue;
          *row_id = id;
          return true;
        }
        chunk_ = c.next;
        pos_ = 0;
        // Skip whole chunks below the range with one comparison each.
        while (chunk_ != kNoChunk) {
          const Chunk& n = index_->pool_[chunk_];
          if (n.rows[n.count - 1] >= begin_) break;
          chunk_ = n.next;
        }
      }
      chunk_ = kNoChunk;
      return false;
    }

   private:
    friend class ColumnIndex;
    const ColumnIndex* index_ = nullptr;
    uint32_t chunk_ = kNoChunk;
    uint32_t pos_ = 0;
    uint32_t begin_ = 0;
    uint32_t end_ = 0;
  };

  // Probes with `key` (values for key_columns(), in that order). Only
  // row ids in [begin, end) are yielded; the caller must keep the range
  // within built_upto().
  Probe ProbeRange(const Value* key, int n, size_t begin, size_t end) const;

  // Same, with the key hash precomputed by the caller (the batch join
  // kernel hashes a whole batch of keys in one tight loop, then probes).
  // `hash` must equal HashProjection(key, n).
  Probe ProbeRangeHashed(uint64_t hash, const Value* key, int n, size_t begin,
                         size_t end) const;

  // Prefetches the slot a key hash lands on, so a batch of probes can
  // overlap its cache misses before any ProbeRangeHashed call.
  void PrefetchHash(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & slot_mask_]);
  }

  // Extracts the key projection of `row` (debugging/tests only; the
  // probe path never materializes keys).
  Tuple MakeKey(const Tuple& row) const;

  // Appends `row_id` (which must exceed every id already present) under
  // its key projection, read from the column store.
  void Add(uint32_t row_id);

  size_t built_upto() const { return built_upto_; }
  void set_built_upto(size_t n) { built_upto_ = n; }

  // Distinct keys present (for tests and stats).
  size_t num_keys() const { return buckets_.size(); }

 private:
  static constexpr uint32_t kNoChunk = 0xffffffffu;
  static constexpr uint32_t kNoBucket = 0xffffffffu;
  static constexpr int kChunkRows = 6;  // chunk = 32 bytes

  struct Chunk {
    uint32_t next = kNoChunk;
    uint32_t count = 0;
    uint32_t rows[kChunkRows];
  };
  struct Bucket {
    uint64_t hash;
    uint32_t head_chunk;
    uint32_t tail_chunk;
  };

  // True iff `key` equals the projection of the bucket's first row.
  bool KeyEquals(const Bucket& bucket, const Value* key, int n) const;
  uint32_t FindBucket(uint64_t hash, const Value* key, int n) const;
  void GrowSlots();

  uint32_t mask_;
  std::vector<int> key_columns_;  // columns in the mask, ascending
  size_t built_upto_ = 0;         // rows [0, built_upto_) are indexed
  const ColumnStore* store_;
  std::vector<uint32_t> slots_;   // bucket id + 1; 0 = empty. 2^k sized
  uint64_t slot_mask_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<Chunk> pool_;       // all buckets' row ids, one pool
};

class Relation {
 public:
  explicit Relation(int arity)
      : arity_(arity), store_(arity), block_columns_(arity) {}
  // Not copyable or movable: the dedup table and indexes hold a pointer
  // to the column store. Databases store relations behind unique_ptr.
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  int arity() const { return arity_; }
  size_t size() const { return store_.size(); }
  bool empty() const { return store_.size() == 0; }

  // Inserts `tuple` if absent. Returns true iff it was new.
  bool Insert(const Tuple& tuple) {
    return InsertView(tuple.data(), tuple.arity());
  }

  // Same, from a raw value sequence: duplicates are rejected without
  // ever constructing a Tuple (the evaluator's firing hot path).
  bool InsertView(const Value* values, int n);

  // Bulk ingest of `count` rows laid out contiguously, row-major by
  // default or column-major when `columnar` is set (a decoded
  // TupleBlock frame keeps the wire's columnar layout): hashes every
  // row in one pass, reserves dedup capacity up front, then appends the
  // surviving rows with one gathered copy per column — the receive path
  // never materializes per-tuple objects. Returns the number of rows
  // that were new.
  size_t InsertBlock(const Value* values, int arity, uint32_t count,
                     bool columnar = false);

  // Bulk union (final pooling, per-stratum copies): appends every row of
  // `sources` that is not yet present, keeping first occurrences in
  // source order — the same rows in the same order as inserting each
  // source row by row. The dedup table grows once, to size() plus the
  // sum of the source sizes (an upper bound: the distinct count is not
  // known in advance); each source's column chunks then feed the
  // InsertBlock ingest path directly, so no Tuple is materialized.
  // Sources must have this relation's arity and must not be this
  // relation. Returns the number of rows that were new.
  size_t InsertAll(std::span<const Relation* const> sources);
  size_t InsertAll(const Relation& source) {
    const Relation* one = &source;
    return InsertAll({&one, 1});
  }

  bool Contains(const Tuple& tuple) const;

  // Materializes row `i` (returned by value; the storage is columnar).
  // Cold paths only — hot loops should read cells or column spans.
  Tuple row(size_t i) const;
  // Single-cell read through the column chunks.
  Value cell(size_t row, int col) const { return store_.cell(row, col); }
  // Direct access to the column-major storage (batch kernels).
  const ColumnStore& store() const { return store_; }

  // Returns the index for `mask`, creating it if needed and extending it
  // to cover all current rows. Mutating: not for concurrent use.
  const ColumnIndex& EnsureIndex(uint32_t mask);

  // Returns the index for `mask` if it exists, else nullptr. The index
  // may lag behind recent inserts (it covers rows [0, built_upto()));
  // readers must only probe row ranges within its coverage. Const: safe
  // for concurrent readers of a frozen relation.
  const ColumnIndex* GetIndex(uint32_t mask) const;

  // Sorted textual dump, for tests and examples.
  std::string ToSortedString(const SymbolTable& symbols) const;

  // Observability hook: when set, InsertBlock brackets each bulk ingest
  // with a TracePhase::kInsert span on `ring`. The ring must be the one
  // owned by the thread that mutates this relation (workers set it on
  // their t_in relations); null (the default) disables tracing at the
  // cost of one branch per block.
  void set_trace(TraceRing* ring) { trace_ = ring; }

  // Companion hook: when set, each bulk ingest also records its
  // duration into `histogram` (owned by the worker that mutates this
  // relation; see WorkerProfile::insert_ns). Same threading contract
  // as set_trace.
  void set_insert_profile(Histogram* histogram) {
    insert_profile_ = histogram;
  }

  // Companion hook: when set, each bulk ingest records the block's
  // tuple count — including blocks whose tuples all dedup away, so
  // tuples-per-frame ratios in the report stay honest. Same threading
  // contract as set_trace.
  void set_insert_tuples(Histogram* histogram) {
    insert_tuples_ = histogram;
  }

 private:
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  // Grows the dedup table until it can hold `min_rows` rows below 3/4
  // load (one rehash even when doubling several times).
  void GrowDedup(size_t min_rows);

  // The ingest path shared by InsertBlock and InsertAll: cell (r, c) of
  // the incoming rows is columns[c][r * stride] (stride 1 for a
  // column-major block or a column chunk, the arity for row-major).
  size_t IngestColumns(const Value* const* columns, size_t stride,
                       uint32_t count);

  int arity_;
  ColumnStore store_;
  // Open-addressing dedup set over row ids (hash + id per slot; equality
  // reads back through the column store).
  struct DedupSlot {
    uint64_t hash;
    uint32_t row;
  };
  std::vector<DedupSlot> dedup_;
  uint64_t dedup_mask_ = 0;
  std::unordered_map<uint32_t, ColumnIndex> indexes_;
  TraceRing* trace_ = nullptr;  // optional bulk-insert span target
  Histogram* insert_profile_ = nullptr;  // optional ingest durations
  Histogram* insert_tuples_ = nullptr;   // optional ingest tuple counts
  // Ingest scratch, reused across blocks (allocation-free once warm):
  // one column pointer per column, per-row hashes and the surviving
  // source-row list.
  std::vector<const Value*> block_columns_;
  std::vector<uint64_t> block_hashes_;
  std::vector<uint32_t> block_keep_;
};

// Batches single-row emissions into InsertBlock calls. A join firing
// hands its head values to the sink one row at a time; inserting each
// immediately costs one dependent random load into the dedup table per
// firing. Buffering kRows rows and flushing through InsertBlock turns
// that into a tight hash loop plus prefetched probes, at identical
// final content and insertion order (InsertBlock keeps first
// occurrences in order). Callers must Flush() before reading the
// relation's size — the evaluators flush after every Execute call, so
// every frozen-range observation point sees the same state as the
// unbuffered path.
class BatchInserter {
 public:
  static constexpr uint32_t kRows = 256;

  explicit BatchInserter(Relation* rel)
      : rel_(rel), arity_(rel->arity()) {
    buf_.resize(static_cast<size_t>(kRows) *
                (arity_ > 0 ? static_cast<size_t>(arity_) : 1));
  }

  // Buffers one row; returns rows newly inserted by any flush this
  // push triggered (0 when the row was merely buffered).
  size_t Push(const Value* values, int n) {
    assert(n == arity_);
    Value* dst = buf_.data() + static_cast<size_t>(count_) * arity_;
    for (int c = 0; c < n; ++c) dst[c] = values[c];
    if (++count_ == kRows) return Flush();
    return 0;
  }

  // Drains the buffer; returns the number of rows that were new.
  size_t Flush() {
    if (count_ == 0) return 0;
    size_t added = rel_->InsertBlock(buf_.data(), arity_, count_);
    count_ = 0;
    return added;
  }

 private:
  Relation* rel_;
  int arity_;
  uint32_t count_ = 0;
  std::vector<Value> buf_;
};

}  // namespace pdatalog

#endif  // PDATALOG_STORAGE_RELATION_H_

#include "storage/relation.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/histogram.h"
#include "obs/trace.h"

namespace pdatalog {

ColumnIndex::ColumnIndex(uint32_t mask, int arity, const ColumnStore* store)
    : mask_(mask), store_(store) {
  for (int c = 0; c < arity; ++c) {
    if (mask & (1u << c)) key_columns_.push_back(c);
  }
  assert(std::popcount(mask) == static_cast<int>(key_columns_.size()));
}

bool ColumnIndex::KeyEquals(const Bucket& bucket, const Value* key,
                            int n) const {
  uint32_t rep = pool_[bucket.head_chunk].rows[0];
  for (int i = 0; i < n; ++i) {
    if (store_->cell(rep, key_columns_[i]) != key[i]) return false;
  }
  return true;
}

uint32_t ColumnIndex::FindBucket(uint64_t hash, const Value* key,
                                 int n) const {
  if (slots_.empty()) return kNoBucket;
  uint64_t i = hash & slot_mask_;
  while (true) {
    uint32_t slot = slots_[i];
    if (slot == 0) return kNoBucket;
    const Bucket& bucket = buckets_[slot - 1];
    if (bucket.hash == hash && KeyEquals(bucket, key, n)) return slot - 1;
    i = (i + 1) & slot_mask_;
  }
}

void ColumnIndex::GrowSlots() {
  size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(cap, 0);
  slot_mask_ = cap - 1;
  for (uint32_t b = 0; b < buckets_.size(); ++b) {
    uint64_t i = buckets_[b].hash & slot_mask_;
    while (slots_[i] != 0) i = (i + 1) & slot_mask_;
    slots_[i] = b + 1;
  }
}

Tuple ColumnIndex::MakeKey(const Tuple& row) const {
  Value buf[32];
  assert(key_columns_.size() <= 32);
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    buf[i] = row[key_columns_[i]];
  }
  return Tuple(buf, static_cast<int>(key_columns_.size()));
}

ColumnIndex::Probe ColumnIndex::ProbeRange(const Value* key, int n,
                                           size_t begin, size_t end) const {
  return ProbeRangeHashed(HashProjection(key, n), key, n, begin, end);
}

ColumnIndex::Probe ColumnIndex::ProbeRangeHashed(uint64_t hash,
                                                 const Value* key, int n,
                                                 size_t begin,
                                                 size_t end) const {
  assert(n == static_cast<int>(key_columns_.size()));
  assert(hash == HashProjection(key, n));
  Probe probe;
  probe.index_ = this;
  probe.begin_ = static_cast<uint32_t>(begin);
  probe.end_ = static_cast<uint32_t>(end);
  uint32_t bucket = FindBucket(hash, key, n);
  probe.chunk_ = bucket == kNoBucket ? kNoChunk : buckets_[bucket].head_chunk;
  return probe;
}

void ColumnIndex::Add(uint32_t row_id) {
  Value key[32];
  int n = static_cast<int>(key_columns_.size());
  for (int i = 0; i < n; ++i) {
    key[i] = store_->cell(row_id, key_columns_[i]);
  }
  uint64_t hash = HashProjection(key, n);
  uint32_t bucket_id = FindBucket(hash, key, n);
  if (bucket_id == kNoBucket) {
    // Resize at 3/4 load before inserting the new bucket.
    if ((buckets_.size() + 1) * 4 > slots_.size() * 3) GrowSlots();
    bucket_id = static_cast<uint32_t>(buckets_.size());
    uint32_t chunk_id = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
    buckets_.push_back(Bucket{hash, chunk_id, chunk_id});
    uint64_t i = hash & slot_mask_;
    while (slots_[i] != 0) i = (i + 1) & slot_mask_;
    slots_[i] = bucket_id + 1;
  }
  Bucket& bucket = buckets_[bucket_id];
  Chunk* tail = &pool_[bucket.tail_chunk];
  assert(tail->count == 0 || tail->rows[tail->count - 1] < row_id);
  if (tail->count == kChunkRows) {
    uint32_t chunk_id = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
    pool_[bucket.tail_chunk].next = chunk_id;
    bucket.tail_chunk = chunk_id;
    tail = &pool_[chunk_id];
  }
  tail->rows[tail->count++] = row_id;
}

bool Relation::InsertView(const Value* values, int n) {
  assert(n == arity_);
  uint64_t hash = HashProjection(values, n);
  const uint32_t tag = DedupTag(hash);
  // Grow before probing: an unbuilt table (rows appended by
  // AppendDisjoint) must hold the committed rows before a probe can
  // reject one of them. The probe then ends on the slot the row takes.
  if ((store_.size() + 1) * 4 > dedup_.size() * 3) {
    GrowDedup(store_.size() + 1);
  }
  uint64_t i = hash & dedup_mask_;
  while (true) {
    const DedupSlot& slot = dedup_[i];
    if (slot.row == kEmptySlot) break;
    if (slot.tag == tag && store_.RowEquals(slot.row, values)) return false;
    i = (i + 1) & dedup_mask_;
  }
  dedup_[i] = DedupSlot{tag, static_cast<uint32_t>(store_.size())};
  store_.AppendRow(values);
  return true;
}

size_t Relation::InsertBlock(const Value* values, int arity, uint32_t count,
                             bool columnar) {
  assert(arity == arity_);
  TraceScope span(trace_, TracePhase::kInsert, count, insert_profile_);
  // Record the block's tuple count unconditionally: a block whose rows
  // all dedup away is still one received frame of `count` tuples.
  if (insert_tuples_ != nullptr) insert_tuples_->Record(count);
  for (int c = 0; c < arity_; ++c) {
    block_columns_[c] =
        columnar ? values + static_cast<size_t>(c) * count : values + c;
  }
  return IngestColumns(block_columns_.data(),
                       columnar ? 1 : static_cast<size_t>(arity_), count);
}

size_t Relation::InsertAll(std::span<const Relation* const> sources) {
  if (sources.size() == 1 && empty()) {
    AppendDisjoint(sources);
    return size();
  }
  size_t total = store_.size();
  for (const Relation* source : sources) {
    assert(source != this && source->arity() == arity_);
    total += source->size();
  }
  assert(total <= kEmptySlot);  // row ids are 32-bit
  // One reserve for the whole union: growing per source would rehash
  // every committed row again for each source that crosses a doubling.
  if (total * 4 > dedup_.size() * 3) GrowDedup(total);

  size_t added = 0;
  for (const Relation* source : sources) {
    const ColumnStore& from = source->store_;
    const size_t n = from.size();
    size_t run = 0;
    for (size_t row = 0; row < n; row += run) {
      // One block per column chunk: every column's chunk edge falls at
      // the same row, so the spans line up (and arity 0 has none).
      run = std::min(ColumnStore::kChunkRows - (row & ColumnStore::kChunkMask),
                     n - row);
      for (int c = 0; c < arity_; ++c) {
        block_columns_[c] = from.ColumnSpan(c, row, &run);
      }
      added += IngestColumns(block_columns_.data(), 1,
                             static_cast<uint32_t>(run));
    }
  }
  return added;
}

void Relation::AppendDisjoint(std::span<const Relation* const> sources) {
  assert(empty() && dedup_.empty());
  size_t total = 0;
  for (const Relation* source : sources) {
    assert(source != this && source->arity() == arity_);
    total += source->size();
  }
  assert(total <= kEmptySlot);  // row ids are 32-bit
  store_.EnsureCapacity(total);
  size_t base = 0;
  for (const Relation* source : sources) {
    const size_t n = source->size();
    for (int c = 0; c < arity_; ++c) {
      // Source and destination chunk edges differ unless `base` is a
      // chunk multiple, so each run is bounded by both.
      size_t run = 0;
      for (size_t row = 0; row < n; row += run) {
        size_t in_run, out_run;
        const Value* in = source->store_.ColumnSpan(c, row, &in_run);
        Value* out = store_.MutableSpan(c, base + row, base + n, &out_run);
        run = std::min(in_run, out_run);
        std::copy_n(in, run, out);
      }
    }
    base += n;
  }
  store_.CommitRows(total);
  if (total > 0) dedup_deferred_.store(true, std::memory_order_relaxed);
}

size_t Relation::IngestColumns(const Value* const* columns, size_t stride,
                               uint32_t count) {
  if (count == 0) return 0;
  const int arity = arity_;
  auto value_at = [&](uint32_t r, int c) -> Value {
    return columns[c][r * stride];
  };

  // Pass 1: hash every row, one tight loop per column (the layout a
  // decoded TupleBlock frame and a column chunk arrive in).
  block_hashes_.resize(count);
  const uint64_t seed = 0x12345678u ^ static_cast<uint64_t>(arity);
  for (uint32_t r = 0; r < count; ++r) block_hashes_[r] = seed;
  for (int c = 0; c < arity; ++c) {
    const Value* col = columns[c];
    for (uint32_t r = 0; r < count; ++r) {
      block_hashes_[r] = HashCombine(block_hashes_[r], col[r * stride]);
    }
  }

  // Reserve dedup capacity for the worst case (every row new) so the
  // probe loop below never rehashes mid-block.
  if ((store_.size() + count) * 4 > dedup_.size() * 3) {
    GrowDedup(store_.size() + count);
  }

  // Pass 2: dedup probe per row, against committed rows and against
  // earlier survivors of this same block (their ids are assigned but
  // their values still live in the incoming buffer). With every hash
  // already known, the probe's dependent random load can be prefetched
  // a few rows ahead — the single-row InsertView path cannot do this.
  constexpr uint32_t kLookahead = 8;
  const size_t base = store_.size();
  block_keep_.clear();
  for (uint32_t r = 0; r < count; ++r) {
    if (r + kLookahead < count) {
      __builtin_prefetch(&dedup_[block_hashes_[r + kLookahead] & dedup_mask_]);
    }
    uint64_t hash = block_hashes_[r];
    const uint32_t tag = DedupTag(hash);
    uint64_t i = hash & dedup_mask_;
    bool duplicate = false;
    while (true) {
      const DedupSlot& slot = dedup_[i];
      if (slot.row == kEmptySlot) break;
      if (slot.tag == tag) {
        bool equal = true;
        if (slot.row < base) {
          for (int c = 0; c < arity; ++c) {
            if (store_.cell(slot.row, c) != value_at(r, c)) {
              equal = false;
              break;
            }
          }
        } else {
          uint32_t other = block_keep_[slot.row - base];
          for (int c = 0; c < arity; ++c) {
            if (value_at(other, c) != value_at(r, c)) {
              equal = false;
              break;
            }
          }
        }
        if (equal) {
          duplicate = true;
          break;
        }
      }
      i = (i + 1) & dedup_mask_;
    }
    if (duplicate) continue;
    dedup_[i] =
        DedupSlot{tag, static_cast<uint32_t>(base + block_keep_.size())};
    block_keep_.push_back(r);
  }

  // Pass 3: append the survivors column by column — one gathered copy
  // per column (contiguous for a fully-new columnar block).
  const uint32_t kept = static_cast<uint32_t>(block_keep_.size());
  if (kept == 0) return 0;
  store_.EnsureCapacity(base + kept);
  for (int c = 0; c < arity; ++c) {
    const Value* src = columns[c];
    size_t dst = base;
    uint32_t k = 0;
    while (k < kept) {
      size_t run;
      Value* out = store_.MutableSpan(c, dst, base + kept, &run);
      for (size_t t = 0; t < run; ++t) {
        out[t] = src[block_keep_[k + t] * stride];
      }
      k += static_cast<uint32_t>(run);
      dst += run;
    }
  }
  store_.CommitRows(base + kept);
  return kept;
}

void Relation::GrowDedup(size_t min_rows) const {
  size_t cap = dedup_.empty() ? 16 : dedup_.size();
  while (cap * 3 < min_rows * 4) cap *= 2;
  dedup_.assign(cap, DedupSlot{0, kEmptySlot});
  dedup_mask_ = cap - 1;

  // Re-place the committed rows one column chunk at a time: hash the
  // chunk column by column, then place its rows in id order with each
  // slot prefetched a few rows ahead, so every slot ends up as a
  // row-at-a-time rehash would leave it. The hashes need a buffer of
  // their own: IngestColumns calls this between its hash pass and its
  // probe pass, while block_hashes_ still holds the block's hashes.
  constexpr size_t kLookahead = 16;
  const size_t n = store_.size();
  const uint64_t seed = 0x12345678u ^ static_cast<uint64_t>(arity_);
  std::vector<uint64_t> hashes(std::min(n, ColumnStore::kChunkRows));
  size_t run = 0;
  for (size_t row = 0; row < n; row += run) {
    run = std::min(ColumnStore::kChunkRows - (row & ColumnStore::kChunkMask),
                   n - row);
    std::fill_n(hashes.begin(), run, seed);
    for (int c = 0; c < arity_; ++c) {
      const Value* col = store_.ColumnSpan(c, row, &run);
      for (size_t r = 0; r < run; ++r) {
        hashes[r] = HashCombine(hashes[r], col[r]);
      }
    }
    for (size_t r = 0; r < run; ++r) {
      if (r + kLookahead < run) {
        __builtin_prefetch(&dedup_[hashes[r + kLookahead] & dedup_mask_]);
      }
      uint64_t i = hashes[r] & dedup_mask_;
      while (dedup_[i].row != kEmptySlot) i = (i + 1) & dedup_mask_;
      dedup_[i] =
          DedupSlot{DedupTag(hashes[r]), static_cast<uint32_t>(row + r)};
    }
  }
  dedup_deferred_.store(false, std::memory_order_release);
}

bool Relation::Contains(const Tuple& tuple) const {
  if (dedup_deferred_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(dedup_build_mu_);
    if (dedup_deferred_.load(std::memory_order_relaxed)) {
      GrowDedup(store_.size());
    }
  }
  if (dedup_.empty() || tuple.arity() != arity_) return false;
  uint64_t hash = HashProjection(tuple.data(), tuple.arity());
  const uint32_t tag = DedupTag(hash);
  uint64_t i = hash & dedup_mask_;
  while (true) {
    const DedupSlot& slot = dedup_[i];
    if (slot.row == kEmptySlot) return false;
    if (slot.tag == tag && store_.RowEquals(slot.row, tuple.data())) {
      return true;
    }
    i = (i + 1) & dedup_mask_;
  }
}

Tuple Relation::row(size_t i) const {
  if (arity_ <= 32) {
    Value buf[32];
    store_.CopyRow(i, buf);
    return Tuple(buf, arity_);
  }
  std::vector<Value> buf(arity_);
  store_.CopyRow(i, buf.data());
  return Tuple(buf.data(), arity_);
}

const ColumnIndex& Relation::EnsureIndex(uint32_t mask) {
  auto [it, inserted] = indexes_.try_emplace(mask, mask, arity_, &store_);
  ColumnIndex& index = it->second;
  for (size_t i = index.built_upto(); i < store_.size(); ++i) {
    index.Add(static_cast<uint32_t>(i));
  }
  index.set_built_upto(store_.size());
  return index;
}

const ColumnIndex* Relation::GetIndex(uint32_t mask) const {
  auto it = indexes_.find(mask);
  return it == indexes_.end() ? nullptr : &it->second;
}

std::string Relation::ToSortedString(const SymbolTable& symbols) const {
  // Sort by constant names (not interned ids) so dumps compare equal
  // across databases whose symbol tables interned in different orders.
  std::vector<Tuple> sorted;
  sorted.reserve(store_.size());
  for (size_t i = 0; i < store_.size(); ++i) sorted.push_back(row(i));
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

}  // namespace pdatalog

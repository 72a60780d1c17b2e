#include "storage/relation.h"

#include <atomic>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/hash.h"

namespace pdatalog {
namespace {

// Drains a probe cursor into a vector for easy assertions.
std::vector<uint32_t> Collect(const ColumnIndex& index,
                              std::initializer_list<Value> key,
                              size_t begin, size_t end) {
  std::vector<Value> k(key);
  ColumnIndex::Probe probe =
      index.ProbeRange(k.data(), static_cast<int>(k.size()), begin, end);
  std::vector<uint32_t> out;
  uint32_t id = 0;
  while (probe.Next(&id)) out.push_back(id);
  return out;
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(Tuple{1, 2}));
  EXPECT_FALSE(rel.Insert(Tuple{1, 2}));
  EXPECT_TRUE(rel.Insert(Tuple{2, 1}));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, Contains) {
  Relation rel(2);
  rel.Insert(Tuple{1, 2});
  EXPECT_TRUE(rel.Contains(Tuple{1, 2}));
  EXPECT_FALSE(rel.Contains(Tuple{2, 2}));
}

TEST(RelationTest, RowsAppendOnlyInInsertionOrder) {
  Relation rel(1);
  rel.Insert(Tuple{5});
  rel.Insert(Tuple{3});
  rel.Insert(Tuple{5});  // duplicate, not appended
  rel.Insert(Tuple{9});
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.row(0), (Tuple{5}));
  EXPECT_EQ(rel.row(1), (Tuple{3}));
  EXPECT_EQ(rel.row(2), (Tuple{9}));
}

TEST(RelationTest, DedupSurvivesRehashAndGrowth) {
  Relation rel(2);
  for (Value i = 0; i < 5000; ++i) {
    EXPECT_TRUE(rel.Insert(Tuple{i, i + 1}));
  }
  for (Value i = 0; i < 5000; ++i) {
    EXPECT_FALSE(rel.Insert(Tuple{i, i + 1}));
  }
  EXPECT_EQ(rel.size(), 5000u);
}

TEST(ColumnIndexTest, KeyExtraction) {
  ColumnStore store(3);
  ColumnIndex index(/*mask=*/0b101, /*arity=*/3, &store);
  Tuple key = index.MakeKey(Tuple{7, 8, 9});
  EXPECT_EQ(key, (Tuple{7, 9}));
}

TEST(RelationTest, EnsureIndexProbe) {
  Relation rel(2);
  rel.Insert(Tuple{1, 10});
  rel.Insert(Tuple{1, 11});
  rel.Insert(Tuple{2, 10});
  const ColumnIndex& index = rel.EnsureIndex(0b01);  // key on column 0
  EXPECT_EQ(Collect(index, {1}, 0, rel.size()),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(Collect(index, {9}, 0, rel.size()).empty());
}

TEST(RelationTest, ProbeRespectsRowRange) {
  Relation rel(2);
  for (Value i = 0; i < 20; ++i) rel.Insert(Tuple{7, i});
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  EXPECT_EQ(Collect(index, {7}, 5, 8), (std::vector<uint32_t>{5, 6, 7}));
  EXPECT_EQ(Collect(index, {7}, 19, 20), (std::vector<uint32_t>{19}));
  EXPECT_TRUE(Collect(index, {7}, 4, 4).empty());
}

TEST(RelationTest, IndexExtendsIncrementally) {
  Relation rel(2);
  rel.Insert(Tuple{1, 10});
  rel.EnsureIndex(0b01);
  rel.Insert(Tuple{1, 11});
  // A stale index is still returned, but only covers the built prefix.
  const ColumnIndex* stale = rel.GetIndex(0b01);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->built_upto(), 1u);
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  EXPECT_EQ(Collect(index, {1}, 0, rel.size()),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index.built_upto(), 2u);
}

TEST(RelationTest, GetIndexMissing) {
  Relation rel(2);
  rel.Insert(Tuple{1, 2});
  EXPECT_EQ(rel.GetIndex(0b10), nullptr);
}

TEST(RelationTest, MultipleIndexesCoexist) {
  Relation rel(2);
  rel.Insert(Tuple{1, 10});
  rel.Insert(Tuple{2, 10});
  const ColumnIndex& by_first = rel.EnsureIndex(0b01);
  const ColumnIndex& by_second = rel.EnsureIndex(0b10);
  EXPECT_EQ(Collect(by_first, {1}, 0, rel.size()).size(), 1u);
  EXPECT_EQ(Collect(by_second, {10}, 0, rel.size()).size(), 2u);
}

TEST(RelationTest, FullMaskIndexActsAsExactLookup) {
  Relation rel(2);
  rel.Insert(Tuple{4, 5});
  const ColumnIndex& index = rel.EnsureIndex(0b11);
  EXPECT_EQ(Collect(index, {4, 5}, 0, rel.size()).size(), 1u);
  EXPECT_TRUE(Collect(index, {5, 4}, 0, rel.size()).empty());
}

TEST(RelationTest, SortedDump) {
  SymbolTable symbols;
  Value a = symbols.Intern("a");
  Value b = symbols.Intern("b");
  Relation rel(2);
  rel.Insert(Tuple{b, a});
  rel.Insert(Tuple{a, b});
  EXPECT_EQ(rel.ToSortedString(symbols), "(a, b)\n(b, a)\n");
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
}

std::vector<Tuple> Rows(const Relation& rel) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < rel.size(); ++i) rows.push_back(rel.row(i));
  return rows;
}

// Grows `rel` to `count` distinct random rows over a small domain, so
// relations filled from different seeds overlap.
void FillRandom(Relation* rel, size_t count, uint64_t domain, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Value> values(rel->arity());
  while (rel->size() < count) {
    for (Value& v : values) v = rng.NextBelow(domain);
    rel->InsertView(values.data(), rel->arity());
  }
}

// Merges `sources` into `merged` with InsertAll and into `reference`
// row by row with Insert (both start with the same rows), then checks
// the two row sequences and the returned count agree.
void ExpectMergeMatchesReference(Relation* merged, Relation* reference,
                                 const std::vector<const Relation*>& sources) {
  ASSERT_EQ(Rows(*merged), Rows(*reference));
  size_t expected_added = 0;
  for (const Relation* source : sources) {
    for (size_t i = 0; i < source->size(); ++i) {
      if (reference->Insert(source->row(i))) ++expected_added;
    }
  }
  EXPECT_EQ(merged->InsertAll(sources), expected_added);
  EXPECT_EQ(Rows(*merged), Rows(*reference));
}

TEST(RelationInsertAllTest, MatchesRowAtATimeAcrossChunkEdges) {
  // Sources straddle the 4096-row column chunk edge and overlap each
  // other (cross-source duplicates); listing `a` twice makes every row
  // of its second pass a duplicate of rows merged before it.
  Relation a(2), b(2), c(2), empty(2);
  FillRandom(&a, 5000, 200, 1);
  FillRandom(&b, ColumnStore::kChunkRows + 3, 200, 2);
  FillRandom(&c, 9000, 120, 3);
  Relation merged(2), reference(2);
  ExpectMergeMatchesReference(&merged, &reference, {&a, &empty, &b, &a, &c});
  // Merging the same sources again adds nothing.
  EXPECT_EQ(merged.InsertAll(std::vector<const Relation*>{&c, &b, &a}), 0u);
  EXPECT_EQ(Rows(merged), Rows(reference));
}

TEST(RelationInsertAllTest, ZeroArity) {
  // No columns: nothing to take a span from, only the row count.
  Relation empty(0), one(0), other(0);
  one.Insert(Tuple{});
  other.Insert(Tuple{});
  Relation merged(0), reference(0);
  ExpectMergeMatchesReference(&merged, &reference, {&empty, &one, &other});
  EXPECT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.InsertAll(one), 0u);
}

TEST(RelationInsertAllTest, HeapBackedArity) {
  // Arity 5 exceeds Tuple's inline storage, so the reference path
  // materializes heap-backed tuples; InsertAll never builds one.
  Relation a(5), b(5);
  FillRandom(&a, 6000, 6, 4);
  FillRandom(&b, 700, 6, 5);
  for (size_t i = 0; i < 50; ++i) b.Insert(a.row(i * 7));
  Relation merged(5), reference(5);
  ExpectMergeMatchesReference(&merged, &reference, {&a, &b});
}

TEST(RelationInsertAllTest, NonEmptyIndexedDestination) {
  Relation merged(2), reference(2);
  FillRandom(&merged, 3000, 150, 6);
  FillRandom(&reference, 3000, 150, 6);
  const size_t before = merged.size();
  merged.EnsureIndex(0b01);
  Relation a(2), b(2);
  FillRandom(&a, 4500, 150, 7);  // overlaps the destination's rows
  FillRandom(&b, 2000, 150, 8);
  ExpectMergeMatchesReference(&merged, &reference, {&a, &b});
  ASSERT_GT(merged.size(), before);

  // A later EnsureIndex covers the merged rows: every key's row list
  // equals a scan of the reference.
  const ColumnIndex& index = merged.EnsureIndex(0b01);
  EXPECT_EQ(index.built_upto(), merged.size());
  for (Value key = 0; key < 150; ++key) {
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference.cell(i, 0) == key) expected.push_back(i);
    }
    EXPECT_EQ(Collect(index, {key}, 0, merged.size()), expected) << key;
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(merged.Contains(reference.row(i)));
  }
}


// Value of column `c` in distinct row `i` (every arity keeps rows
// distinct through column 0).
Value RowCell(size_t i, int c) {
  return static_cast<Value>(i * (2 * c + 1) + 13 * c);
}

TEST(RelationRehashTest, GrowthInsideOneBlockKeepsDedup) {
  // 10,000 committed rows span three column chunks and leave the dedup
  // table at 16,384 slots (at most 12,288 rows below 3/4 load), so the
  // 4,000-row block below makes InsertBlock grow it between its hash
  // pass and its probe pass. The block interleaves 1,500 new rows, each
  // twice, with 1,000 copies of committed rows.
  constexpr size_t kCommitted = 10000;
  constexpr size_t kNew = 1500;
  static_assert(kCommitted > 2 * ColumnStore::kChunkRows);
  for (int arity : {1, 2, 3}) {
    SCOPED_TRACE(arity);
    Relation rel(arity);
    std::vector<Value> row(arity);
    auto fill = [&](size_t i) {
      for (int c = 0; c < arity; ++c) row[c] = RowCell(i, c);
    };
    for (size_t i = 0; i < kCommitted; ++i) {
      fill(i);
      ASSERT_TRUE(rel.InsertView(row.data(), arity));
    }
    std::vector<Value> block;
    for (size_t k = 0; k < kNew; ++k) {
      for (size_t i : {kCommitted + k, kCommitted + k, (k * 7) % kCommitted}) {
        if (i < kCommitted && k % 3 == 2) continue;  // 1,000 committed
        fill(i);
        block.insert(block.end(), row.begin(), row.end());
      }
    }
    const uint32_t count = static_cast<uint32_t>(block.size() / arity);
    ASSERT_EQ(count, 2 * kNew + 1000);
    EXPECT_EQ(rel.InsertBlock(block.data(), arity, count), kNew);
    EXPECT_EQ(rel.size(), kCommitted + kNew);
    size_t missing = 0;
    for (size_t i = 0; i < kCommitted + kNew; ++i) {
      fill(i);
      if (!rel.Contains(Tuple(row.data(), arity))) ++missing;
    }
    EXPECT_EQ(missing, 0u);
    size_t readded = 0;
    for (size_t i = 0; i < kCommitted + kNew; ++i) {
      fill(i);
      if (rel.InsertView(row.data(), arity)) ++readded;
    }
    EXPECT_EQ(readded, 0u);
    EXPECT_EQ(rel.InsertBlock(block.data(), arity, count), 0u);
    EXPECT_EQ(rel.size(), kCommitted + kNew);
  }
}

// Two distinct arity-2 rows whose hashes agree on the high 32 bits (the
// dedup tag) and on the low 4 bits (the slot in a 16-slot table), so
// they share a probe chain and pass the tag filter: only reading the
// cells back tells them apart. Found by a search over 1..2047 x 1..511.
constexpr Value kTagTwinA[] = {397, 369};
constexpr Value kTagTwinB[] = {149, 162};

// Both twins are kept, found, and rejected on re-insert.
void ExpectTwinsKept(Relation* rel, size_t size) {
  EXPECT_EQ(rel->size(), size);
  EXPECT_TRUE(rel->Contains(Tuple(kTagTwinA, 2)));
  EXPECT_TRUE(rel->Contains(Tuple(kTagTwinB, 2)));
  EXPECT_FALSE(rel->InsertView(kTagTwinA, 2));
  EXPECT_FALSE(rel->InsertView(kTagTwinB, 2));
  EXPECT_EQ(rel->InsertBlock(kTagTwinB, 2, 1), 0u);
  EXPECT_EQ(rel->size(), size);
}

TEST(RelationDedupTagTest, TagCollisionKeepsBothRows) {
  const uint64_t ha = HashProjection(kTagTwinA, 2);
  const uint64_t hb = HashProjection(kTagTwinB, 2);
  ASSERT_EQ(ha >> 32, hb >> 32) << "hash changed: pick a new tag twin";
  ASSERT_EQ(ha & 15, hb & 15) << "hash changed: pick a new tag twin";

  Relation by_view(2);
  EXPECT_TRUE(by_view.InsertView(kTagTwinA, 2));
  EXPECT_TRUE(by_view.InsertView(kTagTwinB, 2));

  // One block holding both rows: the second is checked against the
  // first as an earlier survivor of the same block.
  Relation by_block(2);
  const Value block[] = {kTagTwinA[0], kTagTwinA[1], kTagTwinB[0],
                         kTagTwinB[1]};
  EXPECT_EQ(by_block.InsertBlock(block, 2, 2), 2u);

  Relation by_union(2), source_a(2), source_b(2);
  source_a.Insert(Tuple(kTagTwinA, 2));
  source_b.Insert(Tuple(kTagTwinB, 2));
  EXPECT_EQ(by_union.InsertAll(
                std::vector<const Relation*>{&source_a, &source_b}),
            2u);

  // 10,000 more rows grow each table through GrowDedup, which must
  // carry both twins' tags over.
  std::vector<Value> filler;
  for (Value i = 0; i < 10000; ++i) {
    filler.push_back(1000000 + i);
    filler.push_back(i);
  }
  for (Relation* rel : {&by_view, &by_block, &by_union}) {
    ExpectTwinsKept(rel, 2);
    EXPECT_EQ(rel->InsertBlock(filler.data(), 2, 10000), 10000u);
    ExpectTwinsKept(rel, 10002);
  }
}


// Pairwise-disjoint sources of `arity` whose sizes straddle the 4,096-row
// chunk edge, so the concatenation's runs start mid-chunk on both sides:
// source k holds rows RowCell(i, .) for consecutive i, never shared.
// Arity 0 has one distinct row, so only one source can hold it.
std::vector<std::unique_ptr<Relation>> DisjointSources(int arity) {
  const std::vector<size_t> sizes =
      arity == 0 ? std::vector<size_t>{0, 1, 0}
                 : std::vector<size_t>{0, ColumnStore::kChunkRows - 1,
                                       ColumnStore::kChunkRows + 1, 10000};
  std::vector<std::unique_ptr<Relation>> sources;
  std::vector<Value> row(arity);
  size_t next = 0;
  for (size_t size : sizes) {
    sources.push_back(std::make_unique<Relation>(arity));
    for (size_t i = 0; i < size; ++i, ++next) {
      for (int c = 0; c < arity; ++c) row[c] = RowCell(next, c);
      sources.back()->InsertView(row.data(), arity);
    }
  }
  return sources;
}

std::vector<const Relation*> Views(
    const std::vector<std::unique_ptr<Relation>>& sources) {
  std::vector<const Relation*> views;
  for (const auto& source : sources) views.push_back(source.get());
  return views;
}

// A freshly concatenated relation: its dedup table is still unbuilt.
std::unique_ptr<Relation> Concatenated(
    const std::vector<std::unique_ptr<Relation>>& sources, int arity) {
  auto pooled = std::make_unique<Relation>(arity);
  pooled->AppendDisjoint(Views(sources));
  return pooled;
}

TEST(RelationAppendDisjointTest, RowsAreTheSourcesConcatenated) {
  for (int arity : {0, 1, 2, 3}) {
    SCOPED_TRACE(arity);
    auto sources = DisjointSources(arity);
    std::vector<Tuple> expected;
    for (const auto& source : sources) {
      for (const Tuple& t : Rows(*source)) expected.push_back(t);
    }
    EXPECT_EQ(Rows(*Concatenated(sources, arity)), expected);
  }
}

TEST(RelationAppendDisjointTest, DeferredTableServesEveryReader) {
  for (int arity : {0, 1, 2, 3}) {
    SCOPED_TRACE(arity);
    auto sources = DisjointSources(arity);
    const size_t total = Concatenated(sources, arity)->size();
    std::vector<Value> fresh(arity);  // a row no source holds
    for (int c = 0; c < arity; ++c) fresh[c] = RowCell(total, c);
    const Tuple last = Concatenated(sources, arity)->row(total - 1);

    auto contains = Concatenated(sources, arity);
    size_t missing = 0;
    for (const Tuple& t : Rows(*contains)) missing += !contains->Contains(t);
    EXPECT_EQ(missing, 0u);
    if (arity > 0) {
      EXPECT_FALSE(contains->Contains(Tuple(fresh.data(), arity)));
    }

    // Each insert path, first on an unbuilt table, rejects a
    // concatenated row and (arity > 0) accepts a new one.
    auto by_view = Concatenated(sources, arity);
    EXPECT_FALSE(by_view->InsertView(last.data(), arity));
    auto by_block = Concatenated(sources, arity);
    EXPECT_EQ(by_block->InsertBlock(last.data(), arity, 1), 0u);
    auto by_union = Concatenated(sources, arity);
    Relation dup(arity);
    dup.Insert(last);
    EXPECT_EQ(by_union->InsertAll(dup), 0u);
    for (Relation* rel : {by_view.get(), by_block.get(), by_union.get()}) {
      EXPECT_EQ(rel->size(), total);
    }
    if (arity > 0) {
      EXPECT_TRUE(by_view->InsertView(fresh.data(), arity));
      EXPECT_EQ(by_block->InsertBlock(fresh.data(), arity, 1), 1u);
      Relation one(arity);
      one.InsertView(fresh.data(), arity);
      EXPECT_EQ(by_union->InsertAll(one), 1u);
      for (Relation* rel : {by_view.get(), by_block.get(), by_union.get()}) {
        EXPECT_EQ(rel->size(), total + 1);
        EXPECT_TRUE(rel->Contains(Tuple(fresh.data(), arity)));
      }
    }

    // An index built on the concatenation covers every row.
    if (arity > 0) {
      auto indexed = Concatenated(sources, arity);
      const ColumnIndex& index = indexed->EnsureIndex(0b1);
      EXPECT_EQ(index.built_upto(), total);
      for (size_t i : {size_t{0}, ColumnStore::kChunkRows, total - 1}) {
        EXPECT_EQ(Collect(index, {RowCell(i, 0)}, 0, total),
                  std::vector<uint32_t>{static_cast<uint32_t>(i)});
      }
    }
  }
}

TEST(RelationAppendDisjointTest, InsertAllOfOneSourceIntoEmptyCopiesRows) {
  for (int arity : {0, 1, 2, 3}) {
    SCOPED_TRACE(arity);
    auto sources = DisjointSources(arity);
    const Relation& source = *sources[arity == 0 ? 1 : 3];
    Relation copy(arity);
    EXPECT_EQ(copy.InsertAll(source), source.size());
    EXPECT_EQ(Rows(copy), Rows(source));
    EXPECT_EQ(copy.InsertAll(source), 0u);
    EXPECT_EQ(Rows(copy), Rows(source));
  }
}

TEST(RelationAppendDisjointTest, ConcurrentContainsBuildsTheTableOnce) {
  // Contains is const: readers sharing a freshly concatenated relation
  // race to build its table, and exactly one may (TSan checks the rest).
  auto sources = DisjointSources(2);
  auto pooled = Concatenated(sources, 2);
  const Relation& shared = *pooled;
  std::atomic<size_t> found{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&shared, &found, t] {
      size_t hits = 0;
      for (size_t i = t; i < shared.size(); i += 4) {
        const Value row[] = {RowCell(i, 0), RowCell(i, 1)};
        hits += shared.Contains(Tuple(row, 2));
      }
      found += hits;
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(found.load(), shared.size());
}

}  // namespace
}  // namespace pdatalog

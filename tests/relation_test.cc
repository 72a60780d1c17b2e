#include "storage/relation.h"

#include <initializer_list>
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

}  // namespace
}  // namespace pdatalog

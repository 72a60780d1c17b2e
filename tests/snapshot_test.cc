#include "storage/snapshot.h"

#include <cstdio>

#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/pdatalog_snapshot_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    (void)!std::system(cmd.c_str());
  }
  std::string dir_;
};

TEST_F(SnapshotTest, RoundTripPreservesRelations) {
  SymbolTable symbols;
  Database db;
  GenRandomGraph(&symbols, &db, "edge", 20, 40, 3);
  GenChain(&symbols, &db, "chain", 5);
  StatusOr<size_t> saved = SaveDatabase(db, symbols, dir_);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(*saved, 2u);

  SymbolTable symbols2;
  Database loaded;
  StatusOr<size_t> n = LoadDatabase(dir_, &symbols2, &loaded);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2u);
  for (const char* pred : {"edge", "chain"}) {
    EXPECT_EQ(loaded.Find(symbols2.Lookup(pred))->ToSortedString(symbols2),
              db.Find(symbols.Lookup(pred))->ToSortedString(symbols))
        << pred;
  }
}

TEST_F(SnapshotTest, EvaluatedResultsRoundTrip) {
  SymbolTable symbols;
  Database db = testing_util::EvalOrDie(
      "par(a, b).\npar(b, c).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols);
  ASSERT_TRUE(SaveDatabase(db, symbols, dir_).ok());

  SymbolTable symbols2;
  Database loaded;
  ASSERT_TRUE(LoadDatabase(dir_, &symbols2, &loaded).ok());
  EXPECT_EQ(loaded.Find(symbols2.Lookup("anc"))->size(), 3u);
}

TEST_F(SnapshotTest, MissingDirectoryFails) {
  SymbolTable symbols;
  Database db;
  StatusOr<size_t> n =
      LoadDatabase("/nonexistent/snapshot/dir", &symbols, &db);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, SaveIntoExistingDirectory) {
  SymbolTable symbols;
  Database db;
  GenChain(&symbols, &db, "e", 3);
  ASSERT_TRUE(SaveDatabase(db, symbols, dir_).ok());
  // Saving again over the same directory succeeds (overwrites).
  GenChain(&symbols, &db, "f", 2);
  StatusOr<size_t> again = SaveDatabase(db, symbols, dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 2u);
}

TEST_F(SnapshotTest, EmptyDatabaseSavesNothing) {
  SymbolTable symbols;
  Database db;
  StatusOr<size_t> saved = SaveDatabase(db, symbols, dir_);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(*saved, 0u);
  SymbolTable symbols2;
  Database loaded;
  StatusOr<size_t> n = LoadDatabase(dir_, &symbols2, &loaded);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(TsvEscapeTest, EscapeUnescapeRoundTrip) {
  for (const std::string& name :
       {std::string("plain"), std::string("has\ttab"),
        std::string("has\nnewline"), std::string("has\rcr"),
        std::string("back\\slash"), std::string("\t\n\r\\"),
        std::string("")}) {
    std::string escaped = EscapeTsvField(name);
    // Escaped fields never contain raw separators.
    EXPECT_EQ(escaped.find('\t'), std::string::npos) << name;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << name;
    std::string back;
    ASSERT_TRUE(UnescapeTsvField(escaped, &back)) << name;
    EXPECT_EQ(back, name);
  }
}

TEST(TsvEscapeTest, MalformedEscapesRejected) {
  std::string out;
  EXPECT_FALSE(UnescapeTsvField("trailing\\", &out));
  EXPECT_FALSE(UnescapeTsvField("bad\\x", &out));
  // Unescaped legacy fields (no backslashes) pass through.
  ASSERT_TRUE(UnescapeTsvField("plain_old", &out));
  EXPECT_EQ(out, "plain_old");
}

TEST_F(SnapshotTest, RoundTripPreservesSeparatorCharacters) {
  // The regression this escaping fixes: constant names containing the
  // TSV separators themselves used to corrupt the file.
  SymbolTable symbols;
  Database db;
  Relation& rel = db.GetOrCreate(symbols.Intern("odd"), 2);
  rel.Insert(Tuple{symbols.Intern("a\tb"), symbols.Intern("c\nd")});
  rel.Insert(Tuple{symbols.Intern("e\\f"), symbols.Intern("g\rh")});
  ASSERT_TRUE(SaveDatabase(db, symbols, dir_).ok());

  SymbolTable symbols2;
  Database loaded;
  ASSERT_TRUE(LoadDatabase(dir_, &symbols2, &loaded).ok());
  const Relation* back = loaded.Find(symbols2.Lookup("odd"));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ(back->ToSortedString(symbols2),
            rel.ToSortedString(symbols));
}

TEST_F(SnapshotTest, MalformedRowsFailTheLoad) {
  SymbolTable symbols;
  Database db;
  GenChain(&symbols, &db, "e", 2);
  ASSERT_TRUE(SaveDatabase(db, symbols, dir_).ok());

  // Ragged row: three fields in an arity-2 relation.
  {
    FILE* f = fopen((dir_ + "/e.tsv").c_str(), "a");
    ASSERT_NE(f, nullptr);
    fputs("x\ty\tz\n", f);
    fclose(f);
    SymbolTable s;
    Database d;
    StatusOr<size_t> n = LoadDatabase(dir_, &s, &d);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(n.status().message().find("e.tsv"), std::string::npos);
  }
  // Bad escape sequence.
  {
    FILE* f = fopen((dir_ + "/e.tsv").c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("ok\\tfield\tbad\\qescape\n", f);
    fclose(f);
    SymbolTable s;
    Database d;
    StatusOr<size_t> n = LoadDatabase(dir_, &s, &d);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DatabaseViewTest, FrozenViewMatchesAndStaysConstant) {
  SymbolTable symbols;
  Database db;
  Relation& rel = db.GetOrCreate(symbols.Intern("edge"), 2);
  // Span multiple chunks so the chunk-pointer walk is exercised.
  const size_t kRows = ColumnStore::kChunkRows * 2 + 17;
  for (size_t i = 0; i < kRows; ++i) {
    rel.Insert(Tuple{symbols.Intern("a" + std::to_string(i)),
                     symbols.Intern("b" + std::to_string(i))});
  }
  DatabaseView view = DatabaseView::Freeze(db);
  ASSERT_EQ(view.relation_count(), 1u);
  const RelationView* frozen = view.Find(symbols.Lookup("edge"));
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->size(), kRows);
  EXPECT_EQ(view.total_rows(), kRows);
  EXPECT_EQ(frozen->ToSortedString(symbols), rel.ToSortedString(symbols));
  for (size_t i = 0; i < kRows; i += 997) {
    EXPECT_EQ(frozen->row(i), rel.row(i)) << i;
    EXPECT_EQ(frozen->cell(i, 0), rel.row(i)[0]) << i;
  }

  // Growing the relation does not move the view.
  std::string before = frozen->ToSortedString(symbols);
  for (size_t i = 0; i < ColumnStore::kChunkRows + 5; ++i) {
    rel.Insert(Tuple{symbols.Intern("x" + std::to_string(i)),
                     symbols.Intern("y" + std::to_string(i))});
  }
  EXPECT_EQ(frozen->size(), kRows);
  EXPECT_EQ(frozen->ToSortedString(symbols), before);

  // An absent predicate is null, not a crash.
  EXPECT_EQ(view.Find(symbols.Intern("nosuch")), nullptr);
}

// A view keeps its predecessor's index while the tail of rows appended
// since that index was built is at most 1/8 of the rows it covers, and
// builds a fresh index over every row one row past that.
TEST(DatabaseViewTest, IndexReusedUpToAnEighthTailThenRebuilt) {
  SymbolTable symbols;
  Database db;
  const Symbol pred = symbols.Intern("edge");
  Relation& rel = db.GetOrCreate(pred, 2);
  const Symbol other = symbols.Intern("other");
  db.GetOrCreate(other, 1).Insert(Tuple{symbols.Intern("z")});
  auto append = [&](size_t rows) {
    for (size_t target = rel.size() + rows; rel.size() < target;) {
      const size_t i = rel.size();
      rel.Insert(Tuple{symbols.Intern("a" + std::to_string(i % 37)),
                       symbols.Intern("b" + std::to_string(i))});
    }
  };
  append(800);
  const DatabaseView first = DatabaseView::Freeze(db);
  const FrozenIndex* index = first.Find(pred)->index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->rows, 800u);
  ASSERT_EQ(index->columns.size(), 2u);

  append(100);  // tail = 800 / 8: reused
  const DatabaseView at_bound = DatabaseView::Freeze(db, &first);
  EXPECT_EQ(at_bound.Find(pred)->index(), index);
  EXPECT_EQ(at_bound.Find(pred)->size(), 900u);
  // An unchanged relation keeps its index too.
  EXPECT_EQ(at_bound.Find(other)->index(), first.Find(other)->index());

  append(1);  // tail = 800 / 8 + 1: rebuilt over all 901 rows
  const DatabaseView past_bound = DatabaseView::Freeze(db, &at_bound);
  const FrozenIndex* rebuilt = past_bound.Find(pred)->index();
  EXPECT_NE(rebuilt, index);
  EXPECT_EQ(rebuilt->rows, 901u);
  // Without a predecessor every relation is indexed in full.
  EXPECT_EQ(DatabaseView::Freeze(db).Find(pred)->index()->rows, 901u);

  // Postings ascend and name exactly the rows holding the key; an
  // absent key has none. The old index still answers for its prefix.
  const Symbol a5 = symbols.Lookup("a5");
  std::span<const uint32_t> rows = rebuilt->columns[0].Find(a5);
  ASSERT_EQ(rows.size(), 25u);  // i % 37 == 5 for i < 901
  for (size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(rows[k], 5 + 37 * k);
    EXPECT_EQ(rel.cell(rows[k], 0), a5);
  }
  EXPECT_EQ(index->columns[0].Find(a5).size(), 22u);  // i < 800
  EXPECT_EQ(rebuilt->columns[1].Find(symbols.Lookup("b900")).size(), 1u);
  EXPECT_TRUE(rebuilt->columns[0].Find(symbols.Intern("nosuch")).empty());
}

TEST_F(SnapshotTest, SaveFromViewEqualsSaveFromDatabase) {
  SymbolTable symbols;
  Database db;
  GenRandomGraph(&symbols, &db, "edge", 12, 30, 7);
  DatabaseView view = DatabaseView::Freeze(db);
  ASSERT_TRUE(SaveDatabase(view, symbols, dir_).ok());

  SymbolTable symbols2;
  Database loaded;
  ASSERT_TRUE(LoadDatabase(dir_, &symbols2, &loaded).ok());
  EXPECT_EQ(loaded.Find(symbols2.Lookup("edge"))->ToSortedString(symbols2),
            db.Find(symbols.Lookup("edge"))->ToSortedString(symbols));
}

}  // namespace
}  // namespace pdatalog

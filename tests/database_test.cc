#include "storage/database.h"

#include "datalog/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;

TEST(DatabaseTest, GetOrCreateIsIdempotent) {
  SymbolTable symbols;
  Database db;
  Symbol p = symbols.Intern("p");
  Relation& r1 = db.GetOrCreate(p, 2);
  Relation& r2 = db.GetOrCreate(p, 2);
  EXPECT_EQ(&r1, &r2);
  EXPECT_EQ(db.relation_count(), 1u);
}

TEST(DatabaseTest, FindMissingReturnsNull) {
  SymbolTable symbols;
  Database db;
  EXPECT_EQ(db.Find(symbols.Intern("nope")), nullptr);
}

TEST(DatabaseTest, InsertCreatesRelation) {
  SymbolTable symbols;
  Database db;
  Symbol p = symbols.Intern("p");
  EXPECT_TRUE(db.Insert(p, Tuple{1, 2}, 2));
  EXPECT_FALSE(db.Insert(p, Tuple{1, 2}, 2));
  EXPECT_EQ(db.Find(p)->size(), 1u);
}

TEST(DatabaseTest, AbsorbMovesRelationsWithoutCopying) {
  SymbolTable symbols;
  Symbol p = symbols.Intern("p");
  Symbol q = symbols.Intern("q");
  Database db;
  db.Insert(p, Tuple{1, 2}, 2);
  Database other;
  other.Insert(q, Tuple{3}, 1);
  const Relation* moved = other.Find(q);
  ASSERT_TRUE(db.Absorb(std::move(other)).ok());
  EXPECT_EQ(db.Find(q), moved);
  EXPECT_EQ(db.relation_count(), 2u);

  // A predicate in both is an error, and its relation stays behind.
  Database clash;
  clash.Insert(p, Tuple{5, 6}, 2);
  EXPECT_EQ(db.Absorb(std::move(clash)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db.Find(p)->size(), 1u);
  EXPECT_EQ(clash.relation_count(), 1u);
}

TEST(DatabaseTest, LoadFactsFromProgram) {
  SymbolTable symbols;
  Program program = ParseOrDie("par(a, b).\npar(b, c).\nsolo(x).\n", &symbols);
  Database db;
  ASSERT_TRUE(db.LoadFacts(program).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("par"))->size(), 2u);
  EXPECT_EQ(db.Find(symbols.Lookup("solo"))->size(), 1u);
}

TEST(DatabaseTest, LoadFactsDeduplicates) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(a).\np(a).\n", &symbols);
  Database db;
  ASSERT_TRUE(db.LoadFacts(program).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("p"))->size(), 1u);
}

TEST(DatabaseTest, MoveTransfersRelations) {
  SymbolTable symbols;
  Database db;
  Symbol p = symbols.Intern("p");
  db.Insert(p, Tuple{3}, 1);
  Database moved = std::move(db);
  ASSERT_NE(moved.Find(p), nullptr);
  EXPECT_EQ(moved.Find(p)->size(), 1u);
}

}  // namespace
}  // namespace pdatalog

#include "datalog/query.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/hash.h"

namespace pdatalog {
namespace {

Database MakeAncDb(SymbolTable* symbols) {
  return testing_util::EvalOrDie(
      "par(a, b).\npar(b, c).\npar(b, d).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      symbols);
}

TEST(QueryTest, BoundFirstArgument) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  StatusOr<QueryResult> result = EvaluateQuery("anc(a, X)", &symbols, db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToString(symbols), "X = b\nX = c\nX = d\n");
}

TEST(QueryTest, BoundSecondArgument) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  StatusOr<QueryResult> result = EvaluateQuery("anc(X, d)", &symbols, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(symbols), "X = a\nX = b\n");
}

TEST(QueryTest, AllFree) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  StatusOr<QueryResult> result = EvaluateQuery("anc(X, Y)", &symbols, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bindings.size(), 5u);  // ab ac ad bc bd
  EXPECT_EQ(result->variables.size(), 2u);
}

TEST(QueryTest, GroundQueryIsBoolean) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  StatusOr<QueryResult> yes = EvaluateQuery("anc(a, c)", &symbols, db);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes->IsBoolean());
  EXPECT_TRUE(yes->Holds());
  EXPECT_EQ(yes->ToString(symbols), "true\n");

  StatusOr<QueryResult> no = EvaluateQuery("anc(c, a)", &symbols, db);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no->Holds());
  EXPECT_EQ(no->ToString(symbols), "false\n");
}

TEST(QueryTest, RepeatedVariableSelectsDiagonal) {
  SymbolTable symbols;
  Database db;
  Relation& rel = db.GetOrCreate(symbols.Intern("e"), 2);
  Value a = symbols.Intern("a");
  Value b = symbols.Intern("b");
  rel.Insert(Tuple{a, a});
  rel.Insert(Tuple{a, b});
  rel.Insert(Tuple{b, b});
  StatusOr<QueryResult> result = EvaluateQuery("e(X, X)", &symbols, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(symbols), "X = a\nX = b\n");
}

TEST(QueryTest, ProjectionDeduplicates) {
  SymbolTable symbols;
  Database db;
  Relation& rel = db.GetOrCreate(symbols.Intern("e"), 2);
  rel.Insert(Tuple{symbols.Intern("a"), symbols.Intern("x")});
  rel.Insert(Tuple{symbols.Intern("a"), symbols.Intern("y")});
  StatusOr<QueryResult> result = EvaluateQuery("e(V, W)", &symbols, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bindings.size(), 2u);
  StatusOr<QueryResult> first = EvaluateQuery("e(V, Q)", &symbols, db);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->bindings.size(), 2u);
}

TEST(QueryTest, UnknownPredicateIsEmpty) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  StatusOr<QueryResult> result = EvaluateQuery("ghost(X)", &symbols, db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->bindings.empty());
}

TEST(QueryTest, TrailingPeriodAccepted) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  StatusOr<QueryResult> result =
      EvaluateQuery("anc(a, X).", &symbols, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bindings.size(), 3u);
}

TEST(QueryTest, ArityMismatchRejected) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  EXPECT_FALSE(EvaluateQuery("anc(X)", &symbols, db).ok());
}

TEST(QueryTest, MalformedQueryRejected) {
  SymbolTable symbols;
  Database db = MakeAncDb(&symbols);
  EXPECT_FALSE(EvaluateQuery("anc(X,", &symbols, db).ok());
  EXPECT_FALSE(EvaluateQuery("anc(X), anc(Y)", &symbols, db).ok());
}

TEST(QueryTest, ToStringSortsAndJoinsEveryBinding) {
  SymbolTable symbols;
  Value x = symbols.Intern("X");
  Value long_var = symbols.Intern("Long_variable");
  Value b = symbols.Intern("b");
  Value a = symbols.Intern("a");
  QueryResult result;
  result.variables = {x, long_var};
  result.bindings = {Tuple{b, a}, Tuple{a, b}, Tuple{a, a}};
  EXPECT_EQ(result.ToString(symbols),
            "X = b, Long_variable = a\n"
            "X = a, Long_variable = b\n"
            "X = a, Long_variable = a\n");
}

// The matcher's four sources must agree binding for binding, in order:
// the live Database (a plain scan), a fresh Freeze (index over every
// row), a Freeze that reuses an earlier view's index (index over a
// prefix, the rest a scanned tail), and a brute-force filter.
class MatcherDifferentialTest : public ::testing::TestWithParam<int> {};

// Brute force: every row in order, keeping those that equal the atom's
// constants and repeat its repeated variables, projected onto the
// variables in first-occurrence order.
std::vector<Tuple> BruteForce(const ParsedQuery& query, const Relation& rel) {
  std::vector<Tuple> out;
  for (size_t r = 0; r < rel.size(); ++r) {
    const Tuple row = rel.row(r);
    std::vector<Value> binding(query.variables.size(), kInvalidSymbol);
    bool match = true;
    for (int c = 0; c < row.arity() && match; ++c) {
      const Term& term = query.atom.args[c];
      if (term.is_const()) {
        match = row[c] == term.sym;
        continue;
      }
      for (size_t v = 0; v < query.variables.size(); ++v) {
        if (query.variables[v] != term.sym) continue;
        if (binding[v] == kInvalidSymbol) {
          binding[v] = row[c];
        } else {
          match = binding[v] == row[c];
        }
      }
    }
    if (match) {
      out.emplace_back(binding.data(), static_cast<int>(binding.size()));
    }
  }
  return out;
}

TEST_P(MatcherDifferentialTest, AllSourcesAgreeInRowOrder) {
  const int arity = GetParam();
  SymbolTable symbols;
  const Symbol pred = symbols.Intern("r");
  const Symbol empty_pred = symbols.Intern("empty");
  Database db;
  Relation& rel = db.GetOrCreate(pred, arity);
  db.GetOrCreate(empty_pred, arity);
  // A small domain per column so keys repeat and rows collide; more
  // rows than two column chunks.
  SplitMix64 rng(static_cast<uint64_t>(arity) * 7919);
  const int domain = arity == 1 ? 20000 : arity == 2 ? 150 : 40;
  auto constant = [&](uint64_t i) {
    return symbols.Intern("c" + std::to_string(i));
  };
  auto fill = [&](size_t rows, const std::string& only_in_tail) {
    while (rel.size() < rows) {
      Value vals[3];
      for (int c = 0; c < arity; ++c) vals[c] = constant(rng.NextBelow(domain));
      if (!only_in_tail.empty() && rng.NextBelow(10) == 0) {
        vals[rng.NextBelow(arity)] = symbols.Intern(only_in_tail);
      }
      rel.InsertView(vals, arity);
    }
  };
  fill(ColumnStore::kChunkRows * 2 + 1000, "");
  const DatabaseView previous = DatabaseView::Freeze(db);
  const size_t indexed = rel.size();
  // Appends within the reuse bound; some rows carry a tail-only key.
  fill(indexed + indexed / 8, "tailkey");
  const DatabaseView fresh = DatabaseView::Freeze(db);
  const DatabaseView reused = DatabaseView::Freeze(db, &previous);
  ASSERT_EQ(reused.Find(pred)->index(), previous.Find(pred)->index());
  ASSERT_EQ(reused.Find(pred)->index()->rows, indexed);
  ASSERT_EQ(fresh.Find(pred)->index()->rows, rel.size());

  // Patterns: per column a present constant, an absent one, the
  // tail-only one, or a variable from a two-name pool (so variables
  // repeat); then the fixed cases.
  std::vector<std::string> queries;
  const char* kVars[] = {"X", "Y"};
  for (int q = 0; q < 200; ++q) {
    const Tuple row = rel.row(rng.NextBelow(rel.size()));
    std::string text = "r(";
    for (int c = 0; c < arity; ++c) {
      if (c > 0) text += ", ";
      switch (rng.NextBelow(6)) {
        case 0:
        case 1:
          text += symbols.Name(row[c]);
          break;
        case 2:
          text += rng.NextBelow(2) == 0 ? "absent" : "tailkey";
          break;
        default:
          text += kVars[rng.NextBelow(2)];
      }
    }
    queries.push_back(text + ")");
  }
  for (int c = 0; c < arity; ++c) {
    // A constant in each column alone, and the tail-only key there.
    const Tuple row = rel.row(rng.NextBelow(rel.size()));
    std::string with_const = "r(", with_tail = "r(";
    for (int d = 0; d < arity; ++d) {
      const std::string sep = d > 0 ? ", " : "";
      const std::string var = "V" + std::to_string(d);
      with_const += sep + (d == c ? symbols.Name(row[d]) : var);
      with_tail += sep + (d == c ? std::string("tailkey") : var);
    }
    queries.push_back(with_const + ")");
    queries.push_back(with_tail + ")");
  }
  std::string ground_true = "r(", ground_false = "r(", all_free = "r(";
  const Tuple last = rel.row(rel.size() - 1);  // in the unindexed tail
  for (int c = 0; c < arity; ++c) {
    const std::string sep = c > 0 ? ", " : "";
    ground_true += sep + symbols.Name(last[c]);
    ground_false += sep + "absent";
    all_free += sep + "V" + std::to_string(c);
  }
  queries.push_back(ground_true + ")");
  queries.push_back(ground_false + ")");
  queries.push_back(all_free + ")");
  queries.push_back("empty" + all_free.substr(1) + ")");
  queries.push_back("empty" + ground_true.substr(1) + ")");

  size_t matched = 0;
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    StatusOr<ParsedQuery> query = ParseQuery(text, &symbols);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    const std::vector<Tuple> want =
        BruteForce(*query, *db.Find(query->atom.predicate));
    StatusOr<QueryResult> live = MatchQuery(*query, db);
    StatusOr<QueryResult> on_fresh = MatchQuery(*query, fresh);
    StatusOr<QueryResult> on_reused = MatchQuery(*query, reused);
    ASSERT_TRUE(live.ok() && on_fresh.ok() && on_reused.ok());
    EXPECT_EQ(live->bindings, want);
    EXPECT_EQ(on_fresh->bindings, want);
    EXPECT_EQ(on_reused->bindings, want);
    EXPECT_EQ(live->rows_examined, db.Find(query->atom.predicate)->size());
    EXPECT_LE(on_fresh->rows_examined, live->rows_examined);
    matched += want.empty() ? 0 : 1;
  }
  EXPECT_GT(matched, queries.size() / 4);  // not a sea of empty answers

  // The examined-row count is index hits plus tail rows: a key that
  // only the tail holds costs exactly the tail, and the ground query on
  // a tail row costs its index hits plus that tail.
  StatusOr<ParsedQuery> tail_only = ParseQuery(
      "r(tailkey" + std::string(arity > 1 ? ", V1" : "") +
          std::string(arity > 2 ? ", V2" : "") + ")",
      &symbols);
  ASSERT_TRUE(tail_only.ok());
  StatusOr<QueryResult> tail_answer = MatchQuery(*tail_only, reused);
  ASSERT_TRUE(tail_answer.ok());
  EXPECT_EQ(tail_answer->rows_examined, rel.size() - indexed);
  EXPECT_FALSE(tail_answer->bindings.empty());
}

INSTANTIATE_TEST_SUITE_P(Arity, MatcherDifferentialTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace pdatalog

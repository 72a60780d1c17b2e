// A catalog of named relations: predicate symbol -> Relation.
#ifndef PDATALOG_STORAGE_DATABASE_H_
#define PDATALOG_STORAGE_DATABASE_H_

#include <memory>
#include <unordered_map>

#include "datalog/ast.h"
#include "storage/relation.h"
#include "util/status.h"

namespace pdatalog {

// Owns one Relation per predicate. Used both for the extensional input
// database and for evaluation outputs.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // Returns the relation for `predicate`, creating an empty one with the
  // given arity on first use. Asserts on arity mismatch with an existing
  // relation.
  Relation& GetOrCreate(Symbol predicate, int arity);

  // Returns the relation or nullptr if absent.
  Relation* Find(Symbol predicate);
  const Relation* Find(Symbol predicate) const;

  bool Insert(Symbol predicate, const Tuple& tuple, int arity);

  // Loads all ground facts of `program` into this database.
  Status LoadFacts(const Program& program);

  // Moves every relation of `other` into this database without copying
  // a row. Fails when a predicate is in both; its two relations are
  // left where they were.
  Status Absorb(Database&& other);

  size_t relation_count() const { return relations_.size(); }

  const std::unordered_map<Symbol, std::unique_ptr<Relation>>& relations()
      const {
    return relations_;
  }

 private:
  std::unordered_map<Symbol, std::unique_ptr<Relation>> relations_;
};

}  // namespace pdatalog

#endif  // PDATALOG_STORAGE_DATABASE_H_

#include "storage/database.h"

#include <cassert>
#include <string>

namespace pdatalog {

Relation& Database::GetOrCreate(Symbol predicate, int arity) {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) {
    it = relations_.emplace(predicate, std::make_unique<Relation>(arity))
             .first;
  }
  assert(it->second->arity() == arity);
  return *it->second;
}

Relation* Database::Find(Symbol predicate) {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(Symbol predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : it->second.get();
}

bool Database::Insert(Symbol predicate, const Tuple& tuple, int arity) {
  return GetOrCreate(predicate, arity).Insert(tuple);
}

Status Database::LoadFacts(const Program& program) {
  for (const Atom& fact : program.facts) {
    if (!fact.IsGround()) {
      return Status::InvalidArgument("fact is not ground: " +
                                     ToString(fact, *program.symbols));
    }
    Value buf[32];
    if (fact.arity() > 32) {
      return Status::InvalidArgument("fact arity exceeds 32");
    }
    for (int i = 0; i < fact.arity(); ++i) buf[i] = fact.args[i].sym;
    Insert(fact.predicate, Tuple(buf, fact.arity()), fact.arity());
  }
  return Status::Ok();
}

Status Database::Absorb(Database&& other) {
  relations_.merge(other.relations_);
  if (other.relations_.empty()) return Status::Ok();
  return Status::AlreadyExists(
      "relation " + std::to_string(other.relations_.begin()->first) +
      " is in both databases");
}

}  // namespace pdatalog

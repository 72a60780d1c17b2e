// Fixed-arity tuples of interned constants.
//
// A `Value` is an interned constant symbol. `Tuple` stores up to four
// values inline (covering all the paper's programs) and spills larger
// arities to the heap. Tuples are value types: copyable, movable,
// hashable, and ordered lexicographically for deterministic output.
#ifndef PDATALOG_STORAGE_TUPLE_H_
#define PDATALOG_STORAGE_TUPLE_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>

#include "datalog/symbol_table.h"
#include "util/hash.h"

namespace pdatalog {

using Value = Symbol;  // interned constant id

class Tuple {
 public:
  Tuple() : size_(0) {}

  Tuple(std::initializer_list<Value> values)
      : Tuple(values.begin(), static_cast<int>(values.size())) {}

  // Copies `n` values from `data`.
  Tuple(const Value* data, int n);

  Tuple(const Tuple& other) : Tuple(other.data(), other.arity()) {}
  Tuple(Tuple&& other) noexcept;
  Tuple& operator=(const Tuple& other);
  Tuple& operator=(Tuple&& other) noexcept;
  ~Tuple() { DestroyHeap(); }

  int arity() const { return static_cast<int>(size_); }

  const Value* data() const {
    return size_ <= kInline ? inline_ : heap_;
  }

  Value operator[](int i) const { return data()[i]; }

  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  uint64_t Hash() const {
    uint64_t h = 0x12345678u ^ size_;
    for (Value v : *this) h = HashCombine(h, v);
    return h;
  }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.data(), b.data(), a.size_ * sizeof(Value)) == 0;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }

  // Lexicographic order on (arity, values); used only for deterministic
  // printing and test assertions.
  friend bool operator<(const Tuple& a, const Tuple& b);

  // "(alice, bob)" using constant names from `symbols`.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  static constexpr uint32_t kInline = 4;

  void DestroyHeap() {
    if (size_ > kInline) delete[] heap_;
  }

  uint32_t size_;
  union {
    Value inline_[kInline];
    Value* heap_;
  };
};

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    return static_cast<size_t>(t.Hash());
  }
};

}  // namespace pdatalog

#endif  // PDATALOG_STORAGE_TUPLE_H_

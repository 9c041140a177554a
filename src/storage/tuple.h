// Tuple views and owned tuples. Relations store rows as flat Value
// arrays; a TupleView is a non-owning span over one row.
#ifndef GDLOG_STORAGE_TUPLE_H_
#define GDLOG_STORAGE_TUPLE_H_

#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "value/value.h"

namespace gdlog {

using TupleView = std::span<const Value>;
using OwnedTuple = std::vector<Value>;

/// Content hash of a row (order-dependent).
inline uint64_t HashTuple(TupleView t) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ t.size();
  for (Value v : t) h = HashCombine(h, v.Hash());
  return h;
}

inline bool TupleEquals(TupleView a, TupleView b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Renders a row as "(v1, v2, ...)" for debugging and golden tests.
std::string TupleToString(const ValueStore& store, TupleView t);
/// Appends TupleToString(store, t) to `out`.
void AppendTuple(const ValueStore& store, TupleView t, std::string* out);

}  // namespace gdlog

#endif  // GDLOG_STORAGE_TUPLE_H_

#include "storage/tuple.h"

namespace gdlog {

std::string TupleToString(const ValueStore& store, TupleView t) {
  std::string out;
  AppendTuple(store, t, &out);
  return out;
}

void AppendTuple(const ValueStore& store, TupleView t, std::string* out) {
  out->push_back('(');
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) out->append(", ");
    store.AppendTo(t[i], out);
  }
  out->push_back(')');
}

}  // namespace gdlog

#include "engine/diff_util.h"

#include <algorithm>

namespace decibel {

void DiffEmitter::Finish() {
  if (!by_key_) return;
  if (*a_.emit) {
    std::sort(b_.keys.begin(), b_.keys.end());
    EmitUnmatched(a_, b_.keys);
  }
  if (*b_.emit) {
    std::sort(a_.keys.begin(), a_.keys.end());
    EmitUnmatched(b_, a_.keys);
  }
}

void DiffEmitter::EmitUnmatched(const Side& side,
                                const std::vector<int64_t>& other) {
  const uint32_t rs = schema_->record_size();
  for (size_t off = 0; off < side.rows.size(); off += rs) {
    const RecordRef rec(schema_, Slice(side.rows.data() + off, rs));
    if (!std::binary_search(other.begin(), other.end(), rec.pk())) {
      (*side.emit)(rec);
    }
  }
}

}  // namespace decibel

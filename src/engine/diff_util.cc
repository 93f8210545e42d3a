#include "engine/diff_util.h"

#include <algorithm>

namespace decibel {

void DiffEmitter::Finish(const DiffRowSink& emit) {
  std::sort(keys_.begin(), keys_.end());
  const uint32_t rs = schema_->record_size();
  for (size_t off = 0; off < rows_.size(); off += rs) {
    const RecordRef rec(schema_, Slice(rows_.data() + off, rs));
    if (!std::binary_search(keys_.begin(), keys_.end(), rec.pk())) emit(rec);
  }
}

}  // namespace decibel

#include "engine/diff_util.h"

#include "engine/pk_index.h"

namespace decibel {

void DiffEmitter::Finish(const DiffRowSink& emit) {
  PkTable b_keys;
  b_keys.Reserve(keys_.size());
  for (int64_t pk : keys_) b_keys.TryEmplace(pk, 0);
  const uint32_t rs = schema_->record_size();
  for (size_t off = 0; off < rows_.size(); off += rs) {
    const RecordRef rec(schema_, Slice(rows_.data() + off, rs));
    if (!b_keys.Contains(rec.pk())) emit(rec);
  }
}

}  // namespace decibel

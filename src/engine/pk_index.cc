#include "engine/pk_index.h"

namespace decibel {

uint64_t PkIndex::MemoryBytes(std::unordered_set<const void*>* counted) const {
  uint64_t bytes = delta_.MemoryBytes() + erased_.MemoryBytes();
  for (const auto& layer : layers_) {
    if (counted != nullptr && !counted->insert(layer.get()).second) continue;
    bytes += layer->live.MemoryBytes() + layer->erased.MemoryBytes();
  }
  return bytes;
}

const uint64_t* PkIndex::FindInLayers(int64_t pk) const {
  for (size_t i = layers_.size(); i-- > 0;) {
    const Layer& layer = *layers_[i];
    if (const uint64_t* found = layer.live.Find(pk)) return found;
    if (layer.erased.Contains(pk)) return nullptr;
  }
  return nullptr;
}

const uint64_t* PkIndex::FindBelowDelta(int64_t pk) const {
  return erased_.Contains(pk) ? nullptr : FindInLayers(pk);
}

std::pair<uint64_t*, bool> PkIndex::TryEmplaceLayered(int64_t pk,
                                                      uint64_t value) {
  MaybeFold();
  if (layers_.empty()) return TryEmplace(pk, value);
  auto [stored, inserted] = delta_.TryEmplace(pk, value);
  if (!inserted) return {stored, false};
  // New to the delta: a marker means the key was erased here, so this is
  // an insert; otherwise a layer's live copy makes it the branch's own.
  if (!erased_.Erase(pk)) {
    if (const uint64_t* below = FindInLayers(pk)) {
      *stored = *below;
      return {stored, false};
    }
  }
  ++size_;
  return {stored, true};
}

bool PkIndex::EraseLayered(int64_t pk) {
  MaybeFold();
  if (layers_.empty()) return Erase(pk);
  if (erased_.Contains(pk)) return false;
  const bool below = FindInLayers(pk) != nullptr;
  if (!delta_.Erase(pk) && !below) return false;
  // The layers' copy would resurface without a marker.
  if (below) erased_.TryEmplace(pk, 0);
  --size_;
  return true;
}

void PkIndex::MaybeFold() {
  // Folding where the delta would otherwise double its array saves the
  // allocator a freed array per branch: with glibc's dynamic mmap
  // threshold raised, the fold's larger table and the arrays it frees
  // come from the heap, and those left behind stay resident.
  const size_t delta_keys = delta_.size() + erased_.size() + 1;
  if (delta_keys <= layer_keys_ &&
      (2 * delta_keys <= layer_keys_ || !delta_.Full())) {
    return;
  }
  PkTable flat = Flatten();
  delta_ = std::move(flat);
  erased_ = PkTable();
  layers_.clear();
  layer_keys_ = 0;
}

PkTable PkIndex::Flatten() const {
  // Newest level first: the first level holding a key decides it, so a
  // key goes in unless a newer level put it there or erased it.
  PkTable flat;
  flat.Reserve(size_);
  PkTable hidden;  // keys a newer level erased
  auto take = [&](const PkTable& live, const PkTable& erased) {
    live.ForEach([&](int64_t pk, uint64_t value) {
      if (!hidden.Contains(pk)) flat.TryEmplace(pk, value);
    });
    erased.ForEach([&](int64_t pk, uint64_t) { hidden.TryEmplace(pk, 0); });
  };
  take(delta_, erased_);
  for (size_t i = layers_.size(); i-- > 0;) {
    take(layers_[i]->live, layers_[i]->erased);
  }
  DECIBEL_DCHECK(flat.size() == size_);
  return flat;
}

PkIndex PkIndex::Fork() {
  const size_t delta_keys = delta_.size() + erased_.size();
  if (delta_keys > 0) {
    layers_.push_back(std::make_shared<const Layer>(
        Layer{std::exchange(delta_, PkTable()),
              std::exchange(erased_, PkTable())}));
    layer_keys_ += delta_keys;
    if (layers_.size() > kMaxLayers) {
      layers_.assign(1, std::make_shared<const Layer>(Layer{Flatten(), {}}));
      layer_keys_ = size_;
    }
  }
  PkIndex child;
  child.layers_ = layers_;
  child.layer_keys_ = layer_keys_;
  child.size_ = size_;
  return child;
}

}  // namespace decibel

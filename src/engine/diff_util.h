#ifndef DECIBEL_ENGINE_DIFF_UTIL_H_
#define DECIBEL_ENGINE_DIFF_UTIL_H_

/// \file diff_util.h
/// The kDiff view of the bitmap engines (tuple-first and hybrid). "We
/// simply XOR bitmaps together and emit records on the appropriate
/// iterator" (§3.2): an engine walks a XOR b once, in its own physical
/// order, and hands each changed row to a DiffEmitter. A row live in a but
/// not b is in the by-key diff unless b changed the same key too (an
/// update on either side leaves the key present on both), and that is
/// only known once every changed row has been seen. So the emitter holds
/// a's changed rows and b's changed keys until Finish.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/scan_util.h"
#include "storage/record.h"
#include "storage/schema.h"

namespace decibel {

class DiffEmitter {
 public:
  /// \p schema must outlive the emitter.
  explicit DiffEmitter(const Schema* schema) : schema_(schema) {}

  /// Takes one changed row: live in a but not b when \p in_a, else live
  /// in b but not a.
  void Add(const RecordRef& rec, bool in_a) {
    if (in_a) {
      rows_.append(rec.data().data(), rec.data().size());
    } else {
      keys_.push_back(rec.pk());
    }
  }

  /// Hands \p emit a's changed rows, in walk order, except those whose
  /// key b changed too.
  void Finish(const DiffRowSink& emit);

 private:
  const Schema* schema_;
  std::string rows_;           // a's changed rows
  std::vector<int64_t> keys_;  // b's changed keys
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_DIFF_UTIL_H_

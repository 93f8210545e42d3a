#ifndef DECIBEL_ENGINE_DIFF_UTIL_H_
#define DECIBEL_ENGINE_DIFF_UTIL_H_

/// \file diff_util.h
/// Diff semantics shared by the bitmap engines (tuple-first and hybrid).
/// "We simply XOR bitmaps together and emit records on the appropriate
/// iterator" (§3.2): an engine walks only_a | only_b once, in its own
/// physical order, and hands each changed row to a DiffEmitter, which
/// applies the DiffMode. By-content rows go straight to the callbacks.
/// By-key rows wait for the end of the walk: a row live in a but not b
/// is in the key diff unless b changed the same key too (an update on
/// either side leaves the key present on both), and that is only known
/// once every changed row has been seen.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "storage/record.h"
#include "storage/schema.h"

namespace decibel {

class DiffEmitter {
 public:
  /// Either callback may be null. \p schema and both callbacks must
  /// outlive the emitter.
  DiffEmitter(const Schema* schema, DiffMode mode, const DiffCallback& pos,
              const DiffCallback& neg)
      : schema_(schema),
        by_key_(mode == DiffMode::kByKey),
        a_{&pos, {}, {}},
        b_{&neg, {}, {}} {}

  /// Takes one changed row: live in a but not b when \p in_a, else live
  /// in b but not a. A by-key row is copied only when its side's
  /// callback is set, and its key is kept only when the other side's is.
  void Add(const RecordRef& rec, bool in_a) {
    Side& side = in_a ? a_ : b_;
    if (!by_key_) {
      if (*side.emit) (*side.emit)(rec);
      return;
    }
    if (*side.emit) side.rows.append(rec.data().data(), rec.data().size());
    if (*(in_a ? b_ : a_).emit) side.keys.push_back(rec.pk());
  }

  /// Emits the by-key rows held back by Add, each side in walk order: a
  /// row goes out unless the other side changed the same key. A no-op in
  /// by-content mode.
  void Finish();

 private:
  struct Side {
    const DiffCallback* emit;
    std::string rows;           // changed rows, when emit is set
    std::vector<int64_t> keys;  // their keys, when the other side emits
  };

  /// Emits \p side's rows whose keys \p other (sorted) lacks.
  void EmitUnmatched(const Side& side, const std::vector<int64_t>& other);

  const Schema* schema_;
  const bool by_key_;
  Side a_;
  Side b_;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_DIFF_UTIL_H_

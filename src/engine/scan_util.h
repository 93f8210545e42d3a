#ifndef DECIBEL_ENGINE_SCAN_UTIL_H_
#define DECIBEL_ENGINE_SCAN_UTIL_H_

/// \file scan_util.h
/// The kDiff cursor factory all three engines share. A diff view is
/// producer-driven (the engine's diff walk pushes rows), so its rows are
/// materialized before the first Next(); every other view streams.

#include <functional>
#include <memory>

#include "engine/scan_spec.h"

namespace decibel {

/// Takes the rows of a kDiff view, one at a time, from an engine's walk.
using DiffRowSink = std::function<void(const RecordRef&)>;

/// Serves a kDiff ScanSpec from an engine's private diff walk: calls
/// \p walk once, eagerly, with a sink that applies the pushed-down
/// predicate before each row is copied into the buffer and stops the
/// copies at spec.limit. A non-empty projection narrows each copy to the
/// header, the key and the projected columns (the rest stays zero).
/// \p walk hands the sink every row of spec.branch whose key
/// spec.diff_base lacks, in any order. All three engines serve their
/// kDiff views here.
Result<std::unique_ptr<ScanCursor>> MakeDiffScanCursor(
    const Schema& schema, const ScanSpec& spec, ScanCounters* counters,
    const std::function<Status(const DiffRowSink&)>& walk);

}  // namespace decibel

#endif  // DECIBEL_ENGINE_SCAN_UTIL_H_

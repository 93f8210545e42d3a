#include "engine/scan_spec.h"

#include <cstring>

#include "columnar/simd_filter.h"

namespace decibel {

const std::vector<BranchId>& ScanCursor::branches() const {
  static const std::vector<BranchId> kEmpty;
  return kEmpty;
}

bool ScanCursor::NextPage(ScanPage* page) {
  ScanRow row;
  if (!Next(&row)) return false;
  page->Reset(row.record.schema(), 0);
  page->records.push_back(row.record.data().data());
  return true;
}

bool PagedCursor::Next(ScanRow* out) {
  while (next_ >= page_.size()) {
    if (!NextPage(&page_)) return false;
    next_ = 0;
  }
  present_.clear();
  page_.membership(next_).ForEach([&](uint32_t p) { present_.push_back(p); });
  out->record = page_.record(next_++);
  out->branches = &present_;
  return true;
}

Result<std::vector<size_t>> ResolveProjection(
    const Schema& schema, const std::vector<std::string>& columns) {
  std::vector<size_t> out;
  out.reserve(columns.size());
  for (const std::string& name : columns) {
    const int col = schema.FindColumn(name);
    if (col < 0) {
      return Status::InvalidArgument("projection: no column '" + name + "'");
    }
    out.push_back(static_cast<size_t>(col));
  }
  return out;
}

Status ValidateScanSpec(const ScanSpec& spec, const Schema& schema) {
  if (spec.view == ScanView::kHeads) {
    return Status::InvalidArgument(
        "scan: kHeads must be resolved by Decibel::NewScan (engines need "
        "an explicit branch list)");
  }
  if (spec.view == ScanView::kMulti && spec.branches.empty()) {
    return Status::InvalidArgument("scan: multi-branch view needs branches");
  }
  for (size_t col : spec.projection) {
    if (col >= schema.num_columns()) {
      return Status::InvalidArgument("scan: projection column " +
                                     std::to_string(col) + " out of range");
    }
  }
  for (const Comparison& cmp : spec.predicate.comparisons()) {
    if (cmp.column >= schema.num_columns()) {
      return Status::InvalidArgument("scan: predicate column " +
                                     std::to_string(cmp.column) +
                                     " out of range");
    }
  }
  return Status::OK();
}

uint32_t ProjectedRowBytes(const Schema& schema,
                           const std::vector<size_t>& projection) {
  if (projection.empty()) return schema.record_size();
  uint32_t bytes = 1;  // record header
  for (size_t col : projection) bytes += schema.column(col).width;
  return bytes;
}

PreparedPredicate::PreparedPredicate(const Predicate& predicate,
                                     const Schema& schema) {
  raw_ = predicate.comparisons();
  comparisons_.reserve(predicate.comparisons().size());
  for (const Comparison& src : predicate.comparisons()) {
    Cmp cmp;
    cmp.column = static_cast<uint32_t>(src.column);
    cmp.offset = schema.offset(src.column);
    cmp.width = schema.column(src.column).width;
    cmp.type = schema.column(src.column).type;
    cmp.op = src.op;
    cmp.int_value = src.int_value;
    cmp.double_value = src.double_value;
    cmp.string_value = src.string_value;
    comparisons_.push_back(std::move(cmp));
  }
}

bool PreparedPredicate::MatchesOne(const Cmp& cmp, const char* record) {
  const char* p = record + cmp.offset;
  switch (cmp.type) {
    case FieldType::kInt32: {
      int32_t v;
      memcpy(&v, p, sizeof(v));
      return ApplyCompareOp<int64_t>(cmp.op, v, cmp.int_value);
    }
    case FieldType::kInt64: {
      int64_t v;
      memcpy(&v, p, sizeof(v));
      return ApplyCompareOp<int64_t>(cmp.op, v, cmp.int_value);
    }
    case FieldType::kDouble: {
      double v;
      memcpy(&v, p, sizeof(v));
      return ApplyCompareOp<double>(cmp.op, v, cmp.double_value);
    }
    case FieldType::kString: {
      size_t w = cmp.width;
      while (w > 0 && p[w - 1] == '\0') --w;
      return ApplyCompareOp<std::string_view>(cmp.op, std::string_view(p, w),
                                       std::string_view(cmp.string_value));
    }
  }
  return false;
}

namespace {

/// Clears bit i of \p keep for each of records[0, n) whose V-typed value
/// at \p offset fails \p op against \p rhs (compared as R).
template <typename V, typename R>
uint64_t KeepMatching(const char* const* records, uint32_t n, uint32_t offset,
                      CompareOp op, R rhs, uint64_t keep) {
  auto keep_if = [&](auto passes) {
    for (uint32_t i = 0; i < n; ++i) {
      V v;
      memcpy(&v, records[i] + offset, sizeof(v));
      keep &= ~(static_cast<uint64_t>(!passes(static_cast<R>(v))) << i);
    }
    return keep;
  };
  switch (op) {
    case CompareOp::kEq:
      return keep_if([rhs](R v) { return v == rhs; });
    case CompareOp::kNe:
      return keep_if([rhs](R v) { return v != rhs; });
    case CompareOp::kLt:
      return keep_if([rhs](R v) { return v < rhs; });
    case CompareOp::kLe:
      return keep_if([rhs](R v) { return v <= rhs; });
    case CompareOp::kGt:
      return keep_if([rhs](R v) { return v > rhs; });
    case CompareOp::kGe:
      return keep_if([rhs](R v) { return v >= rhs; });
  }
  return 0;
}

}  // namespace

uint64_t PreparedPredicate::MatchEach(const char* const* records,
                                      uint32_t n) const {
  uint64_t keep = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  for (const Cmp& cmp : comparisons_) {
    switch (cmp.type) {
      case FieldType::kInt32:
        keep = KeepMatching<int32_t, int64_t>(records, n, cmp.offset, cmp.op,
                                              cmp.int_value, keep);
        break;
      case FieldType::kInt64:
        keep = KeepMatching<int64_t, int64_t>(records, n, cmp.offset, cmp.op,
                                              cmp.int_value, keep);
        break;
      case FieldType::kDouble:
        keep = KeepMatching<double, double>(records, n, cmp.offset, cmp.op,
                                            cmp.double_value, keep);
        break;
      case FieldType::kString:
        for (uint32_t i = 0; i < n; ++i) {
          if (!MatchesOne(cmp, records[i])) keep &= ~(uint64_t{1} << i);
        }
        break;
    }
  }
  return keep;
}

void PreparedPredicate::MatchBatch(const char* base, uint32_t n,
                                   uint32_t stride, uint8_t* mask) const {
  for (const Cmp& cmp : comparisons_) {
    const char* col = base + cmp.offset;
    switch (cmp.type) {
      case FieldType::kInt32: {
        // The scalar path compares in the int64 domain; a literal outside
        // int32 range makes the comparison constant over every stored
        // value, so resolve it here rather than truncate the rhs.
        if (cmp.int_value > INT32_MAX || cmp.int_value < INT32_MIN) {
          const bool rhs_high = cmp.int_value > INT32_MAX;
          bool all = false;
          switch (cmp.op) {
            case CompareOp::kEq:
              all = false;
              break;
            case CompareOp::kNe:
              all = true;
              break;
            case CompareOp::kLt:
            case CompareOp::kLe:
              all = rhs_high;
              break;
            case CompareOp::kGt:
            case CompareOp::kGe:
              all = !rhs_high;
              break;
          }
          if (!all) memset(mask, 0, n);
          break;
        }
        columnar::FilterStridedI32(col, stride, n, cmp.op,
                                   static_cast<int32_t>(cmp.int_value), mask);
        break;
      }
      case FieldType::kInt64:
        columnar::FilterStridedI64(col, stride, n, cmp.op, cmp.int_value,
                                   mask);
        break;
      case FieldType::kDouble:
        columnar::FilterStridedF64(col, stride, n, cmp.op, cmp.double_value,
                                   mask);
        break;
      case FieldType::kString:
        for (uint32_t i = 0; i < n; ++i) {
          if (mask[i] &&
              !MatchesOne(cmp, base + static_cast<size_t>(i) * stride)) {
            mask[i] = 0;
          }
        }
        break;
    }
  }
}

bool PreparedPredicate::MayMatch(const columnar::ZoneMap& zone) const {
  if (!zone.has_live_rows()) return false;
  for (const Cmp& cmp : comparisons_) {
    if (!zone.MayMatch(cmp.column, cmp.type, cmp.op, cmp.int_value,
                       cmp.double_value)) {
      return false;
    }
  }
  return true;
}

}  // namespace decibel

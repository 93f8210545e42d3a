#include "engine/engine.h"

#include <cstring>

#include "common/coding.h"
#include "engine/hybrid.h"
#include "engine/scan_util.h"
#include "engine/tuple_first.h"
#include "engine/version_first.h"

namespace decibel {

namespace {

/// A cursor over the rows MakeDiffScanCursor copied in up front, stored
/// back to back in one arena.
class BufferedCursor : public ScanCursor {
 public:
  BufferedCursor(const Schema* schema, ScanCounters* counters)
      : schema_(schema),
        counters_(counters),
        record_size_(schema->record_size()) {}
  ~BufferedCursor() override { counters_->Add(stats_); }

  /// Copies \p record: whole when \p projection is empty, otherwise
  /// only the header, the primary key and the projected columns.
  void AddRow(Slice record, const std::vector<size_t>& projection) {
    ++rows_;
    if (projection.empty()) {
      arena_.append(record.data(), record_size_);
      return;
    }
    const size_t at = arena_.size();
    arena_.resize(at + record_size_, '\0');
    char* row = arena_.data() + at;
    row[0] = record[0];
    auto copy_column = [&](size_t col) {
      memcpy(row + schema_->offset(col), record.data() + schema_->offset(col),
             schema_->column(col).width);
    };
    copy_column(0);  // identity travels with every row
    for (size_t col : projection) copy_column(col);
  }

  size_t buffered() const { return rows_; }
  ScanStats* mutable_stats() { return &stats_; }

  bool Next(ScanRow* out) override {
    if (next_ >= rows_) return false;
    out->record = RecordRef(
        schema_, Slice(arena_.data() + next_ * record_size_, record_size_));
    out->branches = nullptr;
    ++next_;
    ++stats_.rows_emitted;
    return true;
  }
  const Status& status() const override { return status_; }
  const ScanStats& stats() const override { return stats_; }

 private:
  const Schema* schema_;
  ScanCounters* counters_;
  const size_t record_size_;
  std::string arena_;  // rows_ records of record_size_ bytes
  size_t rows_ = 0;
  size_t next_ = 0;
  ScanStats stats_;
  Status status_;  // always OK: a failed walk fails MakeDiffScanCursor
};

}  // namespace

Result<std::unique_ptr<ScanCursor>> MakeDiffScanCursor(
    const Schema& schema, const ScanSpec& spec, ScanCounters* counters,
    const std::function<Status(const DiffRowSink&)>& walk) {
  const PreparedPredicate prepared(spec.predicate, schema);
  const uint32_t row_bytes = ProjectedRowBytes(schema, spec.projection);
  auto cursor = std::make_unique<BufferedCursor>(&schema, counters);
  ScanStats* stats = cursor->mutable_stats();
  DECIBEL_RETURN_NOT_OK(walk([&](const RecordRef& rec) {
    if (spec.limit != 0 && cursor->buffered() >= spec.limit) return;
    ++stats->rows_scanned;
    stats->bytes_scanned += row_bytes;
    if (!prepared.Matches(rec.data().data())) return;
    cursor->AddRow(rec.data(), spec.projection);
  }));
  return std::unique_ptr<ScanCursor>(std::move(cursor));
}

void PutEngineMetaHeader(std::string* meta) {
  PutFixed32(meta, kEngineMetaMagic);
  PutVarint32(meta, kEngineMetaVersion);
}

Status CheckEngineMetaHeader(Slice* input, const char* engine_name) {
  const std::string name(engine_name);
  if (input->size() < sizeof(uint32_t) ||
      DecodeFixed32(input->data()) != kEngineMetaMagic) {
    return Status::InvalidArgument(
        name + ": engine.meta has no format header — written by an older "
               "incompatible release; this version cannot open it");
  }
  input->RemovePrefix(sizeof(uint32_t));
  uint32_t version;
  if (!GetVarint32(input, &version)) {
    return Status::Corruption(name + ": truncated engine.meta header");
  }
  if (version != kEngineMetaVersion) {
    return Status::InvalidArgument(
        name + ": unsupported engine.meta format version " +
        std::to_string(version) + " (expected " +
        std::to_string(kEngineMetaVersion) + ")");
  }
  return Status::OK();
}

const char* EngineTypeName(EngineType type) {
  switch (type) {
    case EngineType::kTupleFirst:
      return "tuple-first";
    case EngineType::kVersionFirst:
      return "version-first";
    case EngineType::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Result<std::unique_ptr<StorageEngine>> MakeEngine(
    EngineType type, const Schema& schema, const EngineOptions& options) {
  switch (type) {
    case EngineType::kTupleFirst:
      return OpenEngine<TupleFirstEngine>(schema, options);
    case EngineType::kVersionFirst:
      return OpenEngine<VersionFirstEngine>(schema, options);
    case EngineType::kHybrid:
      return OpenEngine<HybridEngine>(schema, options);
  }
  return Status::InvalidArgument("unknown engine type");
}

}  // namespace decibel

#include "columnar/page_codec.h"

#include <cstring>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "common/lz.h"
#include "common/rle.h"
#include "storage/record.h"

namespace decibel {
namespace columnar {

namespace {

/// Per-strip encodings inside a kColumnar page. Each strip is one
/// column's values (or the 1-byte record headers) in column-major order,
/// stored as [tag u8][varint stored_len][stored_len bytes].
enum class StripTag : uint8_t {
  kPlain = 0,     ///< width * count bytes verbatim
  kRleValues = 1, ///< repeated [varint run_len][width-byte value]
  kDict = 2,      ///< [varint n][n values][count 1-byte codes], n <= 255
  kByteRle = 3,   ///< rle::Encode of the plain strip bytes
};

constexpr uint64_t kMaxDictEntries = 255;

struct StripSpec {
  uint32_t offset;  // byte offset within each record
  uint32_t width;
};

/// Strip order: record headers first, then one strip per column. The
/// header byte lives at offset 0 and columns never overlap it, so the
/// strips exactly tile the record.
std::vector<StripSpec> MakeStrips(const Schema& schema) {
  std::vector<StripSpec> strips;
  strips.reserve(1 + schema.num_columns());
  strips.push_back({0, 1});
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    strips.push_back({schema.offset(c), schema.column(c).width});
  }
  return strips;
}

void ExtractStrip(const char* payload, uint32_t count, uint32_t record_size,
                  const StripSpec& spec, std::string* out) {
  out->resize(static_cast<size_t>(spec.width) * count);
  char* dst = out->data();
  const char* src = payload + spec.offset;
  for (uint32_t i = 0; i < count; ++i) {
    memcpy(dst, src, spec.width);
    dst += spec.width;
    src += record_size;
  }
}

/// Encodes one strip with the cheapest of the four strip encodings,
/// appending [tag][varint len][bytes] to \p out.
void EncodeStrip(const std::string& plain, uint32_t width, uint32_t count,
                 std::string* out) {
  StripTag tag = StripTag::kPlain;
  std::string best;  // empty means "use plain"

  // Value-RLE: runs of identical width-wide values.
  {
    std::string cand;
    uint32_t i = 0;
    while (i < count) {
      uint32_t run = 1;
      const char* v = plain.data() + static_cast<size_t>(i) * width;
      while (i + run < count &&
             memcmp(v, plain.data() + static_cast<size_t>(i + run) * width,
                    width) == 0) {
        ++run;
      }
      PutVarint32(&cand, run);
      cand.append(v, width);
      i += run;
      if (cand.size() >= plain.size()) break;  // already losing
    }
    if (i == count && cand.size() < plain.size()) {
      tag = StripTag::kRleValues;
      best = std::move(cand);
    }
  }

  // Dictionary: 1-byte codes into a small distinct-value table.
  if (width > 1) {
    std::vector<std::string_view> values;
    std::string codes(count, '\0');
    bool fits = true;
    for (uint32_t i = 0; i < count && fits; ++i) {
      std::string_view v(plain.data() + static_cast<size_t>(i) * width, width);
      size_t code = 0;
      for (; code < values.size(); ++code) {
        if (values[code] == v) break;
      }
      if (code == values.size()) {
        if (values.size() == kMaxDictEntries) {
          fits = false;
          break;
        }
        values.push_back(v);
      }
      codes[i] = static_cast<char>(code);
    }
    if (fits) {
      std::string cand;
      PutVarint32(&cand, static_cast<uint32_t>(values.size()));
      for (std::string_view v : values) cand.append(v.data(), v.size());
      cand.append(codes);
      if (cand.size() < plain.size() && (best.empty() || cand.size() < best.size())) {
        tag = StripTag::kDict;
        best = std::move(cand);
      }
    }
  }

  // Byte-RLE over the raw strip bytes (zero-heavy strips, e.g. headers).
  {
    std::string cand;
    rle::Encode(Slice(plain), &cand);
    if (cand.size() < plain.size() && (best.empty() || cand.size() < best.size())) {
      tag = StripTag::kByteRle;
      best = std::move(cand);
    }
  }

  const std::string& chosen = tag == StripTag::kPlain ? plain : best;
  out->push_back(static_cast<char>(tag));
  PutVarint32(out, static_cast<uint32_t>(chosen.size()));
  out->append(chosen);
}

Status CorruptStrip() { return Status::Corruption("bad columnar strip"); }

/// Decodes one strip back to its plain column-major bytes.
Status DecodeStrip(StripTag tag, Slice stored, uint32_t width, uint32_t count,
                   std::string* plain) {
  const size_t want = static_cast<size_t>(width) * count;
  switch (tag) {
    case StripTag::kPlain:
      if (stored.size() != want) return CorruptStrip();
      plain->assign(stored.data(), stored.size());
      return Status::OK();
    case StripTag::kRleValues: {
      plain->clear();
      plain->reserve(want);
      while (plain->size() < want) {
        uint32_t run;
        if (!GetVarint32(&stored, &run) || run == 0) return CorruptStrip();
        if (stored.size() < width) return CorruptStrip();
        if (plain->size() + static_cast<size_t>(run) * width > want) {
          return CorruptStrip();
        }
        for (uint32_t i = 0; i < run; ++i) plain->append(stored.data(), width);
        stored.RemovePrefix(width);
      }
      if (!stored.empty()) return CorruptStrip();
      return Status::OK();
    }
    case StripTag::kDict: {
      uint32_t n;
      if (!GetVarint32(&stored, &n) || n > kMaxDictEntries) {
        return CorruptStrip();
      }
      if (stored.size() != static_cast<size_t>(n) * width + count) {
        return CorruptStrip();
      }
      const char* table = stored.data();
      const char* codes = table + static_cast<size_t>(n) * width;
      plain->clear();
      plain->reserve(want);
      for (uint32_t i = 0; i < count; ++i) {
        const auto code = static_cast<uint8_t>(codes[i]);
        if (code >= n) return CorruptStrip();
        plain->append(table + static_cast<size_t>(code) * width, width);
      }
      return Status::OK();
    }
    case StripTag::kByteRle: {
      Result<std::string> decoded = rle::Decode(stored, want);
      if (!decoded.ok()) return decoded.status();
      if (decoded.value().size() != want) return CorruptStrip();
      *plain = std::move(decoded).MoveValueUnsafe();
      return Status::OK();
    }
  }
  return CorruptStrip();
}

/// Evaluates one comparison against a single stored value.
bool EvalValue(const Comparison& cmp, FieldType type, uint32_t width,
               const char* p) {
  switch (type) {
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
      size_t w = width;
      while (w > 0 && p[w - 1] == '\0') --w;
      return ApplyCompareOp<std::string_view>(cmp.op, std::string_view(p, w),
                                              std::string_view(cmp.string_value));
    }
  }
  return false;
}

/// ANDs one comparison's per-row outcome into \p mask, evaluating on the
/// compressed strip: once per run for RLE, once per distinct value for
/// dictionaries. Returns false on malformed strips.
bool AndCompareIntoMask(StripTag tag, Slice stored, const Comparison& cmp,
                        FieldType type, uint32_t width, uint32_t count,
                        uint8_t* mask) {
  switch (tag) {
    case StripTag::kPlain: {
      if (stored.size() != static_cast<size_t>(width) * count) return false;
      const char* p = stored.data();
      for (uint32_t i = 0; i < count; ++i, p += width) {
        if (mask[i] && !EvalValue(cmp, type, width, p)) mask[i] = 0;
      }
      return true;
    }
    case StripTag::kRleValues: {
      uint32_t pos = 0;
      while (pos < count) {
        uint32_t run;
        if (!GetVarint32(&stored, &run) || run == 0) return false;
        if (stored.size() < width || run > count - pos) return false;
        if (!EvalValue(cmp, type, width, stored.data())) {
          memset(mask + pos, 0, run);
        }
        stored.RemovePrefix(width);
        pos += run;
      }
      return stored.empty();
    }
    case StripTag::kDict: {
      uint32_t n;
      if (!GetVarint32(&stored, &n) || n > kMaxDictEntries) return false;
      if (stored.size() != static_cast<size_t>(n) * width + count) return false;
      bool match[256];
      for (uint32_t d = 0; d < n; ++d) {
        match[d] =
            EvalValue(cmp, type, width, stored.data() + static_cast<size_t>(d) * width);
      }
      const char* codes = stored.data() + static_cast<size_t>(n) * width;
      for (uint32_t i = 0; i < count; ++i) {
        const auto code = static_cast<uint8_t>(codes[i]);
        if (code >= n) return false;
        if (mask[i] && !match[code]) mask[i] = 0;
      }
      return true;
    }
    case StripTag::kByteRle: {
      std::string plain;
      if (!DecodeStrip(StripTag::kByteRle, stored, width, count, &plain).ok()) {
        return false;
      }
      return AndCompareIntoMask(StripTag::kPlain, Slice(plain), cmp, type,
                                width, count, mask);
    }
  }
  return false;
}

struct ParsedStrip {
  StripTag tag;
  Slice stored;
};

bool ParseStrips(Slice input, size_t num_strips,
                 std::vector<ParsedStrip>* strips) {
  strips->clear();
  strips->reserve(num_strips);
  for (size_t s = 0; s < num_strips; ++s) {
    if (input.empty()) return false;
    const auto tag = static_cast<uint8_t>(input[0]);
    if (tag > static_cast<uint8_t>(StripTag::kByteRle)) return false;
    input.RemovePrefix(1);
    Slice bytes;
    if (!GetLengthPrefixed(&input, &bytes)) return false;
    strips->push_back({static_cast<StripTag>(tag), bytes});
  }
  return input.empty();
}

}  // namespace

const char* PageFormatName(PageFormat format) {
  switch (format) {
    case PageFormat::kRaw:
      return "raw";
    case PageFormat::kColumnar:
      return "columnar";
    case PageFormat::kLz:
      return "lz";
  }
  return "unknown";
}

PageFormat EncodePage(const Schema& schema, const char* payload,
                      uint32_t count, std::string* encoded) {
  encoded->clear();
  if (count == 0) return PageFormat::kRaw;
  const uint32_t rs = schema.record_size();
  const size_t raw_size = static_cast<size_t>(rs) * count;

  std::string columnar;
  std::string strip;
  for (const StripSpec& spec : MakeStrips(schema)) {
    ExtractStrip(payload, count, rs, spec, &strip);
    EncodeStrip(strip, spec.width, count, &columnar);
    if (columnar.size() >= raw_size) break;  // already losing to raw
  }

  std::string lzbuf;
  lz::Compress(Slice(payload, raw_size), &lzbuf);

  PageFormat best = PageFormat::kRaw;
  size_t best_size = raw_size;
  if (columnar.size() < best_size) {
    best = PageFormat::kColumnar;
    best_size = columnar.size();
  }
  if (lzbuf.size() < best_size) {
    best = PageFormat::kLz;
  }
  if (best == PageFormat::kColumnar) {
    *encoded = std::move(columnar);
  } else if (best == PageFormat::kLz) {
    *encoded = std::move(lzbuf);
  }
  return best;
}

Status DecodePage(const Schema& schema, PageFormat format, Slice stored,
                  uint32_t count, std::string* payload) {
  const uint32_t rs = schema.record_size();
  const size_t want = static_cast<size_t>(rs) * count;
  switch (format) {
    case PageFormat::kRaw:
      if (stored.size() != want) {
        return Status::Corruption("raw page payload size mismatch");
      }
      payload->append(stored.data(), stored.size());
      return Status::OK();
    case PageFormat::kColumnar: {
      const std::vector<StripSpec> specs = MakeStrips(schema);
      std::vector<ParsedStrip> strips;
      if (!ParseStrips(stored, specs.size(), &strips)) {
        return Status::Corruption("bad columnar page framing");
      }
      const size_t base = payload->size();
      payload->resize(base + want);
      char* rows = payload->data() + base;
      std::string plain;
      for (size_t s = 0; s < specs.size(); ++s) {
        Status st = DecodeStrip(strips[s].tag, strips[s].stored,
                                specs[s].width, count, &plain);
        if (!st.ok()) return st;
        const char* src = plain.data();
        char* dst = rows + specs[s].offset;
        for (uint32_t i = 0; i < count; ++i) {
          memcpy(dst, src, specs[s].width);
          src += specs[s].width;
          dst += rs;
        }
      }
      return Status::OK();
    }
    case PageFormat::kLz: {
      Result<std::string> plain = lz::Decompress(stored, want);
      if (!plain.ok()) return plain.status();
      if (plain.value().size() != want) {
        return Status::Corruption("lz page payload size mismatch");
      }
      payload->append(plain.value());
      return Status::OK();
    }
  }
  return Status::Corruption("unknown page format");
}

uint64_t CountMatchesCompressed(const Schema& schema, PageFormat format,
                                Slice stored, uint32_t count,
                                const std::vector<Comparison>& cmps,
                                bool* exact) {
  *exact = false;
  if (format != PageFormat::kColumnar) return 0;
  const std::vector<StripSpec> specs = MakeStrips(schema);
  std::vector<ParsedStrip> strips;
  if (!ParseStrips(stored, specs.size(), &strips)) return 0;

  std::vector<uint8_t> mask(count, 1);
  // Exclude tombstones via the header strip (strip 0): a tombstoned
  // version can never be emitted, whatever the predicate says.
  {
    std::string headers;
    if (!DecodeStrip(strips[0].tag, strips[0].stored, 1, count, &headers)
             .ok()) {
      return 0;
    }
    for (uint32_t i = 0; i < count; ++i) {
      if (static_cast<uint8_t>(headers[i]) & kTombstoneFlag) mask[i] = 0;
    }
  }
  for (const Comparison& cmp : cmps) {
    if (cmp.column >= schema.num_columns()) return 0;
    const StripSpec& spec = specs[cmp.column + 1];
    if (!AndCompareIntoMask(strips[cmp.column + 1].tag,
                            strips[cmp.column + 1].stored, cmp,
                            schema.column(cmp.column).type, spec.width, count,
                            mask.data())) {
      return 0;
    }
  }
  uint64_t matches = 0;
  for (uint32_t i = 0; i < count; ++i) matches += mask[i];
  *exact = true;
  return matches;
}

}  // namespace columnar
}  // namespace decibel

#include "wal/manifest.h"

#include <cstdio>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/io.h"

namespace decibel {
namespace wal {

namespace {

constexpr uint32_t kManifestMagic = 0x46'4d'42'44;  // "DBMF"
constexpr uint32_t kManifestFormatVersion = 1;

}  // namespace

std::string CheckpointTag(uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06llu",
                static_cast<unsigned long long>(version));
  return buf;
}

std::string ManifestFilePath(const std::string& dir, uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%06llu",
                static_cast<unsigned long long>(version));
  return JoinPath(dir, buf);
}

std::string CurrentFilePath(const std::string& dir) {
  return JoinPath(dir, "CURRENT");
}

Status WriteManifest(const std::string& dir, const ManifestData& data,
                     bool sync) {
  std::string blob;
  PutFixed32(&blob, kManifestMagic);
  PutFixed32(&blob, kManifestFormatVersion);
  PutVarint64(&blob, data.version);
  PutLengthPrefixed(&blob, Slice(data.checkpoint_tag));
  PutVarint64(&blob, data.checkpoint_lsn);
  PutVarint64(&blob, data.next_lsn);
  PutVarint64(&blob, data.wal_start_seq);
  PutLengthPrefixed(&blob, Slice(data.schema));
  blob.push_back(static_cast<char>(data.engine));
  PutFixed32(&blob, MaskCrc(Crc32(blob)));

  const std::string path = ManifestFilePath(dir, data.version);
  DECIBEL_RETURN_NOT_OK(AtomicWriteFile(path, blob, sync));
  // CURRENT is the commit point of a checkpoint: until the rename lands,
  // recovery keeps using the previous generation.
  std::string current = "MANIFEST-";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06llu\n",
                static_cast<unsigned long long>(data.version));
  current += buf;
  return AtomicWriteFile(CurrentFilePath(dir), current, sync);
}

Result<ManifestData> ReadManifestFile(const std::string& path) {
  DECIBEL_ASSIGN_OR_RETURN(std::string blob, ReadFileToString(path));
  if (blob.size() < 13) {
    return Status::Corruption("manifest truncated: " + path);
  }
  const uint32_t stored =
      UnmaskCrc(DecodeFixed32(blob.data() + blob.size() - 4));
  const Slice checked(blob.data(), blob.size() - 4);
  if (Crc32(checked) != stored) {
    return Status::Corruption("manifest checksum mismatch: " + path);
  }
  Slice in = checked;
  uint32_t magic = 0, format = 0;
  if (!GetFixed32(&in, &magic) || magic != kManifestMagic ||
      !GetFixed32(&in, &format) || format != kManifestFormatVersion) {
    return Status::Corruption("manifest bad magic/version: " + path);
  }
  ManifestData out;
  Slice tag, schema;
  if (!GetVarint64(&in, &out.version) || !GetLengthPrefixed(&in, &tag) ||
      !GetVarint64(&in, &out.checkpoint_lsn) ||
      !GetVarint64(&in, &out.next_lsn) ||
      !GetVarint64(&in, &out.wal_start_seq) ||
      !GetLengthPrefixed(&in, &schema) || in.size() != 1) {
    return Status::Corruption("manifest malformed: " + path);
  }
  out.checkpoint_tag = tag.ToString();
  out.schema = schema.ToString();
  out.engine = static_cast<EngineType>(in[0]);
  return out;
}

Result<ManifestData> ReadCurrentManifest(const std::string& dir) {
  // First choice: the generation CURRENT names.
  if (FileExists(CurrentFilePath(dir))) {
    auto current = ReadFileToString(CurrentFilePath(dir));
    if (current.ok()) {
      std::string name = *current;
      while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
        name.pop_back();
      }
      if (!name.empty()) {
        auto m = ReadManifestFile(JoinPath(dir, name));
        if (m.ok()) return m;
      }
    }
  }
  // Fallback: the highest readable MANIFEST-* (the previous generation is
  // retained exactly for this; its longer WAL suffix is too).
  auto listing = ListDir(dir);
  if (!listing.ok()) return listing.status();
  std::string best_path;
  uint64_t best_version = 0;
  bool any_manifest = false;
  for (const std::string& name : *listing) {
    if (name.rfind("MANIFEST-", 0) != 0) continue;
    // MANIFEST-<v>.tmp is a replacement cut short before its rename; only
    // a published manifest proves a database lives here.
    any_manifest = any_manifest || name.find('.') == std::string::npos;
    const uint64_t v = std::strtoull(name.c_str() + 9, nullptr, 10);
    if (v < best_version) continue;
    auto m = ReadManifestFile(JoinPath(dir, name));
    if (!m.ok()) continue;
    best_version = v;
    best_path = JoinPath(dir, name);
  }
  if (best_path.empty()) {
    // A database whose manifests all fail to read is damaged, not absent:
    // NotFound would let Open initialize fresh over its data files.
    if (any_manifest || FileExists(CurrentFilePath(dir))) {
      return Status::Corruption("no readable manifest in " + dir);
    }
    return Status::NotFound("no manifest in " + dir);
  }
  return ReadManifestFile(best_path);
}

}  // namespace wal
}  // namespace decibel

#ifndef DECIBEL_WAL_MANIFEST_H_
#define DECIBEL_WAL_MANIFEST_H_

/// \file manifest.h
/// The versioned manifest: one small CRC-protected file per checkpoint
/// (MANIFEST-<version>) plus a CURRENT pointer, both replaced atomically
/// (write-temp-then-rename, common/io.h). A manifest pins everything a
/// cold Open needs:
///
///  - the engine checkpoint tag (engine metas + heap manifests written by
///    StorageEngine::Checkpoint) the data files roll back to,
///  - the WAL position of that checkpoint (checkpoint_lsn — replay
///    everything after it) and the first live WAL segment,
///  - the schema and engine type, so Decibel::Open(path, options)
///    can reopen a database it has never seen.
///
/// Two generations are retained: if the manifest CURRENT points at is
/// unreadable (crash while replacing it, bit rot caught by the CRC),
/// ReadCurrentManifest falls back to the highest readable MANIFEST-* and
/// recovery replays the — still retained — longer WAL suffix instead.

#include <cstdint>
#include <string>

#include "common/result.h"
#include "engine/engine.h"

namespace decibel {
namespace wal {

struct ManifestData {
  /// Monotonic manifest/checkpoint generation; names both the file
  /// (MANIFEST-<version>) and the engine checkpoint tag.
  uint64_t version = 0;
  /// Engine checkpoint tag the data files restore to ("ckpt-<version>").
  std::string checkpoint_tag;
  /// WAL records with lsn > checkpoint_lsn are not in the checkpoint and
  /// must be replayed.
  uint64_t checkpoint_lsn = 0;
  /// First unassigned lsn when the manifest was written.
  uint64_t next_lsn = 1;
  /// First WAL segment holding records past checkpoint_lsn; recovery
  /// replays every on-disk segment >= this, in order.
  uint64_t wal_start_seq = 1;
  /// The database schema (Schema::EncodeTo bytes).
  std::string schema;
  EngineType engine = EngineType::kHybrid;
};

/// "ckpt-<version>", the engine checkpoint tag of manifest \p version.
std::string CheckpointTag(uint64_t version);
/// "<dir>/MANIFEST-<version 6-digit>".
std::string ManifestFilePath(const std::string& dir, uint64_t version);
/// "<dir>/CURRENT".
std::string CurrentFilePath(const std::string& dir);

/// Writes MANIFEST-<data.version> and repoints CURRENT at it, each via an
/// atomic replace (fsynced when \p sync).
Status WriteManifest(const std::string& dir, const ManifestData& data,
                     bool sync);

/// Loads the manifest CURRENT names; when CURRENT is missing or that
/// manifest is unreadable/corrupt, falls back to the highest readable
/// MANIFEST-* in \p dir. NotFound when \p dir holds neither CURRENT nor
/// any MANIFEST-* (no database yet); Corruption when it holds some but
/// none reads.
Result<ManifestData> ReadCurrentManifest(const std::string& dir);

/// Decodes one manifest file (exposed for tests).
Result<ManifestData> ReadManifestFile(const std::string& path);

}  // namespace wal
}  // namespace decibel

#endif  // DECIBEL_WAL_MANIFEST_H_

#ifndef DECIBEL_COMMON_IO_H_
#define DECIBEL_COMMON_IO_H_

/// \file io.h
/// Thin Status-returning wrappers over POSIX file I/O, plus directory
/// helpers. All Decibel on-disk structures (heap files, segment files,
/// commit histories, the git-like object store) go through this layer so
/// I/O failures surface uniformly.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace decibel {

/// An append-only file handle with buffered writes. Every write lands at
/// an explicit offset (pwrite at the logical end), so appends fill a
/// zero-extended region in place and a retried Flush rewrites the same
/// bytes instead of appending a second copy after a partial write.
class WritableFile {
 public:
  ~WritableFile();
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;
  WritableFile(WritableFile&& other) noexcept;

  /// Opens \p path for appending, creating it if needed. If \p truncate,
  /// existing contents are discarded.
  static Result<WritableFile> Open(const std::string& path,
                                   bool truncate = false);

  Status Append(Slice data);
  Status Flush();
  Status Sync();
  /// fdatasyncs the descriptor without touching the write buffer; any
  /// bytes still buffered when this runs are NOT covered.
  Status SyncData();
  /// Writes \p bytes zeros past the file's current end. Appends then
  /// overwrite already-allocated blocks without growing the file, so an
  /// fdatasync of them has no inode size to persist. Real writes, not
  /// fallocate: an unwritten extent's first write is a metadata update.
  Status ExtendZeroed(uint64_t bytes);
  /// Flushes, then truncates any zero-extended region away so the file
  /// ends at Size().
  Status Trim();
  Status Close();

  /// Size including unflushed buffered bytes.
  uint64_t Size() const { return size_; }
  /// The file's length on disk: the flushed bytes plus any zero-extended
  /// region past them.
  uint64_t zeroed_end() const { return end_; }
  const std::string& path() const { return path_; }

 private:
  WritableFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size), end_(size) {}
  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
  uint64_t end_ = 0;
  std::string buffer_;
};

/// A positional-read file handle (pread; safe for concurrent readers).
class RandomAccessFile {
 public:
  ~RandomAccessFile();
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;
  RandomAccessFile(RandomAccessFile&& other) noexcept;

  static Result<RandomAccessFile> Open(const std::string& path);

  /// Reads exactly \p n bytes at \p offset into \p scratch. Fails with
  /// IOError on short reads (reading past EOF is a caller bug surfaced as
  /// an error, not silently truncated data).
  Status Read(uint64_t offset, size_t n, std::string* scratch) const;
  /// Same, into caller memory \p dst of at least \p n bytes.
  Status Read(uint64_t offset, size_t n, char* dst) const;

  uint64_t Size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  RandomAccessFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size) {}
  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
};

/// A positional-write file handle (pwrite). Heap files use this to rewrite
/// their partial tail page in place while sealed pages stay immutable.
class RandomWriteFile {
 public:
  ~RandomWriteFile();
  RandomWriteFile(const RandomWriteFile&) = delete;
  RandomWriteFile& operator=(const RandomWriteFile&) = delete;
  RandomWriteFile(RandomWriteFile&& other) noexcept;

  /// Opens \p path for positional writes, creating it if needed.
  static Result<RandomWriteFile> Open(const std::string& path);

  /// Writes all of \p data at \p offset.
  Status WriteAt(uint64_t offset, Slice data);
  /// Truncates the file to exactly \p size bytes (grow or shrink).
  Status Truncate(uint64_t size);
  Status Sync();
  Status Close();

  const std::string& path() const { return path_; }

 private:
  RandomWriteFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;
};

/// Filesystem helpers. Paths are ordinary POSIX paths.
Status CreateDir(const std::string& path);        ///< mkdir -p semantics.
Status RemoveDirRecursive(const std::string& path);
Status RemoveFile(const std::string& path);
bool FileExists(const std::string& path);
Result<uint64_t> FileSize(const std::string& path);
Result<std::vector<std::string>> ListDir(const std::string& path);
/// Total bytes under \p path (recursive). Missing path -> 0.
uint64_t DirSizeBytes(const std::string& path);

Status WriteStringToFile(const std::string& path, Slice data);
Result<std::string> ReadFileToString(const std::string& path);

/// fsyncs the directory at \p path so entries created or renamed inside
/// it survive a power loss. A file's own fsync does not persist its
/// directory entry; every crash-safe create/rename must be followed by a
/// SyncDir of the parent.
Status SyncDir(const std::string& path);

/// Truncates the file at \p path to exactly \p size bytes.
Status TruncateFile(const std::string& path, uint64_t size);

/// Renames \p from to \p to. If \p sync, fsyncs the destination's parent
/// directory afterwards so the rename is durable.
Status RenameFile(const std::string& from, const std::string& to,
                  bool sync = false);

/// Atomically replaces the contents of \p path: writes \p data to a
/// temporary sibling, then renames it over \p path. Readers see either
/// the old contents or the new, never a torn mix. If \p sync, the data
/// is fsynced before the rename and the parent directory after it, so
/// the replacement also survives power loss.
Status AtomicWriteFile(const std::string& path, Slice data, bool sync = false);

/// Joins two path components with exactly one separator.
std::string JoinPath(const std::string& a, const std::string& b);

/// Everything before the final separator ("." when there is none).
std::string ParentDir(const std::string& path);

}  // namespace decibel

#endif  // DECIBEL_COMMON_IO_H_

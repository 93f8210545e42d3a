#include "common/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace decibel {

namespace {

constexpr size_t kWriteBufferSize = 1 << 20;  // 1 MiB

Status ErrnoStatus(const std::string& context) {
  return Status::IOError(context + ": " + std::strerror(errno));
}

/// pwrites all of [p, p + n) at \p offset.
Status PwriteAll(int fd, const std::string& path, uint64_t offset,
                 const char* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite " + path);
    }
    p += w;
    n -= static_cast<size_t>(w);
    offset += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- Writable

WritableFile::~WritableFile() {
  if (fd_ >= 0) {
    Close().ok();  // best effort on destruction
  }
}

WritableFile::WritableFile(WritableFile&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      size_(other.size_),
      end_(other.end_),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Result<WritableFile> WritableFile::Open(const std::string& path,
                                        bool truncate) {
  int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  uint64_t size = 0;
  if (!truncate) {
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return ErrnoStatus("fstat " + path);
    }
    size = static_cast<uint64_t>(st.st_size);
  }
  WritableFile f(fd, path, size);
  f.buffer_.reserve(kWriteBufferSize);
  return f;
}

Status WritableFile::Append(Slice data) {
  if (buffer_.size() + data.size() > kWriteBufferSize) {
    DECIBEL_RETURN_NOT_OK(Flush());
    if (data.size() >= kWriteBufferSize) {
      // Large write: bypass the buffer.
      DECIBEL_RETURN_NOT_OK(PwriteAll(fd_, path_, size_, data.data(),
                                      data.size()));
      size_ += data.size();
      end_ = std::max(end_, size_);
      return Status::OK();
    }
  }
  buffer_.append(data.data(), data.size());
  size_ += data.size();
  return Status::OK();
}

Status WritableFile::Flush() {
  if (buffer_.empty()) return Status::OK();
  DECIBEL_RETURN_NOT_OK(PwriteAll(fd_, path_, size_ - buffer_.size(),
                                  buffer_.data(), buffer_.size()));
  buffer_.clear();
  end_ = std::max(end_, size_);
  return Status::OK();
}

Status WritableFile::Sync() {
  DECIBEL_RETURN_NOT_OK(Flush());
  return SyncData();
}

Status WritableFile::SyncData() {
  if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_);
  return Status::OK();
}

Status WritableFile::ExtendZeroed(uint64_t bytes) {
  static const char kZeros[64 << 10] = {};
  const uint64_t start = std::max(end_, size_);
  for (uint64_t done = 0; done < bytes;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(sizeof(kZeros), bytes - done));
    DECIBEL_RETURN_NOT_OK(PwriteAll(fd_, path_, start + done, kZeros, n));
    done += n;
  }
  end_ = start + bytes;
  return Status::OK();
}

Status WritableFile::Trim() {
  DECIBEL_RETURN_NOT_OK(Flush());
  if (end_ == size_) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
    return ErrnoStatus("ftruncate " + path_);
  }
  end_ = size_;
  return Status::OK();
}

Status WritableFile::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Flush();
  if (::close(fd_) != 0 && s.ok()) s = ErrnoStatus("close " + path_);
  fd_ = -1;
  return s;
}

// ------------------------------------------------------------ RandomAccess

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) ::close(fd_);
}

RandomAccessFile::RandomAccessFile(RandomAccessFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)), size_(other.size_) {
  other.fd_ = -1;
}

Result<RandomAccessFile> RandomAccessFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ErrnoStatus("fstat " + path);
  }
  return RandomAccessFile(fd, path, static_cast<uint64_t>(st.st_size));
}

Status RandomAccessFile::Read(uint64_t offset, size_t n,
                              std::string* scratch) const {
  scratch->resize(n);
  return Read(offset, n, scratch->data());
}

Status RandomAccessFile::Read(uint64_t offset, size_t n, char* dst) const {
  char* p = dst;
  size_t left = n;
  uint64_t off = offset;
  while (left > 0) {
    ssize_t r = ::pread(fd_, p, left, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread " + path_);
    }
    if (r == 0) {
      return Status::IOError("short read at offset " + std::to_string(offset) +
                             " in " + path_);
    }
    p += r;
    left -= static_cast<size_t>(r);
    off += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

// ------------------------------------------------------------ RandomWrite

RandomWriteFile::~RandomWriteFile() {
  if (fd_ >= 0) ::close(fd_);
}

RandomWriteFile::RandomWriteFile(RandomWriteFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

Result<RandomWriteFile> RandomWriteFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  return RandomWriteFile(fd, path);
}

Status RandomWriteFile::WriteAt(uint64_t offset, Slice data) {
  return PwriteAll(fd_, path_, offset, data.data(), data.size());
}

Status RandomWriteFile::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("ftruncate " + path_);
  }
  return Status::OK();
}

Status RandomWriteFile::Sync() {
  if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_);
  return Status::OK();
}

Status RandomWriteFile::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Status::OK();
  if (::close(fd_) != 0) s = ErrnoStatus("close " + path_);
  fd_ = -1;
  return s;
}

// ------------------------------------------------------------- filesystem

Status CreateDir(const std::string& path) {
  std::string partial;
  size_t pos = 0;
  while (pos < path.size()) {
    size_t next = path.find('/', pos + 1);
    partial = path.substr(0, next == std::string::npos ? path.size() : next);
    if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return ErrnoStatus("mkdir " + partial);
    }
    if (next == std::string::npos) break;
    pos = next;
  }
  return Status::OK();
}

Status RemoveDirRecursive(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return ErrnoStatus("opendir " + path);
  }
  Status result = Status::OK();
  struct dirent* entry;
  while ((entry = ::readdir(dir)) != nullptr) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = JoinPath(path, name);
    struct stat st;
    if (::lstat(child.c_str(), &st) != 0) {
      result = ErrnoStatus("lstat " + child);
      break;
    }
    Status s = S_ISDIR(st.st_mode) ? RemoveDirRecursive(child)
                                   : RemoveFile(child);
    if (!s.ok()) {
      result = s;
      break;
    }
  }
  ::closedir(dir);
  DECIBEL_RETURN_NOT_OK(result);
  if (::rmdir(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("rmdir " + path);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink " + path);
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat " + path);
  return static_cast<uint64_t>(st.st_size);
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return ErrnoStatus("opendir " + path);
  std::vector<std::string> names;
  struct dirent* entry;
  while ((entry = ::readdir(dir)) != nullptr) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  return names;
}

uint64_t DirSizeBytes(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return 0;
  uint64_t total = 0;
  struct dirent* entry;
  while ((entry = ::readdir(dir)) != nullptr) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = JoinPath(path, name);
    struct stat st;
    if (::lstat(child.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      total += DirSizeBytes(child);
    } else {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  ::closedir(dir);
  return total;
}

Status WriteStringToFile(const std::string& path, Slice data) {
  DECIBEL_ASSIGN_OR_RETURN(WritableFile f, WritableFile::Open(path, true));
  DECIBEL_RETURN_NOT_OK(f.Append(data));
  return f.Close();
}

Result<std::string> ReadFileToString(const std::string& path) {
  DECIBEL_ASSIGN_OR_RETURN(RandomAccessFile f, RandomAccessFile::Open(path));
  std::string out;
  if (f.Size() > 0) {
    DECIBEL_RETURN_NOT_OK(f.Read(0, f.Size(), &out));
  }
  return out;
}

Status SyncDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir " + path);
  Status s = Status::OK();
  if (::fsync(fd) != 0) s = ErrnoStatus("fsync dir " + path);
  ::close(fd);
  return s;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("truncate " + path);
  }
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to, bool sync) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename " + from + " -> " + to);
  }
  if (sync) return SyncDir(ParentDir(to));
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, Slice data, bool sync) {
  const std::string tmp = path + ".tmp";
  {
    DECIBEL_ASSIGN_OR_RETURN(WritableFile f, WritableFile::Open(tmp, true));
    DECIBEL_RETURN_NOT_OK(f.Append(data));
    if (sync) DECIBEL_RETURN_NOT_OK(f.Sync());
    DECIBEL_RETURN_NOT_OK(f.Close());
  }
  return RenameFile(tmp, path, sync);
}

std::string JoinPath(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.back() == '/') return a + b;
  return a + "/" + b;
}

std::string ParentDir(const std::string& path) {
  const size_t pos = path.find_last_of('/');
  if (pos == std::string::npos) return ".";
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

}  // namespace decibel

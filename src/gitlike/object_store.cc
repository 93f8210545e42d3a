#include "gitlike/object_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/io.h"
#include "common/lz.h"
#include "common/stopwatch.h"
#include "gitlike/delta.h"
#include "gitlike/sha1.h"

namespace decibel {
namespace gitlike {

namespace {

/// Objects are stored without their size, as git's loose objects are
/// zlib streams without one; the baseline reads only objects it wrote.
constexpr uint64_t kNoSizeLimit = UINT64_MAX;

const char* TypeName(ObjectType type) {
  switch (type) {
    case ObjectType::kBlob:
      return "blob";
    case ObjectType::kTree:
      return "tree";
    case ObjectType::kCommit:
      return "commit";
  }
  return "unknown";
}

/// git frames every object as "<type> <size>\0<payload>" before hashing
/// and compression.
std::string Frame(ObjectType type, Slice payload) {
  std::string frame = TypeName(type);
  frame += ' ';
  frame += std::to_string(payload.size());
  frame += '\0';
  frame.append(payload.data(), payload.size());
  return frame;
}

Result<std::pair<ObjectType, std::string>> ParseFrame(Slice frame) {
  const char* nul =
      static_cast<const char*>(memchr(frame.data(), '\0', frame.size()));
  if (nul == nullptr) {
    return Status::Corruption("gitlike: frame missing header");
  }
  const std::string header(frame.data(), nul - frame.data());
  const size_t space = header.find(' ');
  if (space == std::string::npos) {
    return Status::Corruption("gitlike: malformed frame header");
  }
  const std::string type_name = header.substr(0, space);
  ObjectType type;
  if (type_name == "blob") {
    type = ObjectType::kBlob;
  } else if (type_name == "tree") {
    type = ObjectType::kTree;
  } else if (type_name == "commit") {
    type = ObjectType::kCommit;
  } else {
    return Status::Corruption("gitlike: unknown object type " + type_name);
  }
  const size_t payload_offset = (nul - frame.data()) + 1;
  return std::make_pair(
      type, std::string(frame.data() + payload_offset,
                        frame.size() - payload_offset));
}

}  // namespace

Result<ObjectStore> ObjectStore::Open(const std::string& directory) {
  ObjectStore store(directory);
  DECIBEL_RETURN_NOT_OK(CreateDir(JoinPath(directory, "objects")));
  // Index loose objects.
  auto fans = ListDir(JoinPath(directory, "objects"));
  if (fans.ok()) {
    for (const std::string& fan : *fans) {
      if (fan.size() != 2) continue;
      auto files = ListDir(JoinPath(JoinPath(directory, "objects"), fan));
      if (!files.ok()) continue;
      for (const std::string& rest : *files) {
        Entry entry;
        entry.packed = false;
        store.index_[fan + rest] = entry;
      }
    }
  }
  // Index the packfile, if any.
  const std::string idx_path = JoinPath(directory, "pack.idx");
  if (FileExists(idx_path)) {
    DECIBEL_ASSIGN_OR_RETURN(std::string idx, ReadFileToString(idx_path));
    Slice input(idx);
    uint64_t count;
    if (!GetVarint64(&input, &count)) {
      return Status::Corruption("gitlike: bad pack index");
    }
    for (uint64_t i = 0; i < count; ++i) {
      Slice id, base;
      uint64_t offset, length;
      if (!GetLengthPrefixed(&input, &id) || !GetVarint64(&input, &offset) ||
          !GetVarint64(&input, &length) ||
          !GetLengthPrefixed(&input, &base)) {
        return Status::Corruption("gitlike: truncated pack index");
      }
      Entry entry;
      entry.packed = true;
      entry.offset = offset;
      entry.length = static_cast<uint32_t>(length);
      entry.delta_base = base.ToString();
      store.index_[id.ToString()] = entry;
    }
  }
  return store;
}

std::string ObjectStore::LoosePath(const std::string& id) const {
  return JoinPath(JoinPath(JoinPath(directory_, "objects"), id.substr(0, 2)),
                  id.substr(2));
}

std::string ObjectStore::PackPath() const {
  return JoinPath(directory_, "pack.data");
}

Result<std::string> ObjectStore::Put(ObjectType type, Slice payload) {
  const std::string frame = Frame(type, payload);
  const std::string id = Sha1Hex(frame);  // hashing cost on every write
  if (index_.count(id) != 0) return id;   // dedup: unchanged content free
  std::string compressed;
  lz::Compress(frame, &compressed);       // compression cost, like zlib
  DECIBEL_RETURN_NOT_OK(
      CreateDir(JoinPath(JoinPath(directory_, "objects"), id.substr(0, 2))));
  DECIBEL_RETURN_NOT_OK(WriteStringToFile(LoosePath(id), compressed));
  Entry entry;
  entry.packed = false;
  index_[id] = entry;
  return id;
}

Result<std::string> ObjectStore::Load(const std::string& id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("gitlike: no object " + id);
  }
  if (!it->second.packed) {
    DECIBEL_ASSIGN_OR_RETURN(std::string compressed,
                             ReadFileToString(LoosePath(id)));
    return lz::Decompress(compressed, kNoSizeLimit);
  }
  DECIBEL_ASSIGN_OR_RETURN(RandomAccessFile pack,
                           RandomAccessFile::Open(PackPath()));
  std::string compressed;
  DECIBEL_RETURN_NOT_OK(
      pack.Read(it->second.offset, it->second.length, &compressed));
  DECIBEL_ASSIGN_OR_RETURN(std::string data,
                           lz::Decompress(compressed, kNoSizeLimit));
  if (!it->second.delta_base.empty()) {
    DECIBEL_ASSIGN_OR_RETURN(std::string base, Load(it->second.delta_base));
    return ApplyDelta(base, data);
  }
  return data;
}

Result<std::string> ObjectStore::Get(ObjectType type, const std::string& id) {
  DECIBEL_ASSIGN_OR_RETURN(std::string frame, Load(id));
  DECIBEL_ASSIGN_OR_RETURN(auto parsed, ParseFrame(frame));
  if (parsed.first != type) {
    return Status::InvalidArgument("gitlike: object " + id + " is a " +
                                   TypeName(parsed.first) + ", wanted " +
                                   TypeName(type));
  }
  return std::move(parsed.second);
}

bool ObjectStore::Contains(const std::string& id) const {
  return index_.count(id) != 0;
}

Result<double> ObjectStore::Repack(int window) {
  Stopwatch timer;
  // Load every object (loose and previously packed) into memory, largest
  // first — git sorts its delta window similarly.
  std::vector<std::pair<std::string, std::string>> objects;  // id -> frame
  objects.reserve(index_.size());
  for (const auto& [id, entry] : index_) {
    DECIBEL_ASSIGN_OR_RETURN(std::string frame, Load(id));
    objects.emplace_back(id, std::move(frame));
  }
  std::sort(objects.begin(), objects.end(), [](const auto& a, const auto& b) {
    return a.second.size() != b.second.size()
               ? a.second.size() > b.second.size()
               : a.first < b.first;
  });

  DECIBEL_ASSIGN_OR_RETURN(WritableFile pack,
                           WritableFile::Open(PackPath(), /*truncate=*/true));
  std::unordered_map<std::string, Entry> new_index;
  std::vector<size_t> recent;  // indexes into `objects` of the delta window

  for (size_t i = 0; i < objects.size(); ++i) {
    const auto& [id, frame] = objects[i];
    // Exhaustive delta search over the window (the slow part, §5.7).
    std::string best_payload;
    lz::Compress(frame, &best_payload);
    std::string best_base;
    for (size_t r : recent) {
      const std::string delta = ComputeDelta(objects[r].second, frame);
      std::string compressed;
      lz::Compress(delta, &compressed);
      if (compressed.size() < best_payload.size()) {
        best_payload = std::move(compressed);
        best_base = objects[r].first;
      }
    }
    Entry entry;
    entry.packed = true;
    entry.offset = pack.Size();
    entry.length = static_cast<uint32_t>(best_payload.size());
    entry.delta_base = best_base;
    DECIBEL_RETURN_NOT_OK(pack.Append(best_payload));
    new_index[id] = entry;

    // Only whole objects join the window (depth-1 delta chains keep reads
    // simple; git bounds depth too).
    if (best_base.empty()) {
      recent.push_back(i);
      if (recent.size() > static_cast<size_t>(window)) {
        recent.erase(recent.begin());
      }
    }
  }
  DECIBEL_RETURN_NOT_OK(pack.Close());

  // Persist the index.
  std::string idx;
  PutVarint64(&idx, new_index.size());
  for (const auto& [id, entry] : new_index) {
    PutLengthPrefixed(&idx, id);
    PutVarint64(&idx, entry.offset);
    PutVarint64(&idx, entry.length);
    PutLengthPrefixed(&idx, entry.delta_base);
  }
  DECIBEL_RETURN_NOT_OK(WriteStringToFile(JoinPath(directory_, "pack.idx"),
                                          idx));

  // Drop the loose objects the pack replaces.
  for (const auto& [id, entry] : index_) {
    if (!entry.packed) {
      DECIBEL_RETURN_NOT_OK(RemoveFile(LoosePath(id)));
    }
  }
  index_ = std::move(new_index);
  return timer.ElapsedSeconds();
}

uint64_t ObjectStore::SizeBytes() const { return DirSizeBytes(directory_); }

}  // namespace gitlike
}  // namespace decibel

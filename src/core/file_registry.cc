#include "src/core/file_registry.h"

#include "src/vfs/path.h"

namespace hac {

DocId FileRegistry::NewRecord(InodeId inode, const std::string& path) {
  DocId id = static_cast<DocId>(records_.size());
  FileRecord rec;
  rec.id = id;
  rec.inode = inode;
  rec.path = path;
  rec.alive = true;
  rec.dirty = true;
  records_.push_back(std::move(rec));
  by_path_.emplace(path, id);
  by_inode_.emplace(inode, id);
  IndexUnder(path, id);
  universe_.Set(id);
  return id;
}

void FileRegistry::IndexUnder(const std::string& path, DocId id) {
  by_dir_[DirName(path)].Insert(id);
}

void FileRegistry::UnindexUnder(const std::string& path, DocId id) {
  auto it = by_dir_.find(DirName(path));
  if (it == by_dir_.end()) {
    return;
  }
  it->second.Erase(id);
  if (it->second.Empty()) {
    by_dir_.erase(it);
  }
}

Result<DocId> FileRegistry::Add(InodeId inode, const std::string& path) {
  if (by_path_.count(path) != 0) {
    return Error(ErrorCode::kAlreadyExists, path);
  }
  return NewRecord(inode, path);
}

Result<DocId> FileRegistry::AddRemote(InodeId inode, const std::string& path,
                                      const std::string& remote_key) {
  auto it = by_remote_key_.find(remote_key);
  if (it != by_remote_key_.end()) {
    return it->second;
  }
  if (by_path_.count(path) != 0) {
    return Error(ErrorCode::kAlreadyExists, path);
  }
  DocId id = NewRecord(inode, path);
  records_[id].remote = true;
  records_[id].remote_key = remote_key;
  by_remote_key_.emplace(remote_key, id);
  return id;
}

Result<DocId> FileRegistry::FindByPath(const std::string& path) const {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) {
    return Error(ErrorCode::kNotFound, "unregistered file: " + path);
  }
  return it->second;
}

Result<DocId> FileRegistry::FindByInode(InodeId inode) const {
  auto it = by_inode_.find(inode);
  if (it == by_inode_.end()) {
    return Error(ErrorCode::kNotFound, "unregistered inode " + std::to_string(inode));
  }
  return it->second;
}

Result<DocId> FileRegistry::FindRemote(const std::string& remote_key) const {
  auto it = by_remote_key_.find(remote_key);
  if (it == by_remote_key_.end()) {
    return Error(ErrorCode::kNotFound, "remote key " + remote_key);
  }
  return it->second;
}

const FileRecord* FileRegistry::Get(DocId id) const {
  if (id >= records_.size()) {
    return nullptr;
  }
  return &records_[id];
}

Result<void> FileRegistry::Deactivate(DocId id) {
  if (id >= records_.size() || !records_[id].alive) {
    return Error(ErrorCode::kNotFound, "doc " + std::to_string(id));
  }
  FileRecord& rec = records_[id];
  rec.alive = false;
  rec.dirty = true;  // must be purged from the index
  by_path_.erase(rec.path);
  by_inode_.erase(rec.inode);
  UnindexUnder(rec.path, id);
  universe_.Clear(id);
  return OkResult();
}

Result<void> FileRegistry::MarkDirty(DocId id) {
  if (id >= records_.size()) {
    return Error(ErrorCode::kNotFound, "doc " + std::to_string(id));
  }
  records_[id].dirty = true;
  return OkResult();
}

Result<void> FileRegistry::SetPath(DocId id, const std::string& path) {
  if (id >= records_.size() || !records_[id].alive) {
    return Error(ErrorCode::kNotFound, "doc " + std::to_string(id));
  }
  FileRecord& rec = records_[id];
  by_path_.erase(rec.path);
  UnindexUnder(rec.path, id);
  rec.path = path;
  by_path_.emplace(path, id);
  IndexUnder(path, id);
  return OkResult();
}

void FileRegistry::RenameSubtree(const std::string& from, const std::string& to) {
  // Detach the moved directories' entries (`from` itself, then every key under
  // `from/`), rebase their records, and re-key them.
  std::vector<DirIndex::node_type> moved;
  if (auto it = by_dir_.find(from); it != by_dir_.end()) {
    moved.push_back(by_dir_.extract(it));
  }
  const std::string prefix = from == "/" ? from : from + "/";
  for (auto it = by_dir_.lower_bound(prefix);
       it != by_dir_.end() && it->first.starts_with(prefix);) {
    moved.push_back(by_dir_.extract(it++));
  }
  for (DirIndex::node_type& node : moved) {
    for (DocId id : node.mapped()) {
      FileRecord& rec = records_[id];
      by_path_.erase(rec.path);
      rec.path = RebasePath(rec.path, from, to);
      by_path_.emplace(rec.path, id);
    }
    node.key() = RebasePath(node.key(), from, to);
    auto ins = by_dir_.insert(std::move(node));
    if (!ins.inserted) {
      ins.position->second = ins.position->second.Union(ins.node.mapped());
    }
  }
}

Bitmap FileRegistry::FilesWithin(const std::string& dir) const {
  if (dir == "/") {
    return universe_;
  }
  // `dir`'s own files, then the key range of its subdirectories. Keys such as
  // "dir-x" or "dir.x" sort between the two and belong to siblings.
  Bitmap out;
  auto add = [&out](const IdSet& ids) {
    for (DocId id : ids) {
      out.Set(id);
    }
  };
  if (auto it = by_dir_.find(dir); it != by_dir_.end()) {
    add(it->second);
  }
  const std::string prefix = dir + "/";
  for (auto it = by_dir_.lower_bound(prefix);
       it != by_dir_.end() && it->first.starts_with(prefix); ++it) {
    add(it->second);
  }
  return out;
}

Bitmap FileRegistry::DirectChildrenOf(const std::string& dir) const {
  auto it = by_dir_.find(dir);
  return it == by_dir_.end() ? Bitmap() : it->second.ToBitmap();
}

std::vector<DocId> FileRegistry::DirtyDocs() const {
  std::vector<DocId> out;
  for (const FileRecord& rec : records_) {
    if (rec.dirty) {
      out.push_back(rec.id);
    }
  }
  return out;
}

void FileRegistry::ClearDirty(DocId id) {
  if (id < records_.size()) {
    records_[id].dirty = false;
  }
}

Result<void> FileRegistry::RestoreRecord(const FileRecord& rec) {
  if (rec.id != records_.size()) {
    return Error(ErrorCode::kCorrupt,
                 "registry record out of order: " + std::to_string(rec.id));
  }
  records_.push_back(rec);
  if (rec.alive) {
    if (by_path_.count(rec.path) != 0 || by_inode_.count(rec.inode) != 0) {
      return Error(ErrorCode::kCorrupt, "duplicate live record: " + rec.path);
    }
    by_path_.emplace(rec.path, rec.id);
    by_inode_.emplace(rec.inode, rec.id);
    IndexUnder(rec.path, rec.id);
    universe_.Set(rec.id);
  }
  if (!rec.remote_key.empty()) {
    by_remote_key_.emplace(rec.remote_key, rec.id);
  }
  return OkResult();
}

size_t FileRegistry::SizeBytes() const {
  size_t total = records_.capacity() * sizeof(FileRecord) + universe_.SizeBytes();
  for (const FileRecord& rec : records_) {
    total += rec.path.size() + rec.remote_key.size();
  }
  total += by_path_.size() * 64 + by_inode_.size() * 48 + by_remote_key_.size() * 64;
  for (const auto& [dir, ids] : by_dir_) {
    total += 64 + dir.size() + ids.SizeBytes();
  }
  return total;
}

}  // namespace hac

#include "src/vfs/file_system.h"

#include <algorithm>
#include <cstring>

#include "src/vfs/path.h"

namespace hac {
namespace {

constexpr int kMaxSymlinkDepth = 40;

}  // namespace

FileSystem::FileSystem() {
  root_ = NewInode(NodeType::kDirectory);
  Node(root_).parent = root_;
}

InodeId FileSystem::NewInode(NodeType type) {
  InodeId id = next_id_++;
  Inode node;
  node.id = id;
  node.type = type;
  node.mtime = clock_.Now();
  inodes_.emplace(id, std::move(node));
  return id;
}

void FileSystem::Touch(Inode& node) {
  clock_.Advance();
  node.mtime = clock_.Now();
}

bool FileSystem::IsAncestorOf(InodeId maybe_ancestor, InodeId node) const {
  InodeId cur = node;
  for (;;) {
    if (cur == maybe_ancestor) {
      return true;
    }
    const Inode& n = Node(cur);
    if (n.parent == cur) {
      return false;
    }
    cur = n.parent;
  }
}

Result<FileSystem::Resolved> FileSystem::Resolve(const std::string& path, bool follow_final,
                                                 int depth) {
  if (depth > kMaxSymlinkDepth) {
    return Error(ErrorCode::kTooManyLinks, path);
  }
  std::string norm = NormalizePath(path);
  if (norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "path must be absolute: " + path);
  }
  ++stats_.lookups;
  std::vector<std::string> comps = SplitPath(norm);
  if (comps.empty()) {
    return Resolved{root_, root_, "", std::move(norm)};
  }
  // The walk restarts at every symlink, so the components before `i` always name real
  // directories: the path of the directory at step i is their join.
  auto dir_path = [&comps](size_t i) {
    std::string out;
    for (size_t j = 0; j < i; ++j) {
      out += '/';
      out += comps[j];
    }
    return out.empty() ? std::string("/") : out;
  };
  InodeId cur = root_;
  for (size_t i = 0; i < comps.size(); ++i) {
    const bool last = (i + 1 == comps.size());
    const bool follow = !last || follow_final;
    const Inode& dir = Node(cur);
    if (dir.type != NodeType::kDirectory) {
      return Error(ErrorCode::kNotADirectory, norm);
    }
    const std::string* target = nullptr;
    InodeId child = kInvalidInode;
    auto it = dir.entries.find(comps[i]);
    if (it != dir.entries.end()) {
      child = it->second;
      const Inode& child_node = Node(child);
      if (child_node.type == NodeType::kSymlink && follow) {
        target = &child_node.symlink_target;
      }
    } else if (follow && external_links_) {
      target = external_links_(dir_path(i), comps[i]);
    }
    if (target != nullptr) {
      // Splice the link target plus the unconsumed suffix and restart.
      std::string full = (!target->empty() && (*target)[0] == '/')
                             ? *target
                             : JoinPath(i == 0 ? "" : dir_path(i), *target);
      for (size_t j = i + 1; j < comps.size(); ++j) {
        full = JoinPath(full, comps[j]);
      }
      return Resolve(full, follow_final, depth + 1);
    }
    if (child == kInvalidInode) {
      if (last) {
        return Resolved{cur, kInvalidInode, comps[i], std::move(norm)};
      }
      return Error(ErrorCode::kNotFound, norm);
    }
    if (last) {
      return Resolved{cur, child, comps[i], std::move(norm)};
    }
    cur = child;
  }
  return Error(ErrorCode::kNotFound, norm);  // unreachable
}

Result<InodeId> FileSystem::Lookup(const std::string& path, bool follow_final) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, follow_final));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  return r.node;
}

Result<FileSystem::Location> FileSystem::Locate(const std::string& path, bool follow_final) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, follow_final));
  return Location{std::move(r.path), r.node};
}

Result<std::string> FileSystem::PathOf(InodeId id) const {
  auto it = inodes_.find(id);
  if (it == inodes_.end()) {
    return Error(ErrorCode::kNotFound, "inode " + std::to_string(id));
  }
  if (id == root_) {
    return std::string("/");
  }
  std::vector<std::string> parts;
  InodeId cur = id;
  while (cur != root_) {
    const Inode& node = Node(cur);
    const Inode& parent = Node(node.parent);
    bool found = false;
    for (const auto& [name, child] : parent.entries) {
      if (child == cur) {
        parts.push_back(name);
        found = true;
        break;
      }
    }
    if (!found) {
      return Error(ErrorCode::kNotFound, "unlinked inode " + std::to_string(id));
    }
    cur = node.parent;
  }
  std::string out;
  for (auto rit = parts.rbegin(); rit != parts.rend(); ++rit) {
    out += '/';
    out += *rit;
  }
  return out;
}

const Inode* FileSystem::FindInode(InodeId id) const {
  auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : &it->second;
}

Stat FileSystem::StatOf(const Inode& node) const {
  Stat st;
  st.inode = node.id;
  st.type = node.type;
  st.size = node.SizeForStat();
  st.mtime = node.mtime;
  st.nlink = node.type == NodeType::kDirectory
                 ? static_cast<uint32_t>(2 + std::count_if(node.entries.begin(),
                                                           node.entries.end(),
                                                           [this](const auto& e) {
                                                             return Node(e.second).type ==
                                                                    NodeType::kDirectory;
                                                           }))
                 : 1;
  return st;
}

Result<void> FileSystem::Mkdir(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/false));
  if (r.node != kInvalidInode) {
    return Error(ErrorCode::kAlreadyExists, path);
  }
  if (!IsValidEntryName(r.leaf)) {
    return Error(ErrorCode::kInvalidArgument, "bad name: " + r.leaf);
  }
  InodeId id = NewInode(NodeType::kDirectory);
  Node(id).parent = r.parent;
  Inode& parent = Node(r.parent);
  parent.entries.emplace(r.leaf, id);
  Touch(parent);
  ++stats_.mkdirs;
  return OkResult();
}

Result<void> FileSystem::Rmdir(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/false));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  if (r.node == root_) {
    return Error(ErrorCode::kPermission, "cannot remove root");
  }
  Inode& node = Node(r.node);
  if (node.type != NodeType::kDirectory) {
    return Error(ErrorCode::kNotADirectory, path);
  }
  if (!node.entries.empty()) {
    return Error(ErrorCode::kNotEmpty, path);
  }
  Inode& parent = Node(r.parent);
  parent.entries.erase(r.leaf);
  Touch(parent);
  inodes_.erase(r.node);
  ++stats_.rmdirs;
  return OkResult();
}

Result<std::vector<DirEntry>> FileSystem::ReadDir(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/true));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  const Inode& node = Node(r.node);
  if (node.type != NodeType::kDirectory) {
    return Error(ErrorCode::kNotADirectory, path);
  }
  std::vector<DirEntry> out;
  out.reserve(node.entries.size());
  for (const auto& [name, child] : node.entries) {
    out.push_back(DirEntry{name, Node(child).type, child});
  }
  ++stats_.readdirs;
  return out;
}

Result<Fd> FileSystem::Open(const std::string& path, uint32_t flags) {
  if ((flags & (kOpenRead | kOpenWrite)) == 0) {
    return Error(ErrorCode::kInvalidArgument, "open needs read or write");
  }
  if ((flags & (kOpenCreate | kOpenTruncate | kOpenAppend)) != 0 && (flags & kOpenWrite) == 0) {
    return Error(ErrorCode::kInvalidArgument, "create/truncate/append require write");
  }
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/true));
  InodeId id = r.node;
  if (id == kInvalidInode) {
    if ((flags & kOpenCreate) == 0) {
      return Error(ErrorCode::kNotFound, path);
    }
    if (!IsValidEntryName(r.leaf)) {
      return Error(ErrorCode::kInvalidArgument, "bad name: " + r.leaf);
    }
    id = NewInode(NodeType::kFile);
    Node(id).parent = r.parent;
    Inode& parent = Node(r.parent);
    parent.entries.emplace(r.leaf, id);
    Touch(parent);
    ++stats_.creates;
  } else {
    Inode& node = Node(id);
    if (node.type == NodeType::kDirectory) {
      return Error(ErrorCode::kIsADirectory, path);
    }
    if ((flags & kOpenTruncate) != 0) {
      node.data.clear();
      Touch(node);
    }
  }
  ++stats_.opens;
  return fds_.Allocate(OpenFile{id, 0, flags});
}

void FileSystem::DropOrReapInode(InodeId id) {
  if (fds_.HasOpen(id)) {
    orphaned_.insert(id);  // reaped at the last Close, like a UNIX inode
  } else {
    inodes_.erase(id);
  }
}

Result<void> FileSystem::Close(Fd fd) {
  auto of = fds_.Get(fd);
  InodeId inode = of.ok() ? of.value()->inode : kInvalidInode;
  HAC_RETURN_IF_ERROR(fds_.Release(fd));
  ++stats_.closes;
  if (inode != kInvalidInode && orphaned_.count(inode) != 0 && !fds_.HasOpen(inode)) {
    orphaned_.erase(inode);
    inodes_.erase(inode);
  }
  return OkResult();
}

Result<size_t> FileSystem::Read(Fd fd, void* buf, size_t n) {
  HAC_ASSIGN_OR_RETURN(OpenFile * of, fds_.Get(fd));
  if ((of->flags & kOpenRead) == 0) {
    return Error(ErrorCode::kPermission, "fd not open for reading");
  }
  const Inode& node = Node(of->inode);
  if (of->offset >= node.data.size()) {
    return static_cast<size_t>(0);
  }
  size_t avail = node.data.size() - of->offset;
  size_t take = std::min(n, avail);
  std::memcpy(buf, node.data.data() + of->offset, take);
  of->offset += take;
  ++stats_.reads;
  stats_.read_bytes += take;
  return take;
}

Result<size_t> FileSystem::Write(Fd fd, const void* buf, size_t n) {
  HAC_ASSIGN_OR_RETURN(OpenFile * of, fds_.Get(fd));
  if ((of->flags & kOpenWrite) == 0) {
    return Error(ErrorCode::kPermission, "fd not open for writing");
  }
  Inode& node = Node(of->inode);
  if ((of->flags & kOpenAppend) != 0) {
    of->offset = node.data.size();
  }
  if (of->offset + n > node.data.size()) {
    node.data.resize(of->offset + n, '\0');
  }
  std::memcpy(node.data.data() + of->offset, buf, n);
  of->offset += n;
  Touch(node);
  ++stats_.writes;
  stats_.written_bytes += n;
  return n;
}

Result<uint64_t> FileSystem::Seek(Fd fd, uint64_t offset) {
  HAC_ASSIGN_OR_RETURN(OpenFile * of, fds_.Get(fd));
  of->offset = offset;
  return offset;
}

Result<uint64_t> FileSystem::Tell(Fd fd) {
  HAC_ASSIGN_OR_RETURN(OpenFile * of, fds_.Get(fd));
  return of->offset;
}

Result<void> FileSystem::Unlink(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/false));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  Inode& node = Node(r.node);
  if (node.type == NodeType::kDirectory) {
    return Error(ErrorCode::kIsADirectory, path);
  }
  Inode& parent = Node(r.parent);
  parent.entries.erase(r.leaf);
  Touch(parent);
  DropOrReapInode(r.node);
  ++stats_.unlinks;
  return OkResult();
}

Result<void> FileSystem::Rename(const std::string& from, const std::string& to) {
  HAC_ASSIGN_OR_RETURN(Resolved src, Resolve(from, /*follow_final=*/false));
  if (src.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, from);
  }
  if (src.node == root_) {
    return Error(ErrorCode::kPermission, "cannot rename root");
  }
  HAC_ASSIGN_OR_RETURN(Resolved dst, Resolve(to, /*follow_final=*/false));
  if (!IsValidEntryName(dst.leaf)) {
    return Error(ErrorCode::kInvalidArgument, "bad name: " + dst.leaf);
  }
  if (dst.node == src.node) {
    return OkResult();  // rename to self
  }
  Inode& src_node = Node(src.node);
  if (src_node.type == NodeType::kDirectory && IsAncestorOf(src.node, dst.parent)) {
    return Error(ErrorCode::kInvalidArgument, "cannot move a directory into itself");
  }
  if (dst.node != kInvalidInode) {
    const Inode& dst_node = Node(dst.node);
    if (dst_node.type == NodeType::kDirectory || src_node.type == NodeType::kDirectory) {
      return Error(ErrorCode::kAlreadyExists, to);
    }
    // File replacing file: drop the target (kept alive while open, like unlink).
    Node(dst.parent).entries.erase(dst.leaf);
    DropOrReapInode(dst.node);
  }
  Node(src.parent).entries.erase(src.leaf);
  Node(dst.parent).entries.emplace(dst.leaf, src.node);
  src_node.parent = dst.parent;
  Touch(Node(src.parent));
  Touch(Node(dst.parent));
  ++stats_.renames;
  return OkResult();
}

Result<void> FileSystem::Symlink(const std::string& target, const std::string& link_path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(link_path, /*follow_final=*/false));
  if (r.node != kInvalidInode) {
    return Error(ErrorCode::kAlreadyExists, link_path);
  }
  if (!IsValidEntryName(r.leaf)) {
    return Error(ErrorCode::kInvalidArgument, "bad name: " + r.leaf);
  }
  InodeId id = NewInode(NodeType::kSymlink);
  Node(id).symlink_target = target;
  Node(id).parent = r.parent;
  Inode& parent = Node(r.parent);
  parent.entries.emplace(r.leaf, id);
  Touch(parent);
  ++stats_.symlinks;
  return OkResult();
}

Result<std::string> FileSystem::ReadLink(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/false));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  const Inode& node = Node(r.node);
  if (node.type != NodeType::kSymlink) {
    return Error(ErrorCode::kInvalidArgument, path + " is not a symlink");
  }
  return node.symlink_target;
}

Result<Stat> FileSystem::StatPath(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/true));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  ++stats_.stats;
  return StatOf(Node(r.node));
}

Result<Stat> FileSystem::LstatPath(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/false));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  ++stats_.stats;
  return StatOf(Node(r.node));
}

Result<FileSystem::ExternalLink> FileSystem::AddExternalLink(InodeId dir) {
  auto it = inodes_.find(dir);
  if (it == inodes_.end() || it->second.type != NodeType::kDirectory) {
    return Error(ErrorCode::kNotADirectory, "inode " + std::to_string(dir));
  }
  // The same charges as Symlink: NewInode's id and mtime, then the parent's Touch.
  ExternalLink link{next_id_++, clock_.Now()};
  Touch(it->second);
  return link;
}

Result<void> FileSystem::RemoveExternalLink(InodeId dir) {
  auto it = inodes_.find(dir);
  if (it == inodes_.end() || it->second.type != NodeType::kDirectory) {
    return Error(ErrorCode::kNotADirectory, "inode " + std::to_string(dir));
  }
  Touch(it->second);  // as Unlink touches the parent
  return OkResult();
}

Result<FileSystem::ExternalLink> FileSystem::DetachSymlink(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/false));
  if (r.node == kInvalidInode) {
    return Error(ErrorCode::kNotFound, path);
  }
  const Inode& node = Node(r.node);
  if (node.type != NodeType::kSymlink) {
    return Error(ErrorCode::kInvalidArgument, path + " is not a symlink");
  }
  ExternalLink link{node.id, node.mtime};
  Node(r.parent).entries.erase(r.leaf);
  DropOrReapInode(r.node);
  return link;
}

Result<void> FileSystem::AttachSymlink(const std::string& path, const ExternalLink& link,
                                       const std::string& target) {
  HAC_ASSIGN_OR_RETURN(Resolved r, Resolve(path, /*follow_final=*/false));
  if (r.node != kInvalidInode) {
    return Error(ErrorCode::kAlreadyExists, path);
  }
  if (!IsValidEntryName(r.leaf)) {
    return Error(ErrorCode::kInvalidArgument, "bad name: " + r.leaf);
  }
  if (link.id == kInvalidInode || link.id >= next_id_ || inodes_.count(link.id) != 0) {
    return Error(ErrorCode::kInvalidArgument, "inode " + std::to_string(link.id) + " in use");
  }
  Inode node;
  node.id = link.id;
  node.type = NodeType::kSymlink;
  node.mtime = link.mtime;
  node.symlink_target = target;
  node.parent = r.parent;
  inodes_.emplace(link.id, std::move(node));
  Node(r.parent).entries.emplace(r.leaf, link.id);
  return OkResult();
}

uint64_t FileSystem::TotalDataBytes() const {
  uint64_t total = 0;
  for (const auto& [id, node] : inodes_) {
    if (node.type == NodeType::kFile) {
      total += node.data.size();
    }
  }
  return total;
}

uint64_t FileSystem::MetadataBytes() const {
  // Fixed-size inode core + directory entry strings + symlink targets.
  uint64_t total = 0;
  constexpr uint64_t kInodeCore = 64;  // id, type, mtime, parent, bookkeeping
  for (const auto& [id, node] : inodes_) {
    total += kInodeCore;
    for (const auto& [name, child] : node.entries) {
      total += name.size() + sizeof(InodeId) + 8;  // name + id + entry overhead
    }
    total += node.symlink_target.size();
  }
  return total;
}

}  // namespace hac

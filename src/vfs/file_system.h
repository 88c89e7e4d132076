// In-memory hierarchical file system: the "native UNIX" substrate every other layer
// (HAC core, baselines) builds on. Single-threaded by design — the paper's HAC is a
// per-process user-level library; multi-process sharing is modelled at the HAC layer.
//
// Supported semantics:
//   * absolute paths, lexical "." / ".." handling, symlink resolution with loop limit
//   * mkdir/rmdir/readdir, create/open/read/write/seek/close, unlink, rename (files and
//     directories, including subtree moves; moving a directory into itself is rejected)
//   * symlinks (dangling allowed; followed by StatPath and by intermediate components),
//     including links a layer above keeps outside the inode table (external links)
//   * virtual mtime from a VirtualClock advanced on every mutation
#ifndef HAC_VFS_FILE_SYSTEM_H_
#define HAC_VFS_FILE_SYSTEM_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/support/clock.h"
#include "src/support/result.h"
#include "src/vfs/fd_table.h"
#include "src/vfs/fs_interface.h"
#include "src/vfs/fs_stats.h"
#include "src/vfs/inode.h"

namespace hac {

class FileSystem final : public FsInterface {
 public:
  FileSystem();

  // FsInterface:
  Result<void> Mkdir(const std::string& path) override;
  Result<void> Rmdir(const std::string& path) override;
  Result<std::vector<DirEntry>> ReadDir(const std::string& path) override;
  Result<Fd> Open(const std::string& path, uint32_t flags) override;
  Result<void> Close(Fd fd) override;
  Result<size_t> Read(Fd fd, void* buf, size_t n) override;
  Result<size_t> Write(Fd fd, const void* buf, size_t n) override;
  Result<uint64_t> Seek(Fd fd, uint64_t offset) override;
  // Current offset of an open descriptor (no FsInterface equivalent; the HAC facade
  // uses it to journal the position a write landed at).
  Result<uint64_t> Tell(Fd fd);
  Result<void> Unlink(const std::string& path) override;
  Result<void> Rename(const std::string& from, const std::string& to) override;
  Result<void> Symlink(const std::string& target, const std::string& link_path) override;
  Result<std::string> ReadLink(const std::string& path) override;
  Result<Stat> StatPath(const std::string& path) override;
  Result<Stat> LstatPath(const std::string& path) override;

  // --- extra queries used by upper layers ---

  // Resolves `path` to an inode id; follows symlinks iff `follow_final`.
  Result<InodeId> Lookup(const std::string& path, bool follow_final = true);

  // Where `path` leads: its real path (every symlink before the final component
  // followed, the final one iff `follow_final`) and the inode there, or kInvalidInode
  // when the final component does not exist. One walk, like Lookup.
  struct Location {
    std::string path;
    InodeId node = kInvalidInode;
  };
  Result<Location> Locate(const std::string& path, bool follow_final);

  // Absolute path of `id` (directories only resolve uniquely; files resolve through their
  // containing directory). Returns kNotFound for unreferenced inodes.
  Result<std::string> PathOf(InodeId id) const;

  const Inode* FindInode(InodeId id) const;

  Stat StatOf(const Inode& node) const;

  uint64_t InodeCount() const { return inodes_.size(); }
  InodeId root_id() const { return root_; }

  // Currently open "kernel" descriptors (used by tests to assert close-all behavior).
  size_t OpenFdCount() const { return fds_.OpenCount(); }

  FsStats& stats() { return stats_; }
  const FsStats& stats() const { return stats_; }
  VirtualClock& clock() { return clock_; }

  // Total bytes of file content (for bench reporting).
  uint64_t TotalDataBytes() const;
  // Approximate metadata footprint: inode table + directory entries (no file data).
  uint64_t MetadataBytes() const;

  // --- links kept outside the inode table ---
  //
  // A layer above may serve symlinks of its own in a directory without storing them
  // here (HAC serves its transient links from its link table). Resolve asks
  // `resolver` for the target of any name a directory does not hold, so a path walks
  // through such a link exactly as through a stored symlink; ReadDir, LstatPath and
  // ReadLink see only stored entries. The resolver gets the directory's real path, runs
  // on concurrent readers and must not mutate anything.
  using ExternalLinkResolver =
      std::function<const std::string*(const std::string& dir_path, const std::string& name)>;
  void SetExternalLinkResolver(ExternalLinkResolver resolver) {
    external_links_ = std::move(resolver);
  }

  // External links spend what stored symlinks spend, so inode numbers, mtimes and the
  // clock do not depend on where a link is kept. AddExternalLink takes one inode id
  // and one tick, which becomes directory `dir`'s mtime, and returns the id and the
  // link's creation time (a new inode's mtime); RemoveExternalLink takes one tick.
  struct ExternalLink {
    InodeId id = kInvalidInode;
    uint64_t mtime = 0;
  };
  Result<ExternalLink> AddExternalLink(InodeId dir);
  Result<void> RemoveExternalLink(InodeId dir);

  // Hands a symlink between this table and an outside keeper under the same inode id
  // and mtime, spending no tick: DetachSymlink removes the stored symlink at `path`,
  // AttachSymlink stores `link` there.
  Result<ExternalLink> DetachSymlink(const std::string& path);
  Result<void> AttachSymlink(const std::string& path, const ExternalLink& link,
                             const std::string& target);

  // Snapshot persistence (see persistence.cc).
  std::vector<uint8_t> SaveImage() const;
  static Result<FileSystem> LoadImage(const std::vector<uint8_t>& image);

 private:
  friend class FsImageCodec;

  struct Resolved {
    InodeId parent;        // containing directory
    InodeId node;          // kInvalidInode if the final component does not exist
    std::string leaf;      // final component name
    std::string path;      // real path: every followed symlink spliced in
  };

  // Walks `path`; intermediate symlinks always followed, final component followed iff
  // `follow_final`. Missing final component is not an error (node == kInvalidInode);
  // missing intermediate components are. Names a directory does not hold are looked
  // up among the external links.
  Result<Resolved> Resolve(const std::string& path, bool follow_final, int depth = 0);

  Inode& Node(InodeId id) { return inodes_.at(id); }
  const Inode& Node(InodeId id) const { return inodes_.at(id); }

  InodeId NewInode(NodeType type);
  void Touch(Inode& node);
  bool IsAncestorOf(InodeId maybe_ancestor, InodeId node) const;

  // Called when a file loses its last directory entry: POSIX keeps the inode alive
  // while descriptors are open; it is reaped at the last Close.
  void DropOrReapInode(InodeId id);

  std::unordered_map<InodeId, Inode> inodes_;
  std::unordered_set<InodeId> orphaned_;  // unlinked but still open
  InodeId root_ = kInvalidInode;
  InodeId next_id_ = 1;
  FdTable fds_;
  FsStats stats_;
  VirtualClock clock_;
  ExternalLinkResolver external_links_;
};

}  // namespace hac

#endif  // HAC_VFS_FILE_SYSTEM_H_

// Registry of indexable files: owns the dense DocId space that all bitmaps range over.
//
// Every regular file HAC knows about — locally created files and cached copies of
// imported remote documents — gets a DocId at creation. DocIds are never reused; a
// deleted file's record is kept (not alive) so prohibited/permanent bookkeeping that
// mentions it stays meaningful, exactly like the paper's compact file-list
// representation keeps slots stable between reindexing runs.
//
// Live files are also indexed by parent directory, in an ordered map keyed by the
// directory's path. The files anywhere under `dir` are then the entry for `dir`
// itself plus the key range of paths starting with `dir + "/"` — the second half of
// the paper's scope(p) rule (p's links plus the files physically under p) costs
// time proportional to the files it returns, not to every live file.
#ifndef HAC_CORE_FILE_REGISTRY_H_
#define HAC_CORE_FILE_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/index/cba.h"
#include "src/support/bitmap.h"
#include "src/support/id_set.h"
#include "src/support/result.h"
#include "src/vfs/types.h"

namespace hac {

inline constexpr DocId kInvalidDocId = 0xFFFFFFFFu;

struct FileRecord {
  DocId id = kInvalidDocId;
  InodeId inode = kInvalidInode;
  std::string path;       // current absolute path
  bool alive = false;     // false once the file is deleted
  bool dirty = false;     // content changed since last indexing
  bool remote = false;    // cached copy of a remote document
  std::string remote_key; // "<mount-uid>/<space>/<handle>" for remote docs
};

class FileRegistry {
 public:
  // Registers a new local file. The path must not already be registered.
  Result<DocId> Add(InodeId inode, const std::string& path);

  // Registers the cached copy of a remote document. Idempotent per remote_key:
  // returns the existing id when the same remote document was imported before.
  Result<DocId> AddRemote(InodeId inode, const std::string& path,
                          const std::string& remote_key);

  // Finds a live record by current path / inode.
  Result<DocId> FindByPath(const std::string& path) const;
  Result<DocId> FindByInode(InodeId inode) const;
  Result<DocId> FindRemote(const std::string& remote_key) const;

  const FileRecord* Get(DocId id) const;

  // Marks the file deleted. Keeps the record.
  Result<void> Deactivate(DocId id);

  Result<void> MarkDirty(DocId id);

  // Updates the path of one file.
  Result<void> SetPath(DocId id, const std::string& path);

  // Rewrites all live paths under directory `from` to live under `to` (directory
  // rename). Touches only the moved records.
  void RenameSubtree(const std::string& from, const std::string& to);

  // All live files.
  const Bitmap& Universe() const { return universe_; }

  // Live files whose path lies strictly within `dir` (any depth).
  Bitmap FilesWithin(const std::string& dir) const;

  // Live files that are *direct* children of `dir`.
  Bitmap DirectChildrenOf(const std::string& dir) const;

  // Ids of dirty records (live => reindex, dead => purge from the index).
  std::vector<DocId> DirtyDocs() const;
  void ClearDirty(DocId id);

  size_t TotalRecords() const { return records_.size(); }
  size_t LiveCount() const { return universe_.Count(); }
  size_t SizeBytes() const;

  // Persistence support: re-appends a saved record. Records must arrive in id order
  // into an empty registry (ids are dense positions).
  Result<void> RestoreRecord(const FileRecord& rec);

 private:
  using DirIndex = std::map<std::string, IdSet, std::less<>>;

  DocId NewRecord(InodeId inode, const std::string& path);
  void IndexUnder(const std::string& path, DocId id);
  void UnindexUnder(const std::string& path, DocId id);

  std::vector<FileRecord> records_;  // indexed by DocId
  std::unordered_map<std::string, DocId> by_path_;
  std::unordered_map<InodeId, DocId> by_inode_;
  std::unordered_map<std::string, DocId> by_remote_key_;
  DirIndex by_dir_;  // parent-directory path -> its live files; no empty entries
  Bitmap universe_;
};

}  // namespace hac

#endif  // HAC_CORE_FILE_REGISTRY_H_

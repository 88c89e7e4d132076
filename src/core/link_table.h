// Per-directory symbolic-link bookkeeping: the paper's three link classes.
//
//   permanent  — links the user created explicitly; HAC never removes them.
//   transient  — links produced by query evaluation; HAC owns them entirely.
//   prohibited — links the user deleted; HAC must never silently re-add them.
//
// Links to registered files are tracked by DocId so bitmap algebra applies; links whose
// target is not a registered file ("foreign" links, e.g. to an unmounted remote path)
// are permanent by definition and carry no DocId.
//
// The table is the only store of transient links: the facade serves them as symlinks
// whose target is the doc's current path. Permanent and foreign links are also VFS
// symlinks, which the user made; their records here only classify them.
#ifndef HAC_CORE_LINK_TABLE_H_
#define HAC_CORE_LINK_TABLE_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "src/core/file_registry.h"
#include "src/support/bitmap.h"
#include "src/support/result.h"
#include "src/vfs/types.h"

namespace hac {

enum class LinkClass : uint8_t {
  kPermanent = 0,
  kTransient = 1,
};

struct LinkRecord {
  DocId doc = kInvalidDocId;  // kInvalidDocId for foreign permanent links
  LinkClass cls = LinkClass::kPermanent;
  // Transient links only: the inode id and creation tick the VFS charged for the link
  // (FileSystem::AddExternalLink). A permanent link's inode is its VFS symlink.
  InodeId inode = kInvalidInode;
  uint64_t mtime = 0;
};

class LinkTable {
 public:
  // Registers a link entry named `name` for `doc`. Fails if the name is taken.
  // `inode`/`mtime` identify a transient link (see LinkRecord).
  Result<void> AddLink(const std::string& name, DocId doc, LinkClass cls,
                       InodeId inode = kInvalidInode, uint64_t mtime = 0);

  // Registers a foreign permanent link (no DocId).
  Result<void> AddForeignLink(const std::string& name);

  // Removes the entry; returns its record.
  Result<LinkRecord> RemoveLink(const std::string& name);

  // The record for entry `name`, if it is a tracked link.
  const LinkRecord* Find(const std::string& name) const;

  // Current entry name of the link to `doc`, if any.
  Result<std::string> NameOf(DocId doc) const;

  bool HasDoc(DocId doc) const { return name_of_doc_.count(doc) != 0; }

  // Picks an unused entry name based on `base` ("paper.txt", "paper.txt~2", ...).
  // `taken` reports names used by non-link entries in the same directory.
  std::string UniqueName(const std::string& base,
                         const std::function<bool(const std::string&)>& taken) const;

  // --- class sets ---
  const Bitmap& permanent() const { return permanent_; }
  const Bitmap& transient() const { return transient_; }
  const Bitmap& prohibited() const { return prohibited_; }

  size_t TransientCount() const { return transient_.Count(); }

  // Current link set: what this directory "provides" (transient | permanent docs).
  Bitmap LinkSet() const;

  void Prohibit(DocId doc) { prohibited_.Set(doc); }
  void Unprohibit(DocId doc) { prohibited_.Clear(doc); }
  bool IsProhibited(DocId doc) const { return prohibited_.Test(doc); }

  // Promotes an existing transient link to permanent (the paper's footnote API).
  Result<void> Promote(const std::string& name);

  // The inverse: hands a permanent link back to HAC as transient, so the next
  // re-evaluation may remove it; it keeps `inode`/`mtime` from then on. Foreign links
  // (no DocId) cannot be demoted.
  Result<void> Demote(const std::string& name, InodeId inode, uint64_t mtime);

  const std::map<std::string, LinkRecord>& links() const { return links_; }

  size_t SizeBytes() const;

 private:
  std::map<std::string, LinkRecord> links_;          // entry name -> record
  std::unordered_map<DocId, std::string> name_of_doc_;
  Bitmap permanent_;   // docs with a permanent link here
  Bitmap transient_;   // docs with a transient link here
  Bitmap prohibited_;  // docs the user evicted
};

}  // namespace hac

#endif  // HAC_CORE_LINK_TABLE_H_

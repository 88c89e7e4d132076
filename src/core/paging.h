// Continuation tokens and page shapes for the streaming read surface
// (HacFileSystem::ReadDirPage / SearchPage, and the hacd cursor ops layered on
// them — docs/API.md "Cursor ops").
//
// A PageToken is deliberately tiny re-execution state, not a live iterator: the
// position reached so far (last entry name for directory enumeration, last DocId
// for search). Each page is produced by re-seeking strictly past that position, so
// nothing — no VFS iterators, no posting-list pointers — survives between pages,
// and writes between pages never invalidate a token. This is POSIX readdir
// semantics: an entry present for the whole sequence is delivered exactly once, in
// order; entries added or removed meanwhile may or may not appear.
#ifndef HAC_CORE_PAGING_H_
#define HAC_CORE_PAGING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/vfs/types.h"

namespace hac {

// Page-size policy shared by the facade and the hacd cursor ops. The entry cap
// and byte budget together bound the encoded response frame (names plus a few
// varints per entry) far below the reactor's write_high_water (1 MiB default),
// so a paged response never trips the backpressure machinery it exists to avoid.
inline constexpr size_t kDefaultPageEntries = 1024;
inline constexpr size_t kMaxPageEntries = 4096;
inline constexpr size_t kDefaultPageBytes = 256 << 10;

struct PageToken {
  bool at_start = true;     // no page delivered yet; position fields unset
  uint64_t last_doc = 0;    // search: last DocId delivered
  std::string last_name;    // readdir: last entry name delivered
};

struct DirPageResult {
  std::vector<DirEntry> entries;
  bool has_more = false;
  PageToken next;  // pass back to fetch the following page
};

struct SearchPageResult {
  // Matching registry paths in DocId order (NOT sorted by path — a total order
  // over pages only needs a stable key, and DocId is the cursor's native one).
  std::vector<std::string> paths;
  bool has_more = false;
  PageToken next;
};

}  // namespace hac

#endif  // HAC_CORE_PAGING_H_

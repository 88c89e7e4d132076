// hacfsck: a full-consistency checker for a HacFileSystem instance.
//
// Validates, for the entire file system, the invariants sections 2.3-2.5 of the paper
// promise — the same ones the randomized property tests assert, packaged as a
// reusable audit that examples, tests and tools can run after any operation sequence:
//
//   C1  every directory is registered in the UID map and the dependency graph, and the
//       UID map's path resolves back to that directory;
//   C2  the dependency graph edges equal {parent} ∪ referenced dirs for every directory;
//   C3  every permanent link a link table tracks exists as a VFS symlink, no VFS entry
//       shadows a transient link's name, and every symlink the directory serves is
//       tracked (no orphaned table entries, no untracked links);
//   C4  for every semantic directory: transient == Eval(query, scope(parent))
//       − direct-children − permanent − prohibited;
//   C5  transient ⊆ scope(parent); prohibited ∩ (transient ∪ permanent) = ∅;
//   C6  every live registry record's path resolves to a file with the recorded inode;
//   C7  the dependency graph is acyclic (a full topological order covers every node).
//
// FsckReport lists human-readable findings; Clean() means a fully consistent system.
// C4/C5 are *scope* invariants: they are expected to hold only when the system is
// data-consistent (i.e. after Reindex()); run with check_scope=false to audit just the
// structural invariants in between.
#ifndef HAC_TOOLS_FSCK_H_
#define HAC_TOOLS_FSCK_H_

#include <string>
#include <vector>

#include "src/core/hac_file_system.h"

namespace hac {

struct FsckOptions {
  bool check_scope = true;  // include C4/C5 (requires data consistency)
};

struct FsckReport {
  std::vector<std::string> findings;

  bool Clean() const { return findings.empty(); }
  std::string ToString() const;
};

FsckReport RunFsck(HacFileSystem& fs, const FsckOptions& options = {});

// FNV-1a digest of the complete observable state: a deterministic depth-first walk of
// the local name space as the facade serves it (HacFileSystem::ReadLocalDir) mixing
// every path, node type, file content, symlink target, directory query and link-class
// table (names and targets, not internal ids — two instances that answer every client
// call identically digest identically, whatever order they were built in). The durability tests compare a recovered instance against a clean replay with
// this; `hacctl fsck --data-dir` prints it so operators can diff two data dirs.
uint64_t StateDigest(HacFileSystem& fs);

}  // namespace hac

#endif  // HAC_TOOLS_FSCK_H_

// The dependency graph of section 2.5: node per directory, edge Y -> X when X's
// query-result depends on Y (X's parent, or a dir(Y) reference inside X's query).
//
// The graph must stay a DAG; SetDependencies rejects updates that would close a cycle.
// Updates after a change run over AffectedInTopoOrder(sources), a topological order of
// everything reachable from the changed directories — the paper's "order obtained from
// a topological sort". One Kahn sort produces every order the graph hands out: a node
// comes after all its in-set dependencies, ordered first by its longest in-set
// dependency path and then by ascending uid, so the order (and with it link names and
// inode ids) is deterministic and the same for both consistency engines.
#ifndef HAC_CORE_DEPENDENCY_GRAPH_H_
#define HAC_CORE_DEPENDENCY_GRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/index/query.h"  // DirUid
#include "src/support/result.h"

namespace hac {

class DependencyGraph {
 public:
  // Creates an isolated node. Fails with kAlreadyExists when present.
  Result<void> AddNode(DirUid uid);

  bool HasNode(DirUid uid) const { return deps_.count(uid) != 0; }

  // Replaces `uid`'s dependency set. Every dep must exist. Rejects self-loops and any
  // update that would create a cycle (kCycle), leaving the graph unchanged.
  Result<void> SetDependencies(DirUid uid, const std::vector<DirUid>& new_deps);

  // Removes a node. Fails with kBusy if any other node depends on it.
  Result<void> RemoveNode(DirUid uid);

  // Dependencies of `uid` (what it reads from).
  std::vector<DirUid> DependenciesOf(DirUid uid) const;
  // Direct dependents of `uid` (who reads from it).
  std::vector<DirUid> DirectDependentsOf(DirUid uid) const;

  // The union of `sources` and everything reachable from any of them along dependent
  // edges, in topological order: the affected set of one propagation pass. Sources
  // that are not nodes are ignored.
  std::vector<DirUid> AffectedInTopoOrder(const std::vector<DirUid>& sources) const;

  // Topological order of the whole graph (Reindex / persistence-load passes). Nodes on
  // a cycle never become ready, so a result shorter than NodeCount() means the graph
  // is not a DAG (hacfsck's acyclicity check).
  std::vector<DirUid> FullTopoOrder() const;

  size_t NodeCount() const { return deps_.size(); }
  size_t EdgeCount() const;
  size_t SizeBytes() const;

 private:
  // True if `target` is reachable from `start` along dependent edges.
  bool Reaches(DirUid start, DirUid target) const;

  // Sources plus their dependent closure (the affected set of a pass).
  std::unordered_set<DirUid> AffectedSet(const std::vector<DirUid>& sources) const;

  // Kahn's algorithm over the subgraph induced by `nodes`, taking whole ready levels
  // at a time and sorting each level ascending (the order described above).
  std::vector<DirUid> TopoOrderOf(const std::unordered_set<DirUid>& nodes) const;

  std::unordered_map<DirUid, std::unordered_set<DirUid>> deps_;        // uid -> reads-from
  std::unordered_map<DirUid, std::unordered_set<DirUid>> dependents_;  // uid -> read-by
};

}  // namespace hac

#endif  // HAC_CORE_DEPENDENCY_GRAPH_H_

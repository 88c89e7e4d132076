#include "src/core/dependency_graph.h"

#include <algorithm>
#include <cstddef>

namespace hac {

Result<void> DependencyGraph::AddNode(DirUid uid) {
  if (deps_.count(uid) != 0) {
    return Error(ErrorCode::kAlreadyExists, "dep node " + std::to_string(uid));
  }
  deps_.emplace(uid, std::unordered_set<DirUid>{});
  dependents_.emplace(uid, std::unordered_set<DirUid>{});
  return OkResult();
}

bool DependencyGraph::Reaches(DirUid start, DirUid target) const {
  std::vector<DirUid> stack = {start};
  std::unordered_set<DirUid> seen;
  while (!stack.empty()) {
    DirUid cur = stack.back();
    stack.pop_back();
    if (cur == target) {
      return true;
    }
    if (!seen.insert(cur).second) {
      continue;
    }
    auto it = dependents_.find(cur);
    if (it != dependents_.end()) {
      stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
  }
  return false;
}

Result<void> DependencyGraph::SetDependencies(DirUid uid, const std::vector<DirUid>& new_deps) {
  auto it = deps_.find(uid);
  if (it == deps_.end()) {
    return Error(ErrorCode::kNotFound, "dep node " + std::to_string(uid));
  }
  for (DirUid dep : new_deps) {
    if (dep == uid) {
      return Error(ErrorCode::kCycle, "directory cannot depend on itself");
    }
    if (deps_.count(dep) == 0) {
      return Error(ErrorCode::kNotFound, "dep node " + std::to_string(dep));
    }
    // Adding edge dep -> uid creates a cycle iff dep is already downstream of uid.
    if (it->second.count(dep) == 0 && Reaches(uid, dep)) {
      return Error(ErrorCode::kCycle,
                   "dependency on " + std::to_string(dep) + " would create a cycle");
    }
  }
  for (DirUid old_dep : it->second) {
    dependents_[old_dep].erase(uid);
  }
  it->second.clear();
  for (DirUid dep : new_deps) {
    it->second.insert(dep);
    dependents_[dep].insert(uid);
  }
  return OkResult();
}

Result<void> DependencyGraph::RemoveNode(DirUid uid) {
  auto it = deps_.find(uid);
  if (it == deps_.end()) {
    return Error(ErrorCode::kNotFound, "dep node " + std::to_string(uid));
  }
  if (!dependents_.at(uid).empty()) {
    return Error(ErrorCode::kBusy,
                 "directory " + std::to_string(uid) + " is referenced by other queries");
  }
  for (DirUid dep : it->second) {
    dependents_[dep].erase(uid);
  }
  deps_.erase(it);
  dependents_.erase(uid);
  return OkResult();
}

std::vector<DirUid> DependencyGraph::DependenciesOf(DirUid uid) const {
  auto it = deps_.find(uid);
  if (it == deps_.end()) {
    return {};
  }
  std::vector<DirUid> out(it->second.begin(), it->second.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DirUid> DependencyGraph::DirectDependentsOf(DirUid uid) const {
  auto it = dependents_.find(uid);
  if (it == dependents_.end()) {
    return {};
  }
  std::vector<DirUid> out(it->second.begin(), it->second.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::unordered_set<DirUid> DependencyGraph::AffectedSet(
    const std::vector<DirUid>& sources) const {
  // The sources plus their dependent closure.
  std::unordered_set<DirUid> affected;
  std::vector<DirUid> stack;
  for (DirUid uid : sources) {
    if (deps_.count(uid) != 0 && affected.insert(uid).second) {
      stack.push_back(uid);
    }
  }
  while (!stack.empty()) {
    DirUid cur = stack.back();
    stack.pop_back();
    auto it = dependents_.find(cur);
    if (it == dependents_.end()) {
      continue;
    }
    for (DirUid next : it->second) {
      if (affected.insert(next).second) {
        stack.push_back(next);
      }
    }
  }
  return affected;
}

std::vector<DirUid> DependencyGraph::AffectedInTopoOrder(
    const std::vector<DirUid>& sources) const {
  return TopoOrderOf(AffectedSet(sources));
}

std::vector<DirUid> DependencyGraph::FullTopoOrder() const {
  std::unordered_set<DirUid> all;
  all.reserve(deps_.size());
  for (const auto& [node, node_deps] : deps_) {
    (void)node_deps;
    all.insert(node);
  }
  return TopoOrderOf(all);
}

std::vector<DirUid> DependencyGraph::TopoOrderOf(
    const std::unordered_set<DirUid>& nodes) const {
  // Only edges internal to `nodes` count.
  std::unordered_map<DirUid, size_t> in_degree;
  in_degree.reserve(nodes.size());
  std::vector<DirUid> order;
  order.reserve(nodes.size());
  for (DirUid node : nodes) {
    size_t d = 0;
    for (DirUid dep : deps_.at(node)) {
      if (nodes.count(dep) != 0) {
        ++d;
      }
    }
    in_degree[node] = d;
    if (d == 0) {
      order.push_back(node);
    }
  }
  // order[level_begin, level_end) is the current level; releasing its dependents
  // appends the next one.
  size_t level_begin = 0;
  while (level_begin < order.size()) {
    const size_t level_end = order.size();
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(level_begin), order.end());
    for (size_t i = level_begin; i < level_end; ++i) {
      for (DirUid next : dependents_.at(order[i])) {
        auto it = in_degree.find(next);
        if (it != in_degree.end() && --it->second == 0) {
          order.push_back(next);
        }
      }
    }
    level_begin = level_end;
  }
  return order;
}

size_t DependencyGraph::EdgeCount() const {
  size_t n = 0;
  for (const auto& [node, node_deps] : deps_) {
    n += node_deps.size();
  }
  return n;
}

size_t DependencyGraph::SizeBytes() const {
  return deps_.size() * 96 + EdgeCount() * 2 * 16;
}

}  // namespace hac

#include "src/tools/fsck.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "src/vfs/path.h"

namespace hac {
namespace {

class Fsck {
 public:
  Fsck(HacFileSystem& fs, const FsckOptions& options) : fs_(fs), options_(options) {}

  FsckReport Run() {
    CollectDirs();
    CheckRegistration();   // C1, C2, C7
    CheckLinkTables();     // C3
    if (options_.check_scope) {
      CheckScopeInvariants();  // C4, C5
    }
    CheckRegistry();       // C6
    return std::move(report_);
  }

 private:
  void Finding(const std::string& what) { report_.findings.push_back(what); }

  void CollectDirs() {
    std::vector<std::string> stack = {"/"};
    dirs_.push_back("/");
    while (!stack.empty()) {
      std::string dir = std::move(stack.back());
      stack.pop_back();
      auto entries = fs_.ReadLocalDir(dir);  // bypass mounts: audit the local system
      if (!entries.ok()) {
        continue;
      }
      for (const DirEntry& e : entries.value()) {
        std::string child = JoinPath(dir == "/" ? "" : dir, e.name);
        if (e.type == NodeType::kDirectory) {
          dirs_.push_back(child);
          stack.push_back(child);
        }
      }
    }
  }

  void CheckRegistration() {
    for (const std::string& dir : dirs_) {
      auto uid = fs_.uid_map().UidOf(dir);
      if (!uid.ok()) {
        Finding("C1: directory not in UID map: " + dir);
        continue;
      }
      auto path = fs_.uid_map().PathOf(uid.value());
      if (!path.ok() || path.value() != dir) {
        Finding("C1: UID map round trip broken for " + dir);
      }
      if (!fs_.dependency_graph().HasNode(uid.value())) {
        Finding("C1: no dependency-graph node for " + dir);
        continue;
      }
      // C2: edges = {parent} ∪ query references.
      std::vector<DirUid> want;
      if (dir != "/") {
        auto parent = fs_.uid_map().UidOf(DirName(dir));
        if (parent.ok()) {
          want.push_back(parent.value());
        }
      }
      auto query = fs_.GetQuery(dir);
      if (query.ok() && !query.value().empty()) {
        auto ast = ParseQuery(query.value());
        if (ast.ok()) {
          std::vector<QueryExpr*> refs;
          ast.value()->CollectDirRefs(refs);
          for (QueryExpr* ref : refs) {
            auto ref_uid = fs_.uid_map().UidOf(NormalizePath(ref->text));
            if (ref_uid.ok()) {
              want.push_back(ref_uid.value());
            }
          }
        }
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      std::vector<DirUid> have = fs_.dependency_graph().DependenciesOf(uid.value());
      if (have != want) {
        Finding("C2: dependency edges of " + dir + " do not match parent+references");
      }
    }
    // C7: acyclic.
    if (fs_.dependency_graph().FullTopoOrder().size() !=
        fs_.dependency_graph().NodeCount()) {
      Finding("C7: dependency graph contains a cycle");
    }
  }

  void CheckLinkTables() {
    for (const std::string& dir : dirs_) {
      auto classes = fs_.GetLinkClasses(dir);
      if (!classes.ok()) {
        Finding("C3: no link metadata for " + dir);
        continue;
      }
      std::unordered_set<std::string> tracked;
      // Every permanent link exists in the VFS as a symlink.
      for (const auto& [name, target] : classes.value().permanent) {
        tracked.insert(name);
        std::string link_path = JoinPath(dir == "/" ? "" : dir, name);
        auto st = fs_.vfs().LstatPath(link_path);
        if (!st.ok() || st.value().type != NodeType::kSymlink) {
          Finding("C3: tracked link missing from the VFS: " + link_path);
        }
      }
      // Transient links live in the link table alone; a stored entry of the same name
      // would hide one.
      for (const auto& [name, target] : classes.value().transient) {
        tracked.insert(name);
        std::string link_path = JoinPath(dir == "/" ? "" : dir, name);
        if (fs_.vfs().LstatPath(link_path).ok()) {
          Finding("C3: VFS entry shadows transient link: " + link_path);
        }
      }
      // Every symlink the directory serves is tracked.
      auto entries = fs_.ReadLocalDir(dir);
      if (entries.ok()) {
        for (const DirEntry& e : entries.value()) {
          if (e.type == NodeType::kSymlink && tracked.count(e.name) == 0) {
            Finding("C3: untracked symlink in " + dir + ": " + e.name);
          }
        }
      }
    }
  }

  void CheckScopeInvariants() {
    for (const std::string& dir : dirs_) {
      auto query_text = fs_.GetQuery(dir);
      if (!query_text.ok() || query_text.value().empty()) {
        continue;  // syntactic
      }
      auto classes = fs_.GetLinkClasses(dir);
      auto parent_scope = fs_.ScopeOf(DirName(dir));
      auto ast = ParseQuery(query_text.value());
      if (!classes.ok() || !parent_scope.ok() || !ast.ok()) {
        Finding("C4: cannot audit " + dir);
        continue;
      }
      DirResolver resolver = [this](DirUid uid) -> Result<Bitmap> {
        auto p = fs_.uid_map().PathOf(uid);
        if (!p.ok()) {
          return p.error();
        }
        return fs_.DirectoryResultOf(p.value());
      };
      // Bind references for evaluation.
      std::vector<QueryExpr*> refs;
      ast.value()->CollectDirRefs(refs);
      bool bound = true;
      for (QueryExpr* ref : refs) {
        auto uid = fs_.uid_map().UidOf(NormalizePath(ref->text));
        if (!uid.ok()) {
          bound = false;
          break;
        }
        ref->dir_uid = uid.value();
        ref->text.clear();
      }
      if (!bound) {
        Finding("C4: dangling dir() reference in " + dir);
        continue;
      }
      auto eval = fs_.index().Evaluate(*ast.value(), parent_scope.value(), &resolver);
      if (!eval.ok()) {
        Finding("C4: query of " + dir + " fails to evaluate: " +
                eval.error().ToString());
        continue;
      }
      Bitmap expected = eval.value();
      expected.AndNot(fs_.registry().DirectChildrenOf(dir));
      Bitmap permanent;
      Bitmap prohibited;
      for (const auto& [name, target] : classes.value().permanent) {
        if (auto doc = fs_.registry().FindByPath(target); doc.ok()) {
          permanent.Set(doc.value());
        }
      }
      for (const std::string& target : classes.value().prohibited) {
        if (auto doc = fs_.registry().FindByPath(target); doc.ok()) {
          prohibited.Set(doc.value());
        }
      }
      expected.AndNot(permanent);
      expected.AndNot(prohibited);

      Bitmap actual;
      for (const auto& [name, target] : classes.value().transient) {
        auto doc = fs_.registry().FindByPath(target);
        if (!doc.ok()) {
          Finding("C4: dangling transient link " + dir + "/" + name + " -> " + target);
          continue;
        }
        actual.Set(doc.value());
      }
      if (actual != expected) {
        Finding("C4: transient set of " + dir + " violates the scope invariant");
      }
      if (!actual.IsSubsetOf(parent_scope.value())) {
        Finding("C5: transient links of " + dir + " escape the parent scope");
      }
      Bitmap linked = actual;
      linked |= permanent;
      if (!prohibited.DisjointWith(linked)) {
        Finding("C5: a prohibited file is linked in " + dir);
      }
    }
  }

  void CheckRegistry() {
    const FileRegistry& reg = fs_.registry();
    reg.Universe().ForEach([&](DocId doc) {
      const FileRecord* rec = reg.Get(doc);
      if (rec == nullptr) {
        Finding("C6: universe bit without a record: " + std::to_string(doc));
        return;
      }
      auto st = fs_.vfs().LstatPath(rec->path);
      if (!st.ok() || st.value().type != NodeType::kFile) {
        Finding("C6: live record without a file: " + rec->path);
        return;
      }
      if (st.value().inode != rec->inode) {
        Finding("C6: inode mismatch for " + rec->path);
      }
    });
  }

  HacFileSystem& fs_;
  FsckOptions options_;
  FsckReport report_;
  std::vector<std::string> dirs_;
};

}  // namespace

std::string FsckReport::ToString() const {
  if (findings.empty()) {
    return "clean\n";
  }
  std::string out;
  for (const std::string& f : findings) {
    out += f;
    out += '\n';
  }
  return out;
}

FsckReport RunFsck(HacFileSystem& fs, const FsckOptions& options) {
  Fsck fsck(fs, options);
  return fsck.Run();
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over `s`, then a 0x1f field separator so "ab"+"c" != "a"+"bc".
void Mix(uint64_t& h, std::string_view s) {
  for (unsigned char c : s) {
    h = (h ^ c) * kFnvPrime;
  }
  h = (h ^ 0x1f) * kFnvPrime;
}

}  // namespace

uint64_t StateDigest(HacFileSystem& fs) {
  uint64_t h = kFnvOffset;
  std::vector<std::string> stack = {"/"};
  while (!stack.empty()) {
    std::string dir = std::move(stack.back());
    stack.pop_back();
    Mix(h, "dir");
    Mix(h, dir);
    if (auto query = fs.GetQuery(dir); query.ok()) {
      Mix(h, query.value());
    } else {
      Mix(h, "");
    }
    if (auto classes = fs.GetLinkClasses(dir); classes.ok()) {
      auto sorted = [](std::vector<std::pair<std::string, std::string>> v) {
        std::sort(v.begin(), v.end());
        return v;
      };
      for (const auto& [name, target] : sorted(classes.value().permanent)) {
        Mix(h, "perm");
        Mix(h, name);
        Mix(h, target);
      }
      for (const auto& [name, target] : sorted(classes.value().transient)) {
        Mix(h, "trans");
        Mix(h, name);
        Mix(h, target);
      }
      std::vector<std::string> prohibited = classes.value().prohibited;
      std::sort(prohibited.begin(), prohibited.end());
      for (const std::string& target : prohibited) {
        Mix(h, "prohibit");
        Mix(h, target);
      }
    }
    // std::map-backed directories make ReadDir order deterministic; children in
    // reverse so the stack pops them name-ascending.
    auto entries = fs.ReadLocalDir(dir);
    if (!entries.ok()) {
      continue;
    }
    for (auto it = entries.value().rbegin(); it != entries.value().rend(); ++it) {
      const std::string child = JoinPath(dir == "/" ? "" : dir, it->name);
      switch (it->type) {
        case NodeType::kDirectory:
          stack.push_back(child);
          break;
        case NodeType::kFile: {
          Mix(h, "file");
          Mix(h, child);
          auto id = fs.vfs().Lookup(child, /*follow_final=*/false);
          const Inode* node = id.ok() ? fs.vfs().FindInode(id.value()) : nullptr;
          Mix(h, node != nullptr ? node->data : "");
          break;
        }
        case NodeType::kSymlink: {
          Mix(h, "link");
          Mix(h, child);
          auto target = fs.ReadLocalLink(child);
          Mix(h, target.ok() ? target.value() : "");
          break;
        }
      }
    }
  }
  return h;
}

}  // namespace hac

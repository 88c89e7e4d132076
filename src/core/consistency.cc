// Consistency helpers shared by both engines: scope/contents derivation, dependency
// computation, remote import, and the deferred data-consistency pass (section 2.4).
// The propagation algorithms themselves live in core/consistency_engine.cc.
//
// Invariant maintained for every semantic directory sd with parent p:
//   transient(sd) == Eval(query(sd)) ∩ scope(p)  −  permanent(sd)  −  prohibited(sd)
// where scope(p) is p's current link set plus the files physically under p.
#include <algorithm>
#include <cctype>

#include "src/core/hac_file_system.h"
#include "src/index/query_optimizer.h"
#include "src/vfs/path.h"

namespace hac {

Result<Bitmap> HacFileSystem::DirContentsOfUid(DirUid uid) const {
  // What a dir(X) reference denotes: X's current (edited) link set plus the files
  // physically inside X's subtree — nothing inherited.
  HAC_ASSIGN_OR_RETURN(std::string path, uid_map_.PathOf(uid));
  HAC_ASSIGN_OR_RETURN(const DirMetadata* meta, MetaOfUid(uid));
  Bitmap contents = meta->links.LinkSet();
  contents |= registry_.FilesWithin(path);
  return contents;
}

Result<Bitmap> HacFileSystem::ScopeOfUid(DirUid uid) const {
  // What a directory PROVIDES to semantic children. Semantic directories provide
  // exactly their contents (the paper's refinement rule); the root provides everything.
  // Plain syntactic directories are scope-transparent: they pass their parent's scope
  // through in addition to their own contents, so a semantic directory created inside
  // any ordinary folder still searches what the enclosing hierarchy provides (the
  // paper pins down only the root and semantic parents; this completes the rule for
  // the case in between).
  HAC_ASSIGN_OR_RETURN(Bitmap scope, DirContentsOfUid(uid));
  HAC_ASSIGN_OR_RETURN(const DirMetadata* meta, MetaOfUid(uid));
  HAC_ASSIGN_OR_RETURN(std::string path, uid_map_.PathOf(uid));
  // Semantic mount points provide only what lives under them (local files plus cached
  // imports) — inheriting the whole local hierarchy would leak it into remote views.
  if (!meta->IsSemantic() && uid != uid_map_.root_uid() &&
      mounts_.FindSemanticAt(path) == nullptr) {
    HAC_ASSIGN_OR_RETURN(DirUid parent, uid_map_.UidOf(DirName(path)));
    HAC_ASSIGN_OR_RETURN(Bitmap inherited, ScopeOfUid(parent));
    scope |= inherited;
  }
  return scope;
}

Result<std::vector<DirUid>> HacFileSystem::ComputeDeps(DirUid uid,
                                                       const std::string& norm_path,
                                                       const QueryExpr* query) {
  std::vector<DirUid> deps;
  if (uid != uid_map_.root_uid()) {
    HAC_ASSIGN_OR_RETURN(DirUid parent, uid_map_.UidOf(DirName(norm_path)));
    deps.push_back(parent);
  }
  if (query != nullptr) {
    for (DirUid ref : query->ReferencedDirs()) {
      deps.push_back(ref);
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

QueryExprPtr HacFileSystem::ContentOnly(const QueryExpr& query) {
  QueryExprPtr out = query.Clone();
  std::vector<QueryExpr*> refs;
  out->CollectDirRefs(refs);
  for (QueryExpr* ref : refs) {
    // dir() references are local; remotely every document passes this conjunct.
    ref->kind = QueryKind::kAll;
    ref->text.clear();
    ref->dir_uid = kInvalidDirUid;
  }
  return out;
}

Result<void> HacFileSystem::ImportRemoteResults(const SemanticMount& mount,
                                                const QueryExpr& query) {
  QueryExprPtr content = ContentOnly(query);
  for (NameSpace* space : mount.spaces) {
    counters_.remote_searches.Inc();
    HAC_ASSIGN_OR_RETURN(std::vector<RemoteDoc> docs, space->Search(*content));
    if (docs.empty()) {
      continue;
    }
    std::string cache_dir = JoinPath(mount.mount_path == "/" ? "" : mount.mount_path,
                                     ".remote");
    cache_dir = JoinPath(cache_dir, space->Name());
    HAC_RETURN_IF_ERROR(MkdirAll(cache_dir));
    for (const RemoteDoc& doc : docs) {
      std::string key = mount.mount_path + "\x1f" + space->Name() + "\x1f" + doc.handle;
      if (registry_.FindRemote(key).ok()) {
        continue;  // already imported
      }
      HAC_ASSIGN_OR_RETURN(std::string body, space->Fetch(doc.handle));
      // Cached file name: sanitized title + sanitized handle for uniqueness.
      auto sanitize = [](const std::string& s, size_t cap) {
        std::string out;
        for (char c : s) {
          out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
        }
        if (out.size() > cap) {
          out.resize(cap);
        }
        return out;
      };
      std::string base = sanitize(doc.title, 48);
      std::string suffix = sanitize(doc.handle, 48);
      std::string name = base.empty() ? suffix : base + "_" + suffix;
      std::string cache_path = JoinPath(cache_dir, name);
      for (int n = 2; vfs_.Exists(cache_path); ++n) {
        cache_path = JoinPath(cache_dir, name + "~" + std::to_string(n));
      }
      HAC_RETURN_IF_ERROR(vfs_.WriteFile(cache_path, body));
      HAC_ASSIGN_OR_RETURN(InodeId inode, vfs_.Lookup(cache_path));
      HAC_ASSIGN_OR_RETURN(DocId id, registry_.AddRemote(inode, cache_path, key));
      HAC_RETURN_IF_ERROR(index_->IndexDocument(id, body));
      registry_.ClearDirty(id);
      engine_->NoteDocChanged(id);
      counters_.remote_imports.Inc();
      counters_.docs_indexed.Inc();
    }
  }
  return OkResult();
}

Result<void> HacFileSystem::FlushDirtyDocs(const std::string& subtree_root) {
  for (DocId doc : registry_.DirtyDocs()) {
    const FileRecord* rec = registry_.Get(doc);
    if (rec == nullptr) {
      continue;
    }
    if (!PathIsWithin(rec->path, subtree_root)) {
      continue;
    }
    if (!rec->alive) {
      if (index_->RemoveDocument(doc).ok()) {
        counters_.docs_purged.Inc();
      }
      registry_.ClearDirty(doc);
      engine_->NoteDocChanged(doc);
      continue;
    }
    // Content is read through HAC's own call surface (descriptor table, attribute
    // cache), exactly as the paper's prototype drives Glimpse through the HAC library.
    auto body = ReadFileToString(rec->path);
    if (!body.ok()) {
      continue;  // transiently unreadable; stays dirty
    }
    HAC_RETURN_IF_ERROR(index_->IndexDocument(doc, body.value()));
    counters_.docs_indexed.Inc();
    registry_.ClearDirty(doc);
    engine_->NoteDocChanged(doc);
  }
  return OkResult();
}

Result<void> HacFileSystem::Reindex() {
  HAC_RETURN_IF_ERROR(FlushDirtyDocs("/"));
  HAC_RETURN_IF_ERROR(engine_->PropagateAll());
  content_mutations_since_reindex_ = 0;
  last_reindex_tick_ = vfs_.clock().Now();
  return OkResult();
}

Result<void> HacFileSystem::ReindexSubtree(const std::string& path) {
  std::string norm = NormalizePath(path);
  if (norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "path must be absolute: " + path);
  }
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(norm));
  HAC_RETURN_IF_ERROR(FlushDirtyDocs(norm));
  return engine_->SyncFrom(uid);
}

void HacFileSystem::MaybeAutoReindex() {
  const SyncPolicy& policy = options_.sync_policy;
  bool due = false;
  switch (policy.mode) {
    case SyncMode::kManual:
      break;
    case SyncMode::kEveryNMutations:
      due = policy.n > 0 && content_mutations_since_reindex_ >= policy.n;
      break;
    case SyncMode::kIntervalTicks:
      due = policy.n > 0 && vfs_.clock().Now() - last_reindex_tick_ >= policy.n;
      break;
    case SyncMode::kImmediate:
      due = true;
      break;
  }
  if (due && !engine_->InPass() && !engine_->InBatch()) {
    counters_.auto_reindexes.Inc();
    (void)Reindex();
  }
}

}  // namespace hac

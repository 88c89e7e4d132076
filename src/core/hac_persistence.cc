// Whole-state persistence for HacFileSystem (see the SaveState/LoadState contract in
// hac_file_system.h).
//
// Durable state = VFS image + registry records + per-directory {query, link records,
// prohibited set}. Everything else is derived (UID map, dependency graph, index) or
// session-local (mounts, caches, descriptor tables, journal). The load path finishes
// with a full Reindex(), which both rebuilds the index and re-verifies scope
// consistency against the restored link tables.
//
// Transient links live in the link records alone (v3 keeps each one's inode id and
// creation tick there). A v2 image still stored them as VFS symlinks too: its loader
// takes their ids and ticks from those symlinks and drops them from the VFS.
#include <algorithm>

#include "src/core/hac_file_system.h"
#include "src/support/serializer.h"
#include "src/vfs/path.h"

namespace hac {

namespace {
constexpr uint32_t kStateMagic = 0x48414353;  // "HACS"
// v2 appends the index snapshot so loads need not re-tokenize every file; v3 keeps
// transient links out of the VFS image.
constexpr uint32_t kStateVersion = 3;
constexpr uint32_t kStateVersionSymlinkedTransients = 2;
}  // namespace

class HacStateCodec {
 public:
  static std::vector<uint8_t> Save(const HacFileSystem& fs) {
    // Batched mutations must reach the link tables before they are serialized.
    (void)fs.engine_->Flush();
    ByteWriter w;
    w.PutU32(kStateMagic);
    w.PutU32(kStateVersion);

    // 1. The VFS image.
    std::vector<uint8_t> vfs_image = fs.vfs_.SaveImage();
    w.PutVarint(vfs_image.size());
    w.PutBytes(vfs_image.data(), vfs_image.size());

    // 2. Registry records, in id order.
    w.PutVarint(fs.registry_.TotalRecords());
    for (DocId id = 0; id < fs.registry_.TotalRecords(); ++id) {
      const FileRecord* rec = fs.registry_.Get(id);
      w.PutU64(rec->inode);
      w.PutString(rec->path);
      w.PutU8(static_cast<uint8_t>((rec->alive ? 1 : 0) | (rec->remote ? 2 : 0) |
                                   (rec->dirty ? 4 : 0)));
      w.PutString(rec->remote_key);
    }

    // 3. Per-directory state, parents before children (lexicographic does that).
    std::vector<std::string> paths;
    for (const auto& [uid, meta] : fs.metadata_) {
      auto path = fs.uid_map_.PathOf(uid);
      if (path.ok()) {
        paths.push_back(path.value());
      }
    }
    std::sort(paths.begin(), paths.end());
    w.PutVarint(paths.size());
    std::function<std::string(DirUid)> uid_to_path = [&fs](DirUid uid) {
      auto p = fs.uid_map_.PathOf(uid);
      return p.ok() ? p.value() : "#" + std::to_string(uid);
    };
    for (const std::string& path : paths) {
      auto uid = fs.uid_map_.UidOf(path);
      const DirMetadata& meta = fs.metadata_.at(uid.value());
      w.PutString(path);
      // Query in rendered form: current paths inside dir() references.
      w.PutString(meta.query != nullptr ? meta.query->ToString(&uid_to_path) : "");
      // Link records.
      w.PutVarint(meta.links.links().size());
      for (const auto& [name, rec] : meta.links.links()) {
        w.PutString(name);
        w.PutU32(rec.doc);
        w.PutU8(static_cast<uint8_t>(rec.cls));
        if (rec.cls == LinkClass::kTransient) {
          w.PutU64(rec.inode);
          w.PutU64(rec.mtime);
        }
      }
      // Prohibited docs.
      std::vector<uint32_t> prohibited = meta.links.prohibited().ToIds();
      w.PutVarint(prohibited.size());
      for (uint32_t doc : prohibited) {
        w.PutU32(doc);
      }
    }

    // 4. The content index, so a load avoids re-tokenizing every clean document.
    std::vector<uint8_t> index_image = fs.index_->SaveSnapshot();
    w.PutVarint(index_image.size());
    w.PutBytes(index_image.data(), index_image.size());
    return w.TakeBuffer();
  }

  static Result<std::unique_ptr<HacFileSystem>> Load(const std::vector<uint8_t>& image,
                                                     HacOptions options) {
    ByteReader r(image);
    HAC_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
    if (magic != kStateMagic) {
      return Error(ErrorCode::kCorrupt, "bad state magic");
    }
    HAC_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
    if (version != kStateVersion && version != kStateVersionSymlinkedTransients) {
      return Error(ErrorCode::kCorrupt, "unsupported state version");
    }
    const bool symlinked_transients = version == kStateVersionSymlinkedTransients;

    auto fs = std::make_unique<HacFileSystem>(options);

    // 1. VFS.
    HAC_ASSIGN_OR_RETURN(uint64_t vfs_len, r.GetVarint());
    std::vector<uint8_t> vfs_image(vfs_len);
    HAC_RETURN_IF_ERROR(r.GetBytes(vfs_image.data(), vfs_len));
    HAC_ASSIGN_OR_RETURN(FileSystem vfs, FileSystem::LoadImage(vfs_image));
    fs->vfs_ = std::move(vfs);
    fs->ServeTransientLinks();
    fs->metadata_.at(fs->uid_map_.root_uid()).inode = fs->vfs_.root_id();

    // 2. Registry.
    HAC_ASSIGN_OR_RETURN(uint64_t n_records, r.GetVarint());
    for (DocId id = 0; id < n_records; ++id) {
      FileRecord rec;
      rec.id = id;
      HAC_ASSIGN_OR_RETURN(rec.inode, r.GetU64());
      HAC_ASSIGN_OR_RETURN(rec.path, r.GetString());
      HAC_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
      rec.alive = (flags & 1) != 0;
      rec.remote = (flags & 2) != 0;
      rec.dirty = (flags & 4) != 0;
      HAC_ASSIGN_OR_RETURN(rec.remote_key, r.GetString());
      HAC_RETURN_IF_ERROR(fs->registry_.RestoreRecord(rec));
    }

    // 3. Directories: structural pass (UID map, graph nodes, metadata shells).
    HAC_ASSIGN_OR_RETURN(uint64_t n_dirs, r.GetVarint());
    struct SavedLink {
      std::string name;
      LinkRecord rec;
    };
    struct SavedDir {
      std::string path;
      std::string query;
      std::vector<SavedLink> links;
      std::vector<DocId> prohibited;
    };
    std::vector<SavedDir> saved(n_dirs);
    for (SavedDir& dir : saved) {
      HAC_ASSIGN_OR_RETURN(dir.path, r.GetString());
      HAC_ASSIGN_OR_RETURN(dir.query, r.GetString());
      HAC_ASSIGN_OR_RETURN(uint64_t n_links, r.GetVarint());
      for (uint64_t i = 0; i < n_links; ++i) {
        SavedLink link;
        HAC_ASSIGN_OR_RETURN(link.name, r.GetString());
        HAC_ASSIGN_OR_RETURN(link.rec.doc, r.GetU32());
        HAC_ASSIGN_OR_RETURN(uint8_t cls, r.GetU8());
        if (cls > static_cast<uint8_t>(LinkClass::kTransient)) {
          return Error(ErrorCode::kCorrupt, "bad link class");
        }
        link.rec.cls = static_cast<LinkClass>(cls);
        if (link.rec.cls == LinkClass::kTransient && !symlinked_transients) {
          HAC_ASSIGN_OR_RETURN(link.rec.inode, r.GetU64());
          HAC_ASSIGN_OR_RETURN(link.rec.mtime, r.GetU64());
        }
        dir.links.push_back(std::move(link));
      }
      HAC_ASSIGN_OR_RETURN(uint64_t n_prohibited, r.GetVarint());
      for (uint64_t i = 0; i < n_prohibited; ++i) {
        HAC_ASSIGN_OR_RETURN(uint32_t doc, r.GetU32());
        dir.prohibited.push_back(doc);
      }
    }
    for (const SavedDir& dir : saved) {
      if (dir.path == "/") {
        continue;  // the constructor made the root already
      }
      HAC_RETURN_IF_ERROR(fs->RegisterDirectory(dir.path));
    }

    // 4. Queries (binding dir() references against the rebuilt UID map); propagation
    // is suppressed — the authoritative link sets come from the image.
    fs->engine_->Suspend(true);
    for (const SavedDir& dir : saved) {
      if (!dir.query.empty()) {
        Result<void> set = fs->SetQuery(dir.path, dir.query);
        if (!set.ok()) {
          fs->engine_->Suspend(false);
          return Error(ErrorCode::kCorrupt,
                       "query of " + dir.path + ": " + set.error().ToString());
        }
      }
    }
    fs->engine_->Suspend(false);

    // 5. Link tables.
    for (SavedDir& dir : saved) {
      HAC_ASSIGN_OR_RETURN(DirUid uid, fs->uid_map_.UidOf(dir.path));
      DirMetadata& meta = fs->metadata_.at(uid);
      for (SavedLink& link : dir.links) {
        LinkRecord& rec = link.rec;
        if (rec.doc == kInvalidDocId) {
          HAC_RETURN_IF_ERROR(meta.links.AddForeignLink(link.name));
          continue;
        }
        if (rec.doc >= fs->registry_.TotalRecords()) {
          return Error(ErrorCode::kCorrupt, "link to unknown doc in " + dir.path);
        }
        if (rec.cls == LinkClass::kTransient && symlinked_transients) {
          auto kept = fs->vfs_.DetachSymlink(JoinPath(dir.path == "/" ? "" : dir.path,
                                                      link.name));
          if (!kept.ok()) {
            continue;  // no symlink to take over: the load-time Reindex re-derives it
          }
          rec.inode = kept.value().id;
          rec.mtime = kept.value().mtime;
        }
        HAC_RETURN_IF_ERROR(
            meta.links.AddLink(link.name, rec.doc, rec.cls, rec.inode, rec.mtime));
      }
      for (DocId doc : dir.prohibited) {
        if (doc >= fs->registry_.TotalRecords()) {
          return Error(ErrorCode::kCorrupt, "prohibition of unknown doc in " + dir.path);
        }
        meta.links.Prohibit(doc);
      }
    }

    // 6. Restore the index snapshot, then settle consistency: Reindex() flushes only
    // the records that were dirty at save time and re-derives every transient set.
    HAC_ASSIGN_OR_RETURN(uint64_t index_len, r.GetVarint());
    std::vector<uint8_t> index_image(index_len);
    HAC_RETURN_IF_ERROR(r.GetBytes(index_image.data(), index_len));
    HAC_RETURN_IF_ERROR(fs->index_->LoadSnapshot(index_image));
    HAC_RETURN_IF_ERROR(fs->Reindex());
    return fs;
  }
};

std::vector<uint8_t> HacFileSystem::SaveState() const { return HacStateCodec::Save(*this); }

Result<std::unique_ptr<HacFileSystem>> HacFileSystem::LoadState(
    const std::vector<uint8_t>& image, HacOptions options) {
  return HacStateCodec::Load(image, options);
}

}  // namespace hac

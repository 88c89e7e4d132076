#include "src/core/file_registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/durability.h"
#include "src/core/hac_file_system.h"
#include "src/support/rng.h"
#include "src/vfs/path.h"

namespace hac {
namespace {

// The full scans the per-directory index replaced, kept as the test oracle.
Bitmap ScanFilesWithin(const FileRegistry& r, const std::string& dir) {
  Bitmap out;
  for (DocId id = 0; id < r.TotalRecords(); ++id) {
    const FileRecord* rec = r.Get(id);
    if (rec->alive && PathIsWithin(rec->path, dir) && rec->path != dir) {
      out.Set(id);
    }
  }
  return out;
}

Bitmap ScanDirectChildren(const FileRegistry& r, const std::string& dir) {
  Bitmap out;
  for (DocId id = 0; id < r.TotalRecords(); ++id) {
    const FileRecord* rec = r.Get(id);
    if (rec->alive && DirName(rec->path) == dir) {
      out.Set(id);
    }
  }
  return out;
}

// `dirs` plus every ancestor of every registered path, live or dead.
std::set<std::string> DirsToProbe(const FileRegistry& r, std::set<std::string> dirs) {
  for (DocId id = 0; id < r.TotalRecords(); ++id) {
    for (std::string d = DirName(r.Get(id)->path); d != "/"; d = DirName(d)) {
      dirs.insert(d);
    }
  }
  dirs.insert("/");
  return dirs;
}

void ExpectIndexMatchesScan(const FileRegistry& r, const std::set<std::string>& dirs,
                            const std::string& where) {
  for (const std::string& d : DirsToProbe(r, dirs)) {
    EXPECT_EQ(r.FilesWithin(d).ToIds(), ScanFilesWithin(r, d).ToIds())
        << where << " FilesWithin(" << d << ")";
    EXPECT_EQ(r.DirectChildrenOf(d).ToIds(), ScanDirectChildren(r, d).ToIds())
        << where << " DirectChildrenOf(" << d << ")";
  }
}

// Rebuilds `r` record by record, the way LoadState does.
FileRegistry Restored(const FileRegistry& r) {
  FileRegistry out;
  for (DocId id = 0; id < r.TotalRecords(); ++id) {
    EXPECT_TRUE(out.RestoreRecord(*r.Get(id)).ok()) << id;
  }
  return out;
}

TEST(FileRegistryTest, AddAndLookup) {
  FileRegistry r;
  DocId id = r.Add(100, "/a/f").value();
  EXPECT_EQ(r.FindByPath("/a/f").value(), id);
  EXPECT_EQ(r.FindByInode(100).value(), id);
  const FileRecord* rec = r.Get(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->alive);
  EXPECT_TRUE(rec->dirty);  // new files need indexing
  EXPECT_FALSE(rec->remote);
}

TEST(FileRegistryTest, IdsAreDense) {
  FileRegistry r;
  EXPECT_EQ(r.Add(1, "/a").value(), 0u);
  EXPECT_EQ(r.Add(2, "/b").value(), 1u);
  EXPECT_EQ(r.Add(3, "/c").value(), 2u);
}

TEST(FileRegistryTest, DuplicatePathRejected) {
  FileRegistry r;
  ASSERT_TRUE(r.Add(1, "/a").ok());
  EXPECT_EQ(r.Add(2, "/a").code(), ErrorCode::kAlreadyExists);
}

TEST(FileRegistryTest, UniverseTracksLiveness) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  DocId b = r.Add(2, "/b").value();
  EXPECT_EQ(r.Universe().ToIds(), (std::vector<uint32_t>{a, b}));
  ASSERT_TRUE(r.Deactivate(a).ok());
  EXPECT_EQ(r.Universe().ToIds(), std::vector<uint32_t>{b});
  EXPECT_EQ(r.LiveCount(), 1u);
  EXPECT_EQ(r.TotalRecords(), 2u);  // dead record retained
  EXPECT_EQ(r.FindByPath("/a").code(), ErrorCode::kNotFound);
  EXPECT_NE(r.Get(a), nullptr);  // still inspectable
  EXPECT_FALSE(r.Get(a)->alive);
}

TEST(FileRegistryTest, DeactivateTwiceFails) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  ASSERT_TRUE(r.Deactivate(a).ok());
  EXPECT_EQ(r.Deactivate(a).code(), ErrorCode::kNotFound);
}

TEST(FileRegistryTest, PathCanBeReusedAfterDeactivation) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  ASSERT_TRUE(r.Deactivate(a).ok());
  DocId a2 = r.Add(5, "/a").value();
  EXPECT_NE(a, a2);
  EXPECT_EQ(r.FindByPath("/a").value(), a2);
}

TEST(FileRegistryTest, SetPathMovesOneFile) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  ASSERT_TRUE(r.SetPath(a, "/moved").ok());
  EXPECT_EQ(r.FindByPath("/moved").value(), a);
  EXPECT_EQ(r.FindByPath("/a").code(), ErrorCode::kNotFound);
}

TEST(FileRegistryTest, RenameSubtreeMovesAllWithin) {
  FileRegistry r;
  DocId a = r.Add(1, "/d/a").value();
  DocId b = r.Add(2, "/d/sub/b").value();
  DocId c = r.Add(3, "/elsewhere/c").value();
  r.RenameSubtree("/d", "/moved");
  EXPECT_EQ(r.Get(a)->path, "/moved/a");
  EXPECT_EQ(r.Get(b)->path, "/moved/sub/b");
  EXPECT_EQ(r.Get(c)->path, "/elsewhere/c");
  EXPECT_EQ(r.FindByPath("/moved/sub/b").value(), b);
}

TEST(FileRegistryTest, FilesWithinAndDirectChildren) {
  FileRegistry r;
  DocId a = r.Add(1, "/d/a").value();
  DocId b = r.Add(2, "/d/sub/b").value();
  DocId c = r.Add(3, "/x/c").value();
  (void)c;
  EXPECT_EQ(r.FilesWithin("/d").ToIds(), (std::vector<uint32_t>{a, b}));
  EXPECT_EQ(r.DirectChildrenOf("/d").ToIds(), std::vector<uint32_t>{a});
  EXPECT_EQ(r.FilesWithin("/").Count(), 3u);
  EXPECT_TRUE(r.FilesWithin("/nothing").Empty());
}

TEST(FileRegistryTest, DirtyTracking) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  DocId b = r.Add(2, "/b").value();
  r.ClearDirty(a);
  r.ClearDirty(b);
  EXPECT_TRUE(r.DirtyDocs().empty());
  ASSERT_TRUE(r.MarkDirty(a).ok());
  EXPECT_EQ(r.DirtyDocs(), std::vector<DocId>{a});
  // Deactivation re-dirties (the index must purge it).
  ASSERT_TRUE(r.Deactivate(b).ok());
  EXPECT_EQ(r.DirtyDocs(), (std::vector<DocId>{a, b}));
}

TEST(FileRegistryTest, RemoteIdempotentByKey) {
  FileRegistry r;
  DocId a = r.AddRemote(1, "/m/.remote/lib/doc1", "m/lib/doc1").value();
  DocId again = r.AddRemote(9, "/other/path", "m/lib/doc1").value();
  EXPECT_EQ(a, again);
  EXPECT_EQ(r.FindRemote("m/lib/doc1").value(), a);
  EXPECT_TRUE(r.Get(a)->remote);
  EXPECT_EQ(r.FindRemote("unknown").code(), ErrorCode::kNotFound);
}

// Siblings whose names extend "/d" sort around its subtree's key range: '-' and '.'
// sort before '/', '2' after it.
TEST(FileRegistryTest, SiblingPrefixesStayOutOfTheSubtree) {
  FileRegistry r;
  DocId top = r.Add(1, "/top.txt").value();
  DocId d = r.Add(2, "/d/a").value();
  DocId dash = r.Add(3, "/d-x/b").value();
  DocId dot = r.Add(4, "/d.x/c").value();
  DocId two = r.Add(5, "/d2/e").value();
  DocId deep = r.Add(6, "/d/e/f").value();
  DocId file_d = r.Add(7, "/dfile").value();
  EXPECT_EQ(r.FilesWithin("/d").ToIds(), (std::vector<uint32_t>{d, deep}));
  EXPECT_EQ(r.DirectChildrenOf("/d").ToIds(), std::vector<uint32_t>{d});
  EXPECT_EQ(r.FilesWithin("/d/e").ToIds(), std::vector<uint32_t>{deep});
  EXPECT_EQ(r.FilesWithin("/d-x").ToIds(), std::vector<uint32_t>{dash});
  EXPECT_EQ(r.FilesWithin("/d.x").ToIds(), std::vector<uint32_t>{dot});
  EXPECT_EQ(r.FilesWithin("/d2").ToIds(), std::vector<uint32_t>{two});
  EXPECT_EQ(r.DirectChildrenOf("/").ToIds(), (std::vector<uint32_t>{top, file_d}));
  EXPECT_EQ(r.FilesWithin("/").Count(), 7u);

  r.RenameSubtree("/d", "/m");
  EXPECT_EQ(r.Get(d)->path, "/m/a");
  EXPECT_EQ(r.Get(deep)->path, "/m/e/f");
  EXPECT_EQ(r.Get(dash)->path, "/d-x/b");
  EXPECT_EQ(r.Get(dot)->path, "/d.x/c");
  EXPECT_EQ(r.Get(two)->path, "/d2/e");
  EXPECT_TRUE(r.FilesWithin("/d").Empty());
  EXPECT_EQ(r.FilesWithin("/m").ToIds(), (std::vector<uint32_t>{d, deep}));
  ExpectIndexMatchesScan(r, {"/d", "/m", "/d-x", "/d.x", "/d2"}, "after rename");

  // A deactivated path can come back; only the live record is indexed.
  ASSERT_TRUE(r.Deactivate(dash).ok());
  EXPECT_TRUE(r.FilesWithin("/d-x").Empty());
  DocId again = r.Add(8, "/d-x/b").value();
  EXPECT_EQ(r.FilesWithin("/d-x").ToIds(), std::vector<uint32_t>{again});
  ExpectIndexMatchesScan(r, {"/d-x"}, "after reuse");
}

// Seeded random operation sequences: after every step the index answers exactly what
// the full scans answer, for every directory, and RenameSubtree moved exactly the
// records under the source directory.
TEST(FileRegistryTest, IndexMatchesScanOracleUnderRandomOps) {
  const std::vector<std::string> kDirs = {"/",     "/d",    "/d-x",  "/d.x",
                                          "/d2",   "/d/e",  "/d/e/f", "/d-x/e",
                                          "/z",    "/z/d"};
  for (uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    FileRegistry r;
    std::map<DocId, std::string> live;  // model: live id -> expected path
    std::set<std::string> remote_keys;
    InodeId next_inode = 1;
    int renames = 0;
    auto taken = [&](const std::string& p) {
      for (const auto& [id, path] : live) {
        if (path == p) {
          return true;
        }
      }
      return false;
    };
    auto fresh_path = [&] {
      for (;;) {
        const std::string& dir = kDirs[rng.NextBelow(kDirs.size())];
        std::string p = (dir == "/" ? "" : dir) + "/f" + std::to_string(rng.NextBelow(40));
        if (!taken(p)) {
          return p;
        }
      }
    };
    auto random_live = [&] {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      return it->first;
    };
    for (int step = 0; step < 400; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step);
      switch (rng.NextBelow(7)) {
        case 0:
        case 1: {
          const std::string p = fresh_path();
          DocId id = r.Add(next_inode++, p).value();
          live[id] = p;
          break;
        }
        case 2: {
          const std::string key = "k" + std::to_string(rng.NextBelow(8));
          const std::string p = fresh_path();
          auto id = r.AddRemote(next_inode++, p, key);
          ASSERT_TRUE(id.ok()) << where;
          if (remote_keys.insert(key).second) {
            live[id.value()] = p;
          }
          break;
        }
        case 3:
          if (!live.empty()) {
            DocId id = random_live();
            ASSERT_TRUE(r.Deactivate(id).ok()) << where;
            live.erase(id);
          }
          break;
        case 4:
          if (!live.empty()) {
            DocId id = random_live();
            const std::string p = fresh_path();
            ASSERT_TRUE(r.SetPath(id, p).ok()) << where;
            live[id] = p;
          }
          break;
        case 5: {
          // A directory rename: the target is outside the source and holds no files.
          // Half the targets are new directories, so renames happen often.
          const std::string& from = kDirs[1 + rng.NextBelow(kDirs.size() - 1)];
          std::string to = kDirs[1 + rng.NextBelow(kDirs.size() - 1)];
          if (rng.NextBool(0.5)) {
            const std::string& parent = kDirs[rng.NextBelow(kDirs.size())];
            to = (parent == "/" ? "" : parent) + "/r" + std::to_string(step);
          }
          bool target_busy = PathIsWithin(to, from) || PathIsWithin(from, to);
          for (const auto& [id, path] : live) {
            target_busy |= PathIsWithin(path, to);
          }
          if (target_busy) {
            break;
          }
          r.RenameSubtree(from, to);
          ++renames;
          for (auto& [id, path] : live) {
            if (PathIsWithin(path, from)) {
              path = RebasePath(path, from, to);
            }
          }
          break;
        }
        default:
          r = Restored(r);
          break;
      }
      for (const auto& [id, path] : live) {
        ASSERT_EQ(r.Get(id)->path, path) << where;
        ASSERT_EQ(r.FindByPath(path).value(), id) << where;
      }
      ASSERT_EQ(r.LiveCount(), live.size()) << where;
      ExpectIndexMatchesScan(r, {kDirs.begin(), kDirs.end()}, where);
      if (HasFailure()) {
        return;
      }
    }
    EXPECT_GT(renames, 10) << "seed " << seed;
  }
}

TEST(FileRegistryTest, SizeBytesCountsTheIndex) {
  // Same record count and path lengths; only the number of directories differs, so
  // the difference is the index's per-entry cost.
  FileRegistry one_dir;
  FileRegistry many_dirs;
  for (int i = 0; i < 64; ++i) {
    const std::string n = std::to_string(100 + i);
    ASSERT_TRUE(one_dir.Add(i + 1, "/dd/" + n).ok());
    ASSERT_TRUE(many_dirs.Add(i + 1, "/" + n + "/ff").ok());
  }
  const size_t one_full = one_dir.SizeBytes();
  const size_t many_full = many_dirs.SizeBytes();
  EXPECT_GE(many_full, one_full + 63 * 64);
  // Emptied entries are erased: deactivating all files but one drops 63 entries from
  // many_dirs' index and none from one_dir's.
  for (DocId id = 0; id < 63; ++id) {
    ASSERT_TRUE(one_dir.Deactivate(id).ok());
    ASSERT_TRUE(many_dirs.Deactivate(id).ok());
  }
  EXPECT_GE(many_full - many_dirs.SizeBytes(),
            one_full - one_dir.SizeBytes() + 63 * 64);
}

// For every directory holding a registered path, `rebuilt` answers as `live` does.
void ExpectSameIndex(const HacFileSystem& live, const HacFileSystem& rebuilt) {
  std::set<std::string> dirs;
  for (DocId id = 0; id < live.registry().TotalRecords(); ++id) {
    for (std::string d = live.registry().Get(id)->path; d != "/";) {
      d = DirName(d);
      dirs.insert(d);
    }
  }
  ASSERT_GT(dirs.size(), 5u);
  for (const std::string& d : dirs) {
    EXPECT_EQ(rebuilt.registry().FilesWithin(d).ToIds(),
              live.registry().FilesWithin(d).ToIds())
        << d;
    EXPECT_EQ(rebuilt.registry().DirectChildrenOf(d).ToIds(),
              live.registry().DirectChildrenOf(d).ToIds())
        << d;
    EXPECT_EQ(rebuilt.registry().FilesWithin(d).ToIds(),
              ScanFilesWithin(rebuilt.registry(), d).ToIds())
        << d;
  }
}

Result<void> BuildTree(HacFileSystem& fs) {
  for (const char* dir : {"/d", "/d-x", "/d.x", "/d2", "/d/e", "/d/e/f", "/keep"}) {
    HAC_RETURN_IF_ERROR(fs.Mkdir(dir));
  }
  HAC_RETURN_IF_ERROR(fs.WriteFile("/top.txt", "root level fingerprint"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/d/a.txt", "fingerprint alpha"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/d/e/b.txt", "fingerprint beta"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/d/e/f/c.txt", "gamma"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/d-x/c.txt", "fingerprint dash"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/d.x/c.txt", "dot"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/d2/c.txt", "two"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/keep/gone.txt", "deleted later"));
  HAC_RETURN_IF_ERROR(fs.Reindex());
  HAC_RETURN_IF_ERROR(fs.SMkdir("/sem", "fingerprint"));
  return OkResult();
}

Result<void> ChangeTree(HacFileSystem& fs) {
  HAC_RETURN_IF_ERROR(fs.Rename("/d/e", "/d2/moved"));
  HAC_RETURN_IF_ERROR(fs.Rename("/d-x/c.txt", "/d/c.txt"));
  HAC_RETURN_IF_ERROR(fs.Unlink("/keep/gone.txt"));
  HAC_RETURN_IF_ERROR(fs.WriteFile("/keep/gone.txt", "path reused"));
  return fs.Reindex();
}

TEST(FileRegistryTest, LoadStateRebuildsTheIndex) {
  HacFileSystem fs;
  ASSERT_TRUE(BuildTree(fs).ok());
  ASSERT_TRUE(ChangeTree(fs).ok());
  auto loaded = HacFileSystem::LoadState(fs.SaveState());
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  ExpectSameIndex(fs, *loaded.value());
}

TEST(FileRegistryTest, DurableRecoveryRebuildsTheIndex) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "file_registry_test_data";
  std::filesystem::remove_all(dir);
  DurabilityOptions opts;
  opts.data_dir = dir.string();
  HacFileSystem live;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(BuildTree(live).ok());
    ASSERT_TRUE(store.value()->CommitFrom(live).ok());
    ASSERT_TRUE(store.value()->Checkpoint(live).ok());
    ASSERT_TRUE(ChangeTree(live).ok());  // recovered from the WAL tail
    ASSERT_TRUE(store.value()->CommitFrom(live).ok());
  }
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto recovered = store.value()->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error().ToString();
  ExpectSameIndex(live, *recovered.value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hac

// ConsistencyEngine: diamond-shaped dependency DAGs, the batch API, the new
// link-class calls (DemoteLink / Prohibit), the SetQuery("") cache-drop regression,
// and a randomized batch-vs-eager equivalence property: the same mutation sequence
// must yield identical link sets under both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/hac_file_system.h"
#include "src/support/rng.h"

namespace hac {
namespace {

std::vector<std::string> Names(HacFileSystem& fs, const std::string& dir) {
  std::vector<std::string> out;
  auto entries = fs.ReadDir(dir);
  EXPECT_TRUE(entries.ok()) << dir;
  if (entries.ok()) {
    for (const auto& e : entries.value()) {
      out.push_back(e.name);
    }
  }
  return out;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

HacFileSystem MakeFs(ConsistencyMode mode) {
  HacOptions options;
  options.consistency = mode;
  return HacFileSystem(options);
}

class ConsistencyEngineTest : public ::testing::TestWithParam<ConsistencyMode> {
 protected:
  ConsistencyEngineTest() : fs_(MakeFs(GetParam())) {}

  void SetUp() override {
    ASSERT_TRUE(fs_.Mkdir("/docs").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/fp_img.txt", "fingerprint image ridge pixel").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/fp_crime.txt", "fingerprint murder evidence").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/img_only.txt", "image pixel raster").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/recipe.txt", "butter flour oven").ok());
    ASSERT_TRUE(fs_.Reindex().ok());
  }

  HacFileSystem fs_;
};

// --- diamond-shaped dependency DAGs ---

// /left and /right both reference /src; /join references both. One edit at the
// apex must reach the join exactly once, after both middle directories.
TEST_P(ConsistencyEngineTest, DiamondEditReachesJoinCorrectly) {
  ASSERT_TRUE(fs_.SMkdir("/src", "fingerprint").ok());
  ASSERT_TRUE(fs_.SMkdir("/left", "ALL AND dir(/src)").ok());
  ASSERT_TRUE(fs_.SMkdir("/right", "NOT murder AND dir(/src)").ok());
  ASSERT_TRUE(fs_.SMkdir("/join", "dir(/left) OR dir(/right)").ok());
  EXPECT_EQ(Names(fs_, "/join"), (std::vector<std::string>{"fp_crime.txt", "fp_img.txt"}));

  // Pin a non-matching doc at the apex: it flows through both arms into the join.
  // (Downstream transient links take the document's own base name, recipe.txt.)
  ASSERT_TRUE(fs_.Symlink("/docs/recipe.txt", "/src/pinned.txt").ok());
  EXPECT_TRUE(Contains(Names(fs_, "/join"), "recipe.txt"));
  EXPECT_TRUE(Contains(Names(fs_, "/left"), "recipe.txt"));
  EXPECT_TRUE(Contains(Names(fs_, "/right"), "recipe.txt"));

  // And back out again when the pin is removed (prohibition at the apex only).
  ASSERT_TRUE(fs_.Unlink("/src/pinned.txt").ok());
  EXPECT_FALSE(Contains(Names(fs_, "/join"), "recipe.txt"));
}

TEST_P(ConsistencyEngineTest, DiamondJoinVisitedOncePerPass) {
  ASSERT_TRUE(fs_.SMkdir("/src", "fingerprint").ok());
  ASSERT_TRUE(fs_.SMkdir("/left", "ALL AND dir(/src)").ok());
  ASSERT_TRUE(fs_.SMkdir("/right", "ALL AND dir(/src)").ok());
  ASSERT_TRUE(fs_.SMkdir("/join", "dir(/left) OR dir(/right)").ok());
  (void)Names(fs_, "/join");  // settle

  uint64_t before = fs_.Stats().scope_propagations;
  ASSERT_TRUE(fs_.Symlink("/docs/recipe.txt", "/src/pinned.txt").ok());
  (void)Names(fs_, "/join");
  uint64_t visits = fs_.Stats().scope_propagations - before;
  // Topological order: src, left, right, join — the join must not be re-evaluated
  // once per incoming edge. (Eager counts syntactic visits too; allow headroom but
  // rule out the 2x join blow-up a DFS would produce: src+left+right+join+root+docs.)
  EXPECT_LE(visits, 6u);
}

TEST_P(ConsistencyEngineTest, DiamondQueryChangeAtApexRefreshesJoin) {
  ASSERT_TRUE(fs_.SMkdir("/src", "fingerprint").ok());
  ASSERT_TRUE(fs_.SMkdir("/left", "image AND dir(/src)").ok());
  ASSERT_TRUE(fs_.SMkdir("/right", "murder AND dir(/src)").ok());
  ASSERT_TRUE(fs_.SMkdir("/join", "dir(/left) OR dir(/right)").ok());
  EXPECT_EQ(Names(fs_, "/join"), (std::vector<std::string>{"fp_crime.txt", "fp_img.txt"}));

  ASSERT_TRUE(fs_.SetQuery("/src", "butter").ok());
  // Neither arm matches recipe.txt, so the join empties.
  EXPECT_TRUE(Names(fs_, "/join").empty());
  ASSERT_TRUE(fs_.SetQuery("/src", "image").ok());
  EXPECT_EQ(Names(fs_, "/join"), (std::vector<std::string>{"fp_img.txt", "img_only.txt"}));
}

// --- batch API ---

TEST_P(ConsistencyEngineTest, BatchCoalescesMutations) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  (void)Names(fs_, "/q");
  {
    BatchScope batch(fs_);
    EXPECT_TRUE(fs_.InBatch());
    ASSERT_TRUE(fs_.Symlink("/docs/recipe.txt", "/q/a.txt").ok());
    ASSERT_TRUE(fs_.Symlink("/docs/img_only.txt", "/q/b.txt").ok());
    ASSERT_TRUE(batch.Commit().ok());
  }
  EXPECT_FALSE(fs_.InBatch());
  auto names = Names(fs_, "/q");
  EXPECT_TRUE(Contains(names, "a.txt"));
  EXPECT_TRUE(Contains(names, "b.txt"));
  if (GetParam() == ConsistencyMode::kIncremental) {
    EXPECT_EQ(fs_.Stats().batched_mutations, 2u);
    EXPECT_EQ(fs_.Stats().batch_flushes, 1u);
  }
}

TEST_P(ConsistencyEngineTest, ReaderInsideBatchForcesFlush) {
  ASSERT_TRUE(fs_.SMkdir("/q", "butter").ok());
  BatchScope batch(fs_);
  ASSERT_TRUE(fs_.Symlink("/docs/fp_img.txt", "/q/pin.txt").ok());
  // A reader mid-batch must still observe a consistent link set.
  EXPECT_TRUE(Contains(Names(fs_, "/q"), "pin.txt"));
  ASSERT_TRUE(batch.Commit().ok());
}

TEST_P(ConsistencyEngineTest, NestedBatchesFlushAtOutermostEnd) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  fs_.BeginBatch();
  fs_.BeginBatch();
  ASSERT_TRUE(fs_.Symlink("/docs/recipe.txt", "/q/pin.txt").ok());
  ASSERT_TRUE(fs_.EndBatch().ok());
  EXPECT_TRUE(fs_.InBatch());  // inner End does not close the outer batch
  ASSERT_TRUE(fs_.EndBatch().ok());
  EXPECT_FALSE(fs_.InBatch());
  EXPECT_TRUE(Contains(Names(fs_, "/q"), "pin.txt"));
}

TEST_P(ConsistencyEngineTest, UnbalancedEndBatchFails) {
  EXPECT_FALSE(fs_.EndBatch().ok());
}

TEST_P(ConsistencyEngineTest, BatchScopeDestructorEndsBatch) {
  {
    BatchScope batch(fs_);
    EXPECT_TRUE(fs_.InBatch());
  }
  EXPECT_FALSE(fs_.InBatch());
}

// --- SetQuery("") regression: reverting to syntactic must drop cached state ---

TEST_P(ConsistencyEngineTest, ClearedQueryDropsCachedEvaluation) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  EXPECT_EQ(Names(fs_, "/q").size(), 2u);
  ASSERT_TRUE(fs_.SetQuery("/q", "").ok());
  EXPECT_TRUE(Names(fs_, "/q").empty());

  // New matching content while /q is syntactic must not resurrect anything, and a
  // later re-query must evaluate fresh — not from the stale cached result.
  ASSERT_TRUE(fs_.WriteFile("/docs/fp_new.txt", "fingerprint whorl").ok());
  ASSERT_TRUE(fs_.Reindex().ok());
  EXPECT_TRUE(Names(fs_, "/q").empty());
  ASSERT_TRUE(fs_.SetQuery("/q", "butter").ok());
  EXPECT_EQ(Names(fs_, "/q"), std::vector<std::string>{"recipe.txt"});
}

TEST_P(ConsistencyEngineTest, ClearedQueryDetachesDependents) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(fs_.SMkdir("/view", "ALL AND dir(/q)").ok());
  EXPECT_EQ(Names(fs_, "/view").size(), 2u);
  // /q goes syntactic: its contents are now just its (empty) link set, and the
  // dependent view must re-evaluate to empty rather than serve stale membership.
  ASSERT_TRUE(fs_.SetQuery("/q", "").ok());
  EXPECT_TRUE(Names(fs_, "/view").empty());
  ASSERT_TRUE(fs_.Symlink("/docs/recipe.txt", "/q/pin.txt").ok());
  EXPECT_EQ(Names(fs_, "/view"), std::vector<std::string>{"recipe.txt"});
}

// --- link-class API symmetry ---

TEST_P(ConsistencyEngineTest, DemoteLinkHandsLinkBackToHac) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(fs_.PromoteLink("/q/fp_crime.txt").ok());
  // Promoted links survive a narrowing query...
  ASSERT_TRUE(fs_.SetQuery("/q", "fingerprint AND NOT murder").ok());
  EXPECT_TRUE(Contains(Names(fs_, "/q"), "fp_crime.txt"));
  // ...until demoted, at which point re-evaluation removes them.
  ASSERT_TRUE(fs_.DemoteLink("/q/fp_crime.txt").ok());
  EXPECT_FALSE(Contains(Names(fs_, "/q"), "fp_crime.txt"));
}

TEST_P(ConsistencyEngineTest, DemoteLinkStillMatchingStaysTransient) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(fs_.PromoteLink("/q/fp_img.txt").ok());
  ASSERT_TRUE(fs_.DemoteLink("/q/fp_img.txt").ok());
  // Still selected by the query, so it remains — as a transient link again.
  auto classes = fs_.GetLinkClasses("/q").value();
  EXPECT_TRUE(classes.permanent.empty());
  EXPECT_EQ(classes.transient.size(), 2u);
}

TEST_P(ConsistencyEngineTest, DemoteLinkErrors) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  EXPECT_FALSE(fs_.DemoteLink("/q/no_such_link.txt").ok());
  // Foreign links carry no document to hand back.
  ASSERT_TRUE(fs_.Symlink("/nowhere/outside.txt", "/q/foreign.txt").ok());
  auto r = fs_.DemoteLink("/q/foreign.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
}

TEST_P(ConsistencyEngineTest, ProhibitByPathEvictsAndRemembers) {
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(fs_.Prohibit("/q", "/docs/fp_crime.txt").ok());
  EXPECT_EQ(Names(fs_, "/q"), std::vector<std::string>{"fp_img.txt"});
  // Still out after a query change (same memory as Unlink-of-transient).
  ASSERT_TRUE(fs_.SetQuery("/q", "fingerprint OR murder").ok());
  EXPECT_EQ(Names(fs_, "/q"), std::vector<std::string>{"fp_img.txt"});
  ASSERT_TRUE(fs_.Unprohibit("/q", "/docs/fp_crime.txt").ok());
  EXPECT_TRUE(Contains(Names(fs_, "/q"), "fp_crime.txt"));
}

TEST_P(ConsistencyEngineTest, ProhibitUnlinkedFileIsPreemptive) {
  ASSERT_TRUE(fs_.SMkdir("/q", "butter").ok());
  // recipe.txt is linked; img_only.txt is not — prohibiting it is a standing veto.
  ASSERT_TRUE(fs_.Prohibit("/q", "/docs/img_only.txt").ok());
  ASSERT_TRUE(fs_.SetQuery("/q", "butter OR image").ok());
  auto names = Names(fs_, "/q");
  EXPECT_FALSE(Contains(names, "img_only.txt"));
  EXPECT_TRUE(Contains(names, "fp_img.txt"));
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ConsistencyEngineTest,
                         ::testing::Values(ConsistencyMode::kEager,
                                           ConsistencyMode::kIncremental),
                         [](const auto& param_info) {
                           return param_info.param == ConsistencyMode::kEager
                                      ? "Eager"
                                      : "Incremental";
                         });

// Both engines visit a pass in one topological order, so a Reindex hands out the new
// transient links' inode ids in the same order and the two engines write
// byte-identical state images. /c (uid 4) sits one level above /a/b (uid 3), so it is
// visited first although its uid is larger.
TEST(EngineOrderTest, BothEnginesWriteIdenticalImages) {
  auto image = [](ConsistencyMode mode) {
    HacFileSystem fs = MakeFs(mode);
    EXPECT_TRUE(fs.SMkdir("/a", "fingerprint").ok());
    EXPECT_TRUE(fs.SMkdir("/a/b", "image").ok());
    EXPECT_TRUE(fs.SMkdir("/c", "fingerprint OR butter").ok());
    // New files reach the semantic directories at the next Reindex.
    EXPECT_TRUE(fs.WriteFile("/fp_img.txt", "fingerprint image ridge pixel").ok());
    EXPECT_TRUE(fs.WriteFile("/fp_crime.txt", "fingerprint murder evidence").ok());
    EXPECT_TRUE(fs.WriteFile("/recipe.txt", "butter flour oven").ok());
    EXPECT_TRUE(fs.Reindex().ok());
    EXPECT_EQ(Names(fs, "/a/b"), std::vector<std::string>{"fp_img.txt"});
    EXPECT_EQ(Names(fs, "/c").size(), 3u);
    return fs.SaveState();
  };
  EXPECT_EQ(image(ConsistencyMode::kEager), image(ConsistencyMode::kIncremental));
}

// --- batch-vs-eager equivalence property ---
//
// The same randomized mutation sequence is applied to an eager instance and to an
// incremental instance (mutations grouped into batches); at every synchronization
// point both must expose identical link sets. Transient links are compared by
// *target* (tie-breaking of collision-suffixed names may differ between one big
// batched materialization and many eager ones; the paper's invariant is about
// membership, not suffixes).
class EquivalenceChecker {
 public:
  EquivalenceChecker()
      : eager_(MakeFs(ConsistencyMode::kEager)),
        incr_(MakeFs(ConsistencyMode::kIncremental)) {}

  // Applies `op` to both instances; they must agree on success.
  template <typename Op>
  void Apply(const Op& op, const std::string& what) {
    Result<void> a = op(eager_);
    Result<void> b = op(incr_);
    ASSERT_EQ(a.ok(), b.ok()) << what << ": eager="
                              << (a.ok() ? "ok" : a.error().ToString())
                              << " incremental="
                              << (b.ok() ? "ok" : b.error().ToString());
  }

  void CompareDir(const std::string& dir) {
    auto a = eager_.GetLinkClasses(dir);
    auto b = incr_.GetLinkClasses(dir);
    ASSERT_EQ(a.ok(), b.ok()) << dir;
    if (!a.ok()) {
      return;
    }
    auto targets = [](const std::vector<std::pair<std::string, std::string>>& v) {
      std::multiset<std::string> out;
      for (const auto& [name, target] : v) {
        out.insert(target);
      }
      return out;
    };
    EXPECT_EQ(targets(a.value().transient), targets(b.value().transient))
        << "transient sets diverge in " << dir;
    EXPECT_EQ(a.value().permanent, b.value().permanent)
        << "permanent sets diverge in " << dir;
    std::multiset<std::string> pa(a.value().prohibited.begin(),
                                  a.value().prohibited.end());
    std::multiset<std::string> pb(b.value().prohibited.begin(),
                                  b.value().prohibited.end());
    EXPECT_EQ(pa, pb) << "prohibited sets diverge in " << dir;
  }

  HacFileSystem eager_;
  HacFileSystem incr_;
};

TEST(BatchEagerEquivalenceTest, RandomizedMutationSequence) {
  EquivalenceChecker eq;
  Rng rng(20260806);

  const std::vector<std::string> words = {"fingerprint", "image",  "murder",
                                          "butter",      "pixel",  "ridge",
                                          "evidence",    "raster", "oven"};
  const std::vector<std::string> queries = {
      "fingerprint",
      "image OR butter",
      "fingerprint AND NOT murder",
      "pixel OR ridge",
      "",
      "oven",
  };
  const std::vector<std::string> dirs = {"/qa", "/qb", "/qc"};

  auto apply = [&](auto op, const std::string& what) { eq.Apply(op, what); };

  apply([](HacFileSystem& fs) { return fs.Mkdir("/docs"); }, "mkdir /docs");
  std::vector<std::string> files;
  for (int i = 0; i < 12; ++i) {
    std::string body = words[rng.NextBelow(words.size())] + " " +
                       words[rng.NextBelow(words.size())] + " " +
                       words[rng.NextBelow(words.size())];
    std::string path = "/docs/f" + std::to_string(i) + ".txt";
    files.push_back(path);
    apply([&](HacFileSystem& fs) { return fs.WriteFile(path, body); }, "write " + path);
  }
  apply([](HacFileSystem& fs) { return fs.Reindex(); }, "reindex");
  apply([&](HacFileSystem& fs) { return fs.SMkdir("/qa", "fingerprint"); }, "smkdir qa");
  apply([&](HacFileSystem& fs) { return fs.SMkdir("/qb", "image OR butter"); },
        "smkdir qb");
  apply([&](HacFileSystem& fs) { return fs.SMkdir("/qc", "pixel AND dir(/qa)"); },
        "smkdir qc");

  int next_file = 12;
  int next_pin = 0;
  for (int round = 0; round < 6; ++round) {
    // Batched phase: view-independent mutations, coalesced on the incremental side.
    {
      BatchScope ba(eq.eager_);   // no-op for the eager engine, by contract
      BatchScope bb(eq.incr_);
      for (int i = 0; i < 8; ++i) {
        switch (rng.NextBelow(4)) {
          case 0: {  // new content
            std::string body = words[rng.NextBelow(words.size())] + " " +
                               words[rng.NextBelow(words.size())];
            std::string path = "/docs/f" + std::to_string(next_file++) + ".txt";
            files.push_back(path);
            apply([&](HacFileSystem& fs) { return fs.WriteFile(path, body); },
                  "write " + path);
            break;
          }
          case 1: {  // pin a doc into a semantic dir
            const std::string& dir = dirs[rng.NextBelow(dirs.size())];
            const std::string& target = files[rng.NextBelow(files.size())];
            std::string link = dir + "/pin" + std::to_string(next_pin++);
            apply([&](HacFileSystem& fs) { return fs.Symlink(target, link); },
                  "pin " + link);
            break;
          }
          case 2: {  // retarget a query
            const std::string& dir = dirs[rng.NextBelow(dirs.size())];
            const std::string& q = queries[rng.NextBelow(queries.size())];
            apply([&](HacFileSystem& fs) { return fs.SetQuery(dir, q); },
                  "setquery " + dir + " '" + q + "'");
            break;
          }
          default: {  // prohibit a doc somewhere (works linked or not)
            const std::string& dir = dirs[rng.NextBelow(dirs.size())];
            const std::string& target = files[rng.NextBelow(files.size())];
            apply([&](HacFileSystem& fs) { return fs.Prohibit(dir, target); },
                  "prohibit " + target + " in " + dir);
            break;
          }
        }
      }
      ASSERT_TRUE(ba.Commit().ok());
      ASSERT_TRUE(bb.Commit().ok());
    }
    for (const std::string& dir : dirs) {
      eq.CompareDir(dir);
    }

    // View-dependent phase (both sides flushed by the comparison above): act on
    // links the engines actually materialized.
    auto classes = eq.eager_.GetLinkClasses(dirs[rng.NextBelow(dirs.size())]);
    ASSERT_TRUE(classes.ok());
    const std::string dir = dirs[(round + 1) % dirs.size()];
    auto view = eq.eager_.GetLinkClasses(dir);
    ASSERT_TRUE(view.ok());
    if (!view.value().transient.empty()) {
      const auto& [name, target] =
          view.value().transient[rng.NextBelow(view.value().transient.size())];
      std::string link = dir + "/" + name;
      switch (rng.NextBelow(3)) {
        case 0:
          apply([&](HacFileSystem& fs) { return fs.Unlink(link); }, "unlink " + link);
          break;
        case 1:
          apply([&](HacFileSystem& fs) { return fs.PromoteLink(link); },
                "promote " + link);
          break;
        default:
          apply([&](HacFileSystem& fs) { return fs.Unprohibit(dir, target); },
                "unprohibit " + target);
          break;
      }
    }
    if (!view.value().permanent.empty() && rng.NextBool(0.6)) {
      const auto& [name, target] =
          view.value().permanent[rng.NextBelow(view.value().permanent.size())];
      apply([&](HacFileSystem& fs) { return fs.DemoteLink(dir + "/" + name); },
            "demote " + name);
      (void)target;
    }
    if (!view.value().prohibited.empty() && rng.NextBool(0.5)) {
      const std::string target =
          view.value().prohibited[rng.NextBelow(view.value().prohibited.size())];
      apply([&](HacFileSystem& fs) { return fs.Unprohibit(dir, target); },
            "unprohibit " + target);
    }
    apply([](HacFileSystem& fs) { return fs.Reindex(); }, "round reindex");
    for (const std::string& d : dirs) {
      eq.CompareDir(d);
    }
  }

  // Final settle: everything indexed, every cache warm, sets still identical.
  apply([](HacFileSystem& fs) { return fs.Reindex(); }, "final reindex");
  for (const std::string& d : dirs) {
    eq.CompareDir(d);
  }
  // The incremental engine must actually have taken the cheap paths somewhere in a
  // workload this size — otherwise the A/B switch is vacuous.
  StatsSnapshot incr = eq.incr_.Stats();
  StatsSnapshot eager = eq.eager_.Stats();
  EXPECT_GT(incr.batched_mutations, 0u);
  EXPECT_LT(incr.query_evaluations, eager.query_evaluations);
}

}  // namespace
}  // namespace hac

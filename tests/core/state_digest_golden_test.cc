// Golden digests: the observable name space, pinned.
//
// Fixed-seed semantic workloads — smkdir, query changes, every link-class edit, file
// creation, overwrite, rename and unlink, directory renames — run under both
// consistency engines, and StateDigest is taken after every Reindex(). The expected
// values were computed by an implementation that stored transient links as VFS
// symlinks, so a change to how links are kept or served that any client could observe
// shows up here.
//
// Each round edits links first, while every link target is current, and only then
// moves files: a link observed between a file rename and the next pass may name the
// file's old path in a symlink-backed implementation (docs/API.md).
//
// The v2 fixture (testdata/hac_state_v2.img) is a SaveState image of workload seed 5
// after two rounds, written by that implementation (version 2: transient links stored
// in the VFS image). Loading it must reproduce the same name space.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "src/core/hac_file_system.h"
#include "src/support/rng.h"
#include "src/tools/fsck.h"
#include "src/vfs/path.h"

namespace hac {
namespace {

const std::vector<std::string> kWords = {"alpha", "bravo", "charlie", "delta",
                                         "echo",  "foxtrot", "golf", "hotel"};

class Workload {
 public:
  Workload(uint64_t seed, ConsistencyMode mode) : rng_(seed), fs_(Options(mode)) {}

  HacFileSystem& fs() { return fs_; }

  // Builds the library and the semantic directories; returns the digests taken after
  // the set-up and after each of `rounds` rounds.
  std::vector<uint64_t> Run(int rounds) {
    std::vector<uint64_t> digests;
    for (const std::string& d : docdirs_) {
      EXPECT_TRUE(fs_.MkdirAll(d).ok());
    }
    EXPECT_TRUE(fs_.Mkdir("/home").ok());
    for (int i = 0; i < 24; ++i) {
      NewFile();
    }
    EXPECT_TRUE(fs_.Reindex().ok());
    for (const auto& [path, query] :
         std::vector<std::pair<std::string, std::string>>{
             {"/q0", Word()},
             {"/q0/n", Word()},
             {"/q1", Word() + " OR " + Word()},
             {"/home/q2", Word() + " AND dir(/docs/d1)"}}) {
      EXPECT_TRUE(fs_.SMkdir(path, query).ok()) << path;
      sdirs_.push_back(path);
    }
    EXPECT_TRUE(fs_.Reindex().ok());
    digests.push_back(StateDigest(fs_));
    for (int round = 0; round < rounds; ++round) {
      for (int step = 0; step < 12; ++step) {
        EditLinks();
      }
      for (int step = 0; step < 12; ++step) {
        EditFiles();
      }
      EXPECT_TRUE(fs_.Reindex().ok());
      digests.push_back(StateDigest(fs_));
    }
    return digests;
  }

 private:
  static HacOptions Options(ConsistencyMode mode) {
    HacOptions options;
    options.consistency = mode;
    return options;
  }

  std::string Word() { return kWords[rng_.NextBelow(kWords.size())]; }
  std::string Fresh(const std::string& prefix) { return prefix + std::to_string(next_++); }

  std::string Content() {
    std::string out;
    for (size_t i = 0, n = 3 + rng_.NextBelow(6); i < n; ++i) {
      out += kWords[rng_.NextZipf(kWords.size(), 0.8)] + " ";
    }
    return out;
  }

  std::string Query() {
    switch (rng_.NextBelow(5)) {
      case 0:
        return "";  // back to syntactic
      case 1:
        return Word() + " AND " + Word();
      case 2:
        return Word() + " OR " + Word();
      case 3:
        return Word() + " AND NOT " + Word();
      default:
        return Word();
    }
  }

  void NewFile() {
    std::string path = rng_.Pick(docdirs_) + "/" + Fresh("f") + ".txt";
    EXPECT_TRUE(fs_.WriteFile(path, Content()).ok()) << path;
    files_.push_back(path);
  }

  // A symlink in a random semantic directory, or "" if it holds none.
  std::string PickLink(const std::string& dir) {
    auto entries = fs_.ReadDir(dir);
    std::vector<std::string> links;
    if (entries.ok()) {
      for (const DirEntry& e : entries.value()) {
        if (e.type == NodeType::kSymlink) {
          links.push_back(JoinPath(dir, e.name));
        }
      }
    }
    return links.empty() ? "" : rng_.Pick(links);
  }

  // Moves every tracked path under `from` to `to`.
  static void Rebase(std::vector<std::string>& paths, const std::string& from,
                     const std::string& to) {
    for (std::string& p : paths) {
      if (PathIsWithin(p, from)) {
        p = to + p.substr(from.size());
      }
    }
  }

  void EditLinks() {
    const std::string dir = rng_.Pick(sdirs_);
    switch (rng_.NextBelow(9)) {
      case 0:
        (void)fs_.SetQuery(dir, Query());
        break;
      case 1:
        if (std::string link = PickLink(dir); !link.empty()) {
          (void)fs_.Unlink(link);  // prohibits a tracked doc
        }
        break;
      case 2: {
        const std::string& file = rng_.Pick(files_);
        if (rng_.NextBool()) {
          (void)fs_.Prohibit(dir, file);
        } else {
          (void)fs_.Unprohibit(dir, file);
        }
        break;
      }
      case 3:
        if (std::string link = PickLink(dir); !link.empty()) {
          (void)fs_.PromoteLink(link);
        }
        break;
      case 4:
        if (std::string link = PickLink(dir); !link.empty()) {
          (void)fs_.DemoteLink(link);
        }
        break;
      case 5:
        (void)fs_.Symlink(rng_.Pick(files_), JoinPath(dir, Fresh("pin")));
        break;
      case 6:
        if (std::string link = PickLink(dir); !link.empty()) {
          (void)fs_.Rename(link, JoinPath(rng_.Pick(sdirs_), Fresh("mv")));
        }
        break;
      case 7: {
        std::string path = JoinPath(rng_.NextBool() ? dir : "/home", Fresh("s"));
        if (fs_.SMkdir(path, Word()).ok()) {
          sdirs_.push_back(path);
        }
        break;
      }
      default:
        (void)fs_.SSync(dir);
        break;
    }
  }

  void EditFiles() {
    switch (rng_.NextBelow(7)) {
      case 0:
        NewFile();
        break;
      case 1:
        (void)fs_.WriteFile(rng_.Pick(files_), Content());
        break;
      case 2: {
        if (files_.size() > 8) {
          const size_t i = rng_.NextBelow(files_.size());
          (void)fs_.Unlink(files_[i]);
          files_.erase(files_.begin() + static_cast<long>(i));
        }
        break;
      }
      case 3:
      case 4: {
        std::string& file = files_[rng_.NextBelow(files_.size())];
        std::string to = rng_.Pick(docdirs_) + "/" + Fresh("m") + ".txt";
        if (fs_.Rename(file, to).ok()) {
          file = to;
        }
        break;
      }
      case 5: {
        std::string& d = docdirs_[rng_.NextBelow(docdirs_.size())];
        std::string to = d + "_" + std::to_string(next_++);
        if (fs_.Rename(d, to).ok()) {
          Rebase(files_, d, to);
          d = to;
        }
        break;
      }
      default: {
        std::string d = rng_.Pick(sdirs_);
        std::string to = JoinPath(DirName(d), Fresh("r"));
        if (fs_.Rename(d, to).ok()) {
          Rebase(sdirs_, d, to);
        }
        break;
      }
    }
  }

  Rng rng_;
  HacFileSystem fs_;
  std::vector<std::string> docdirs_ = {"/docs/d0", "/docs/d1", "/docs/d2"};
  std::vector<std::string> files_;
  std::vector<std::string> sdirs_;
  int next_ = 0;
};

struct GoldenCase {
  uint64_t seed;
  ConsistencyMode mode;
  std::vector<uint64_t> digests;  // after set-up, then after each round
};

std::string Render(const std::vector<uint64_t>& digests) {
  std::string out;
  for (uint64_t d : digests) {
    out += std::to_string(d) + "ull, ";
  }
  return out;
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigestTest, PostReindexDigestsMatch) {
  const GoldenCase& c = GetParam();
  Workload w(c.seed, c.mode);
  std::vector<uint64_t> got = w.Run(static_cast<int>(c.digests.size()) - 1);
  EXPECT_EQ(got, c.digests) << "got: " << Render(got);
  FsckReport report = RunFsck(w.fs());
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

constexpr ConsistencyMode kIncremental = ConsistencyMode::kIncremental;
constexpr ConsistencyMode kEager = ConsistencyMode::kEager;

// Both engines keep identical link sets at every read point, so they share digests.
const std::vector<uint64_t> kSeed1 = {11281028601639722019ull, 11595275706506789853ull,
    10293941196232161642ull, 17075140002862942839ull, 5204551247028458879ull,
    15479504841578487886ull, 13753602151529247499ull};
// Seeds 2 and 3 move a link into a directory that already links its doc; since that
// promotes the existing link, their digests from that round on differ from the
// symlink-backed implementation's, which left it transient.
const std::vector<uint64_t> kSeed2 = {16758756823830975903ull, 3885473858586597808ull,
    2293649442322780821ull, 13835230460788917013ull, 724555297476638333ull,
    1869479095496500638ull, 5330486742870787807ull};
const std::vector<uint64_t> kSeed3 = {10906601354628282863ull, 15638388294492253948ull,
    11959130469883215160ull, 5908054086446255017ull, 5413597219642632899ull,
    13876317290309735931ull, 2052005810804551714ull};

INSTANTIATE_TEST_SUITE_P(
    Seeds, GoldenDigestTest,
    ::testing::Values(GoldenCase{1, kIncremental, kSeed1}, GoldenCase{1, kEager, kSeed1},
                      GoldenCase{2, kIncremental, kSeed2}, GoldenCase{2, kEager, kSeed2},
                      GoldenCase{3, kIncremental, kSeed3}, GoldenCase{3, kEager, kSeed3}),
    [](const ::testing::TestParamInfo<GoldenCase>& param) {
      return "Seed" + std::to_string(param.param.seed) +
             (param.param.mode == kEager ? "Eager" : "Incremental");
    });

constexpr uint64_t kV2FixtureDigest = 3762509026405326049ull;
constexpr uint64_t kSeed5LiveDigest = 1238291446980260115ull;

TEST(StateImageV2Test, LoadsAndReproducesTheNameSpace) {
  std::ifstream in(std::string(HAC_SOURCE_DIR) + "/tests/core/testdata/hac_state_v2.img",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "fixture not found under " << HAC_SOURCE_DIR;
  std::vector<uint8_t> image((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  ASSERT_GE(image.size(), 8u);
  EXPECT_EQ(image[4], 2u);  // little-endian version word: a v2 image

  auto loaded = HacFileSystem::LoadState(image);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  HacFileSystem& fs = *loaded.value();
  EXPECT_EQ(StateDigest(fs), kV2FixtureDigest);
  // Structural audit (its C3 also finds any transient link left stored in the VFS).
  // Scope is not audited: this state holds a link moved into a directory that already
  // linked its doc. The move recorded an unpinned alias, which the scope audit (C4)
  // flags in the implementation that wrote the image and in this one alike.
  FsckReport report = RunFsck(fs, FsckOptions{/*check_scope=*/false});
  EXPECT_TRUE(report.Clean()) << report.ToString();

  // A v3 round trip keeps it.
  auto again = HacFileSystem::LoadState(fs.SaveState());
  ASSERT_TRUE(again.ok()) << again.error().ToString();
  EXPECT_EQ(StateDigest(*again.value()), kV2FixtureDigest);

  // The same workload run live pins that doc: moving a link next to a link of its doc
  // promotes the existing link (/r45/f9.txt), as Symlink does, so the live state
  // digests differently and passes the scope audit. Promoting that link in the image
  // is all the image needs to pass it too.
  Workload live(5, kIncremental);
  EXPECT_EQ(live.Run(2).back(), kSeed5LiveDigest);
  FsckReport live_report = RunFsck(live.fs());
  EXPECT_TRUE(live_report.Clean()) << live_report.ToString();
  ASSERT_TRUE(fs.PromoteLink("/r45/f9.txt").ok());
  report = RunFsck(fs);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

}  // namespace
}  // namespace hac

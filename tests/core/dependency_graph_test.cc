#include "src/core/dependency_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/support/rng.h"

namespace hac {
namespace {

TEST(DependencyGraphTest, AddAndDuplicateNode) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  EXPECT_TRUE(g.HasNode(1));
  EXPECT_EQ(g.AddNode(1).code(), ErrorCode::kAlreadyExists);
}

TEST(DependencyGraphTest, SetDependenciesBasics) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  ASSERT_TRUE(g.AddNode(2).ok());
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  EXPECT_EQ(g.DependenciesOf(2), std::vector<DirUid>{1});
  EXPECT_EQ(g.DirectDependentsOf(1), std::vector<DirUid>{2});
}

TEST(DependencyGraphTest, SetDependenciesReplacesOldEdges) {
  DependencyGraph g;
  for (DirUid u : {1, 2, 3}) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  ASSERT_TRUE(g.SetDependencies(3, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(3, {2}).ok());
  EXPECT_EQ(g.DependenciesOf(3), std::vector<DirUid>{2});
  EXPECT_TRUE(g.DirectDependentsOf(1).empty());
}

TEST(DependencyGraphTest, SelfLoopRejected) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  EXPECT_EQ(g.SetDependencies(1, {1}).code(), ErrorCode::kCycle);
}

TEST(DependencyGraphTest, UnknownNodesRejected) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  EXPECT_EQ(g.SetDependencies(1, {99}).code(), ErrorCode::kNotFound);
  EXPECT_EQ(g.SetDependencies(99, {1}).code(), ErrorCode::kNotFound);
}

TEST(DependencyGraphTest, TwoNodeCycleRejected) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  ASSERT_TRUE(g.AddNode(2).ok());
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  EXPECT_EQ(g.SetDependencies(1, {2}).code(), ErrorCode::kCycle);
  // Graph unchanged by the failed update.
  EXPECT_TRUE(g.DependenciesOf(1).empty());
}

TEST(DependencyGraphTest, LongCycleRejected) {
  DependencyGraph g;
  for (DirUid u = 1; u <= 5; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  for (DirUid u = 2; u <= 5; ++u) {
    ASSERT_TRUE(g.SetDependencies(u, {u - 1}).ok());
  }
  EXPECT_EQ(g.SetDependencies(1, {5}).code(), ErrorCode::kCycle);
}

TEST(DependencyGraphTest, KeepingAnExistingEdgeIsNotACycle) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  ASSERT_TRUE(g.AddNode(2).ok());
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  // Re-setting the same dependency set must succeed.
  EXPECT_TRUE(g.SetDependencies(2, {1}).ok());
}

TEST(DependencyGraphTest, DiamondIsAllowed) {
  DependencyGraph g;
  for (DirUid u = 1; u <= 4; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(3, {1}).ok());
  EXPECT_TRUE(g.SetDependencies(4, {2, 3}).ok());
}

TEST(DependencyGraphTest, RemoveNodeRules) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  ASSERT_TRUE(g.AddNode(2).ok());
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  EXPECT_EQ(g.RemoveNode(1).code(), ErrorCode::kBusy);  // 2 depends on it
  ASSERT_TRUE(g.RemoveNode(2).ok());
  EXPECT_TRUE(g.RemoveNode(1).ok());
  EXPECT_EQ(g.RemoveNode(1).code(), ErrorCode::kNotFound);
}

TEST(DependencyGraphTest, DependentsTopoOrderRespectsEdges) {
  DependencyGraph g;
  // 1 <- 2 <- 4 ; 1 <- 3 ; 4 also depends on 3 (diamond).
  for (DirUid u = 1; u <= 4; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(3, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(4, {2, 3}).ok());

  auto order = g.AffectedInTopoOrder({1});
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](DirUid u) {
    return std::find(order.begin(), order.end(), u) - order.begin();
  };
  // The changed node comes first, then its dependents after their dependencies.
  EXPECT_EQ(order.front(), 1u);
  EXPECT_LT(pos(2), pos(4));
  EXPECT_LT(pos(3), pos(4));
}

TEST(DependencyGraphTest, DependentsOfLeafIsEmpty) {
  DependencyGraph g;
  ASSERT_TRUE(g.AddNode(1).ok());
  ASSERT_TRUE(g.AddNode(2).ok());
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  EXPECT_EQ(g.AffectedInTopoOrder({2}), std::vector<DirUid>{2});
  // A source that is not a node contributes nothing.
  EXPECT_TRUE(g.AffectedInTopoOrder({9}).empty());
}

TEST(DependencyGraphTest, FullTopoOrderIsValid) {
  DependencyGraph g;
  for (DirUid u = 1; u <= 6; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(3, {1, 2}).ok());
  ASSERT_TRUE(g.SetDependencies(4, {3}).ok());
  ASSERT_TRUE(g.SetDependencies(5, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(6, {5, 4}).ok());
  auto order = g.FullTopoOrder();
  ASSERT_EQ(order.size(), 6u);
  std::unordered_map<DirUid, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = i;
  }
  for (DirUid u = 1; u <= 6; ++u) {
    for (DirUid dep : g.DependenciesOf(u)) {
      EXPECT_LT(pos[dep], pos[u]) << dep << " must precede " << u;
    }
  }
}

TEST(DependencyGraphTest, AffectedInTopoOrderOrdersTheDiamondByDepth) {
  DependencyGraph g;
  // 1 <- 2, 1 <- 3, {2,3} <- 4: the classic diamond plus a bystander 5.
  for (DirUid u = 1; u <= 5; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(3, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(4, {2, 3}).ok());

  EXPECT_EQ(g.AffectedInTopoOrder({1}), (std::vector<DirUid>{1, 2, 3, 4}));
  // Several sources: one order over the union of their closures.
  EXPECT_EQ(g.AffectedInTopoOrder({3, 2}), (std::vector<DirUid>{2, 3, 4}));
  // The bystander is untouched; an edit at a leaf affects only itself.
  EXPECT_EQ(g.AffectedInTopoOrder({5}), std::vector<DirUid>{5});
  EXPECT_EQ(g.AffectedInTopoOrder({4}), std::vector<DirUid>{4});
}

// The order is by longest in-set dependency path first, uid second: 3 sits one level
// deeper than 4, so 4 is visited before it despite the larger uid.
TEST(DependencyGraphTest, OrderIsByDepthThenUid) {
  DependencyGraph g;
  // 2 <- 1, 3 <- 2, 4 <- 1.
  for (DirUid u = 1; u <= 4; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(3, {2}).ok());
  ASSERT_TRUE(g.SetDependencies(4, {1}).ok());
  EXPECT_EQ(g.AffectedInTopoOrder({1}), (std::vector<DirUid>{1, 2, 4, 3}));
  EXPECT_EQ(g.FullTopoOrder(), (std::vector<DirUid>{1, 2, 4, 3}));
}

TEST(DependencyGraphTest, FullTopoOrderIsLevelledByLongestPath) {
  DependencyGraph g;
  for (DirUid u = 1; u <= 6; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  ASSERT_TRUE(g.SetDependencies(2, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(3, {1, 2}).ok());
  ASSERT_TRUE(g.SetDependencies(4, {3}).ok());
  ASSERT_TRUE(g.SetDependencies(5, {1}).ok());
  ASSERT_TRUE(g.SetDependencies(6, {5, 4}).ok());

  auto order = g.FullTopoOrder();
  ASSERT_EQ(order.size(), 6u);
  // A node's level is 1 + the max over its deps (0 without deps); the order sorts
  // by (level, uid).
  std::unordered_map<DirUid, size_t> level_of;
  for (DirUid u : order) {
    size_t level = 0;
    for (DirUid dep : g.DependenciesOf(u)) {
      ASSERT_EQ(level_of.count(dep), 1u) << dep << " must precede " << u;
      level = std::max(level, level_of[dep] + 1);
    }
    level_of[u] = level;
  }
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(std::make_pair(level_of[order[i - 1]], order[i - 1]),
              std::make_pair(level_of[order[i]], order[i]));
  }
  EXPECT_EQ(order, (std::vector<DirUid>{1, 2, 5, 3, 4, 6}));
}

class RandomDagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDagTest, RandomEdgeInsertionNeverCreatesCycle) {
  Rng rng(GetParam());
  DependencyGraph g;
  constexpr DirUid kNodes = 40;
  for (DirUid u = 1; u <= kNodes; ++u) {
    ASSERT_TRUE(g.AddNode(u).ok());
  }
  std::unordered_map<DirUid, std::vector<DirUid>> deps;
  for (int step = 0; step < 400; ++step) {
    DirUid node = 1 + rng.NextBelow(kNodes);
    std::vector<DirUid> new_deps = deps[node];
    DirUid dep = 1 + rng.NextBelow(kNodes);
    if (std::find(new_deps.begin(), new_deps.end(), dep) == new_deps.end()) {
      new_deps.push_back(dep);
    }
    auto r = g.SetDependencies(node, new_deps);
    if (r.ok()) {
      deps[node] = new_deps;
    } else {
      EXPECT_EQ(r.code(), ErrorCode::kCycle);
      // Failed update must leave the old edges intact.
      auto cur = g.DependenciesOf(node);
      std::sort(cur.begin(), cur.end());
      auto want = deps[node];
      std::sort(want.begin(), want.end());
      EXPECT_EQ(cur, want);
    }
    // Invariant: the full topological order always covers every node (acyclic).
    EXPECT_EQ(g.FullTopoOrder().size(), kNodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest, ::testing::Values(7, 14, 21, 28, 35));

}  // namespace
}  // namespace hac

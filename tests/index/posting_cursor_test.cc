#include "src/index/posting_cursor.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/index/inverted_index.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {
namespace {

constexpr uint32_t kEnd = PostingCursor::kCursorEnd;

std::vector<uint32_t> Drain(PostingCursor& c) {
  std::vector<uint32_t> out;
  for (uint32_t v = c.SeekGE(0); v != kEnd; v = c.Next()) {
    out.push_back(v);
  }
  return out;
}

TEST(BitmapCursorTest, MatchesBitmapIds) {
  Bitmap bm;
  const std::vector<uint32_t> ids{0, 1, 63, 64, 65, 127, 128, 1000};
  for (uint32_t id : ids) {
    bm.Set(id);
  }
  BitmapCursor c(bm);
  EXPECT_EQ(Drain(c), ids);
}

TEST(BitmapCursorTest, SeekSkipsEmptyWords) {
  Bitmap bm;
  bm.Set(3);
  bm.Set(100000);
  BitmapCursor c(std::move(bm));
  EXPECT_EQ(c.SeekGE(4), 100000u);
  EXPECT_EQ(c.Next(), kEnd);
}

// --- cursor-vs-Evaluate equivalence over a randomized corpus -------------------
//
// Evaluate() is the oracle: for every generated query, draining OpenCursor must
// yield exactly Evaluate()'s bitmap, ids in order. bench_streaming checks the same
// property one level up (paged SearchPage against monolithic Search).

class CursorEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937 rng(42);
    const std::vector<std::string> vocab{"alpha", "bravo", "charlie", "delta",
                                         "echo",  "fox",   "golf",    "hotel"};
    for (uint32_t doc = 0; doc < 200; ++doc) {
      std::string body;
      const size_t n = 1 + rng() % 5;
      for (size_t i = 0; i < n; ++i) {
        body += vocab[rng() % vocab.size()];
        body += ' ';
      }
      ASSERT_TRUE(idx_.IndexDocument(doc, body).ok());
    }
    // A scope with holes, so NOT/scope interaction is exercised.
    for (uint32_t doc = 0; doc < 200; ++doc) {
      if (doc % 7 != 3) {
        scope_.Set(doc);
      }
    }
  }

  std::vector<uint32_t> EvalEager(const std::string& query) {
    auto ast = ParseQuery(query);
    EXPECT_TRUE(ast.ok()) << query;
    auto bm = idx_.Evaluate(*ast.value(), scope_, nullptr);
    EXPECT_TRUE(bm.ok()) << query;
    return bm.value().ToIds();
  }

  std::vector<uint32_t> EvalCursor(const std::string& query) {
    auto ast = ParseQuery(query);
    EXPECT_TRUE(ast.ok()) << query;
    auto cur = idx_.OpenCursor(*ast.value(), scope_, nullptr);
    EXPECT_TRUE(cur.ok()) << query;
    std::vector<uint32_t> out;
    for (uint32_t v = cur.value()->Value(); !cur.value()->AtEnd();
         v = cur.value()->Next()) {
      out.push_back(v);
    }
    return out;
  }

  InvertedIndex idx_;
  Bitmap scope_;
};

TEST_F(CursorEquivalenceTest, HandWrittenQueries) {
  for (const char* q :
       {"alpha", "ALL", "alpha AND bravo", "alpha OR bravo", "NOT alpha",
        "alpha AND NOT bravo", "(alpha OR bravo) AND (charlie OR delta)",
        "al*", "z*", "NOT (alpha OR bravo OR charlie)",
        "alpha AND bravo AND charlie AND delta", "missingterm"}) {
    EXPECT_EQ(EvalCursor(q), EvalEager(q)) << q;
  }
}

TEST_F(CursorEquivalenceTest, RandomizedQueryCorpus) {
  std::mt19937 rng(1234);
  const std::vector<std::string> vocab{"alpha", "bravo", "charlie", "delta",
                                       "echo",  "fox",   "golf",    "hotel",
                                       "al*",   "missing"};
  std::function<std::string(int)> gen = [&](int depth) -> std::string {
    if (depth <= 0 || rng() % 3 == 0) {
      return vocab[rng() % vocab.size()];
    }
    switch (rng() % 3) {
      case 0:
        return "(" + gen(depth - 1) + " AND " + gen(depth - 1) + ")";
      case 1:
        return "(" + gen(depth - 1) + " OR " + gen(depth - 1) + ")";
      default:
        return "(NOT " + gen(depth - 1) + ")";
    }
  };
  for (int i = 0; i < 200; ++i) {
    const std::string q = gen(3);
    EXPECT_EQ(EvalCursor(q), EvalEager(q)) << q;
  }
}

TEST_F(CursorEquivalenceTest, ContentVerifierAppliesLazily) {
  // Reject every odd doc at verification time; OpenCursor must apply the same
  // two-level check Evaluate() does.
  idx_.SetContentVerifier([](DocId doc) -> Result<std::string> {
    if (doc % 2 == 1) {
      return std::string("unrelated words only");
    }
    return std::string("alpha bravo charlie delta echo fox golf hotel");
  });
  for (const char* q : {"alpha", "alpha AND bravo", "alpha OR hotel"}) {
    EXPECT_EQ(EvalCursor(q), EvalEager(q)) << q;
  }
}

TEST_F(CursorEquivalenceTest, OpenCursorIsOneRecordedEvaluation) {
  // OpenCursor is one evaluation, reported as Evaluate reports one: counted in
  // hac.index.queries, timed in hac.index.query_us, and its selectivity recorded.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram& query_us = reg.GetHistogram(metric_names::kIndexQueryUs);
  Histogram& selectivity =
      reg.GetHistogram(metric_names::kIndexQuerySelectivityPct, "pct");
  auto ast = ParseQuery("alpha OR bravo");
  ASSERT_TRUE(ast.ok());
  const uint64_t queries = idx_.Stats().queries_evaluated;
  const uint64_t timed = query_us.Count();
  const uint64_t recorded = selectivity.Count();
  ASSERT_TRUE(idx_.OpenCursor(*ast.value(), scope_, nullptr).ok());
  EXPECT_EQ(idx_.Stats().queries_evaluated, queries + 1);
  EXPECT_EQ(query_us.Count(), timed + 1);
  EXPECT_EQ(selectivity.Count(), recorded + 1);
}

TEST_F(CursorEquivalenceTest, PagedPullEqualsFullDrain) {
  // Pulling in small pages (SeekGE frontier restarts) covers SearchPage's resume
  // pattern: a fresh cursor seeked to last+1 must continue exactly where the
  // previous page stopped.
  const std::string q = "(alpha OR bravo) AND NOT charlie";
  const std::vector<uint32_t> full = EvalCursor(q);
  std::vector<uint32_t> paged;
  uint32_t start = 0;
  for (;;) {
    auto ast = ParseQuery(q);
    ASSERT_TRUE(ast.ok());
    auto cur = idx_.OpenCursor(*ast.value(), scope_, nullptr);
    ASSERT_TRUE(cur.ok());
    size_t pulled = 0;
    uint32_t v = cur.value()->SeekGE(start);
    for (; v != kEnd && pulled < 3; v = cur.value()->Next(), ++pulled) {
      paged.push_back(v);
    }
    if (pulled < 3) {
      break;
    }
    start = paged.back() + 1;
  }
  EXPECT_EQ(paged, full);
}

}  // namespace
}  // namespace hac

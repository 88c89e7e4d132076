// Table 4 — querying through HAC (smkdir of a semantic directory) vs running the
// indexer directly, across result-set selectivities.
//
// Paper (17,000-file corpus, Glimpse):
//   queries matching very few files:      HAC > 4x slower  (fixed smkdir cost dominates)
//   queries matching an intermediate set: ~15% overhead
//   queries matching a lot of files:      ~2% overhead
//
// Shape to reproduce: the RELATIVE overhead of the semantic-directory machinery falls
// as the result set grows — a fixed per-directory setup cost amortized by result size.
//
// The three ratios sit close to 1.0x at small scale, so one measurement of them is
// noise: the three buckets are measured kRounds times, and the shape check is decided
// on each ratio's min-max range, not on one sample.
#include "bench/bench_util.h"
#include "src/core/hac_file_system.h"
#include "src/support/string_util.h"
#include "src/workload/corpus.h"
#include "src/workload/query_workload.h"

namespace hac {
namespace {

CorpusOptions Config() {
  CorpusOptions opts;
  if (PaperScale()) {
    opts.num_files = 17000;
    opts.dirs = 170;
    opts.words_per_file = 1200;
  } else {
    opts.num_files = 2000;
    opts.dirs = 40;
    opts.words_per_file = 400;
  }
  return opts;
}

constexpr int kRounds = 5;

struct BucketResult {
  double direct_ms = 0;  // evaluating the query on the index, per query
  double hac_ms = 0;     // smkdir incl. link materialization, per query
  size_t avg_matches = 0;
};

// One bucket's results over the rounds.
struct BucketSeries {
  std::vector<BucketResult> rounds;

  double Median(double BucketResult::*field) const {
    std::vector<double> v;
    for (const BucketResult& r : rounds) {
      v.push_back(r.*field);
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }
  std::vector<double> Ratios() const {
    std::vector<double> v;
    for (const BucketResult& r : rounds) {
      v.push_back(r.hac_ms / r.direct_ms);
    }
    std::sort(v.begin(), v.end());
    return v;
  }
  double MedianRatio() const { return Ratios()[rounds.size() / 2]; }
  double MinRatio() const { return Ratios().front(); }
  double MaxRatio() const { return Ratios().back(); }
};

// Whether ratio x exceeds ratio y by more than `margin` across the rounds: 1 if for
// every pair of values the two ranges allow, -1 if for none, 0 if the ranges leave
// it open.
int Exceeds(const BucketSeries& x, const BucketSeries& y, double margin) {
  if (x.MinRatio() - y.MaxRatio() > margin) {
    return 1;
  }
  if (x.MaxRatio() - y.MinRatio() <= margin) {
    return -1;
  }
  return 0;
}

}  // namespace
}  // namespace hac

int main() {
  using namespace hac;
  CorpusOptions opts = Config();
  std::printf("Table 4: query via HAC smkdir vs direct index search, by selectivity\n");
  std::printf("(scale=%s, %zu files)\n\n", PaperScale() ? "paper" : "small",
              opts.num_files);

  // Glimpse fidelity: both sides pay the two-level cost (index narrowing + searching
  // the candidate files), which is what makes the paper's overhead fall with result
  // size — the fixed smkdir cost is amortized over a match-proportional search.
  HacOptions hac_opts;
  hac_opts.verify_results_with_content = true;
  HacFileSystem fs(hac_opts);
  if (!GenerateCorpus(fs, opts).ok() || !fs.Reindex().ok()) {
    std::fprintf(stderr, "corpus/index setup failed\n");
    return 1;
  }
  auto* index = dynamic_cast<InvertedIndex*>(&fs.index());
  QueryBucketOptions bucket_opts;
  bucket_opts.per_bucket = PaperScale() ? 8 : 6;
  QueryBuckets buckets =
      SelectQueryBuckets(*index, fs.registry().LiveCount(), bucket_opts);
  if (buckets.few.empty() || buckets.medium.empty() || buckets.many.empty()) {
    std::fprintf(stderr, "could not find queries in every selectivity band\n");
    return 1;
  }

  if (!fs.Mkdir("/qbench").ok()) {
    return 1;
  }
  int dir_counter = 0;
  auto run_bucket = [&](const std::vector<std::string>& terms) {
    BucketResult out;
    size_t total_matches = 0;
    const int reps = 5;
    for (const std::string& term : terms) {
      // Direct: parse + evaluate on the index, like running the search tool.
      auto ast = ParseQuery(term).value();
      Bitmap universe = fs.registry().Universe();
      out.direct_ms += MedianMs(reps, [&] {
        auto r = index->Evaluate(*ast, universe, nullptr);
        if (r.ok()) {
          total_matches += r.value().Count();
        }
      });
      // Through HAC: create a semantic directory for the query (the paper's mkdir-
      // with-query), fresh directory each repetition.
      out.hac_ms += MedianMs(reps, [&] {
        std::string dir = "/qbench/q" + std::to_string(dir_counter++);
        if (!fs.SMkdir(dir, term).ok()) {
          std::fprintf(stderr, "smkdir failed for %s\n", term.c_str());
          std::exit(1);
        }
      });
    }
    out.direct_ms /= static_cast<double>(terms.size());
    out.hac_ms /= static_cast<double>(terms.size());
    out.avg_matches = total_matches / (terms.size() * reps);
    return out;
  };

  BucketSeries few, medium, many;
  for (int round = 0; round < kRounds; ++round) {
    few.rounds.push_back(run_bucket(buckets.few));
    medium.rounds.push_back(run_bucket(buckets.medium));
    many.rounds.push_back(run_bucket(buckets.many));
  }

  TablePrinter paper({"paper", "HAC vs direct"});
  paper.AddRow({"very few matches", ">4x (fixed smkdir cost dominates)"});
  paper.AddRow({"intermediate matches", "~15%"});
  paper.AddRow({"a lot of matches", "~2%"});
  paper.Print();
  std::printf("\n");

  std::printf("measured: medians of %d rounds; ratio range = min-max over the rounds\n",
              kRounds);
  TablePrinter measured({"measured", "avg matches", "direct ms", "HAC smkdir ms",
                         "ratio", "ratio range", "overhead"});
  auto add_row = [&](const char* label, const BucketSeries& b) {
    const double ratio = b.MedianRatio();
    measured.AddRow({label, std::to_string(b.rounds.front().avg_matches),
                     Fmt(b.Median(&BucketResult::direct_ms), 3),
                     Fmt(b.Median(&BucketResult::hac_ms), 3), Fmt(ratio, 2) + "x",
                     Fmt(b.MinRatio(), 2) + "-" + Fmt(b.MaxRatio(), 2) + "x",
                     FmtPct(100.0 * (ratio - 1.0), 0)});
  };
  add_row("very few matches", few);
  add_row("intermediate", medium);
  add_row("a lot of matches", many);
  measured.Print();

  std::printf("\nshape checks:\n");
  // The criterion: few > medium + 0.05 and medium >= many - 0.05 (non-increasing;
  // medium and many can tie near 1.0x). Each comparison is decided on the ranges:
  // "yes" if both hold for every ratio the ranges allow, "NO" if either holds for
  // none, "within noise" otherwise.
  const int few_medium = Exceeds(few, medium, 0.05);
  const int medium_many = Exceeds(medium, many, -0.05);
  const char* verdict = few_medium > 0 && medium_many > 0   ? "yes"
                        : few_medium < 0 || medium_many < 0 ? "NO"
                                                            : "within noise";
  std::printf("  relative overhead falls as selectivity grows: %s (medians %.2fx -> "
              "%.2fx -> %.2fx)\n",
              verdict, few.MedianRatio(), medium.MedianRatio(), many.MedianRatio());
  std::printf("  few-match queries pay the largest relative price: %s\n",
              few.MedianRatio() >= 2.0 ? "yes (>=2x)" : "partial");

  // The paper's space note: N/8 bytes of bitmap per semantic directory.
  size_t n = fs.registry().TotalRecords();
  std::printf("\nper-semantic-directory result bitmap: N=%zu files -> %s (paper: N/8 "
              "bytes, ~2 KB at N=17000)\n",
              n, HumanBytes((n + 7) / 8).c_str());
  return 0;
}

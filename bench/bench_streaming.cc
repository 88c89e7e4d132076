// Streaming-read acceptance gate (bench_streaming in bench/CMakeLists.txt).
//
// Builds a semantic directory holding >= 100k links, then measures the paged read
// pipeline end-to-end against the monolithic one:
//
//   * time-to-first-page: p95 of ReadDirPage/SearchPage's FIRST page must be at
//     least 10x below the monolithic ReadDir/Search p95 — the point of streaming
//     is that a client renders something long before the full result exists;
//   * completeness: the concatenation of all pages at a quiesced epoch must be
//     digest-equal to the monolithic result (same FNV digest over the same names
//     in the same order);
//   * frame discipline: every page, encoded as a response frame, must fit under
//     the reactor's write_high_water — the monolithic frame demonstrably does
//     not, which is why cursors exist;
//   * ablation: over a randomized query corpus (selectivity buckets plus random
//     boolean combinations), paged SearchPage must return exactly monolithic
//     Search's results.
//
// --hac_json prints the gate document; the measured rows are also written to
// BENCH_streaming.json (WriteBenchArtifact) for machine consumption either way.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/hac_file_system.h"
#include "src/server/epoll_reactor.h"
#include "src/server/request.h"
#include "src/server/wire.h"
#include "src/workload/query_workload.h"

namespace hac {
namespace {

// FNV-1a over length-prefixed strings: order-sensitive, concatenation-proof.
uint64_t DigestStrings(const std::vector<std::string>& items) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& s : items) {
    const uint64_t len = s.size();
    mix(&len, sizeof(len));
    mix(s.data(), s.size());
  }
  return h;
}

std::vector<std::string> EntryNames(const std::vector<DirEntry>& entries) {
  std::vector<std::string> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    out.push_back(e.name);
  }
  return out;
}

struct LatencyStats {
  double p50_us = 0, p95_us = 0, p99_us = 0;
};

LatencyStats Stats(std::vector<double>& us) {
  std::sort(us.begin(), us.end());
  auto pct = [&us](double p) {
    return us.empty()
               ? 0.0
               : us[static_cast<size_t>(p * static_cast<double>(us.size() - 1))];
  };
  return {pct(0.50), pct(0.95), pct(0.99)};
}

// One timed call, result discarded; returns microseconds.
template <typename Fn>
double TimedUs(const Fn& fn) {
  BenchTimer t;
  t.Start();
  fn();
  return t.StopMs() * 1000.0;
}

size_t FrameBytes(ServerResponse&& resp) {
  std::vector<uint8_t> frame = EncodeResponseFrame(resp);
  const size_t n = frame.size();
  RecycleBuffer(std::move(frame));
  return n;
}

constexpr size_t kLinkTarget = 100000;  // the gate's >= 100k-link directory

int Run(bool json) {
  const size_t files = PaperScale() ? 2 * kLinkTarget : kLinkTarget;
  const size_t write_high_water = ReactorShared{}.write_high_water;

  // --- corpus: every file carries a shared term (-> the 100k-link directory),
  // a vocabulary word (selectivity spread), and a per-file unique term.
  HacFileSystem fs;
  const char* vocab[] = {"alpha", "bravo", "charlie", "delta", "echo",
                         "foxtrot", "golf", "hotel", "india", "juliet"};
  constexpr size_t kVocab = sizeof(vocab) / sizeof(vocab[0]);
  if (!fs.Mkdir("/corpus").ok()) {
    std::abort();
  }
  BenchTimer build;
  build.Start();
  for (size_t i = 0; i < files; ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "/corpus/f%06zu.txt", i);
    // Zipf-ish spread: word k appears in ~1/(k+1) of files.
    std::string body = "common";
    for (size_t k = 0; k < kVocab; ++k) {
      if (i % (k + 1) == 0) {
        body += ' ';
        body += vocab[k];
      }
    }
    body += " unique" + std::to_string(i);
    if (!fs.WriteFile(name, body).ok()) {
      std::abort();
    }
  }
  if (!fs.Reindex().ok() || !fs.SMkdir("/all", "common").ok()) {
    std::abort();
  }
  const double build_ms = build.StopMs();
  const size_t links = fs.ReadDir("/all").value().size();
  if (links < kLinkTarget) {
    std::fprintf(stderr, "corpus built only %zu links (< %zu)\n", links,
                 kLinkTarget);
    return 1;
  }

  // --- time-to-first-page vs monolithic, for ReadDir and Search ------------
  const int reps = PaperScale() ? 40 : 20;
  std::vector<double> mono_dir_us, first_dir_us, mono_search_us, first_search_us;
  for (int i = 0; i < reps; ++i) {
    mono_dir_us.push_back(TimedUs([&] {
      if (fs.ReadDir("/all").value().size() != links) {
        std::abort();
      }
    }));
    first_dir_us.push_back(TimedUs([&] {
      if (!fs.ReadDirPage("/all", nullptr, 0, 0).ok()) {
        std::abort();
      }
    }));
    mono_search_us.push_back(TimedUs([&] {
      if (fs.Search("common", "/corpus").value().size() < kLinkTarget) {
        std::abort();
      }
    }));
    first_search_us.push_back(TimedUs([&] {
      if (!fs.SearchPage("common", "/corpus", nullptr, 0, 0).ok()) {
        std::abort();
      }
    }));
  }
  const LatencyStats mono_dir = Stats(mono_dir_us);
  const LatencyStats first_dir = Stats(first_dir_us);
  const LatencyStats mono_search = Stats(mono_search_us);
  const LatencyStats first_search = Stats(first_search_us);
  const double dir_speedup =
      first_dir.p95_us <= 0 ? 0 : mono_dir.p95_us / first_dir.p95_us;
  const double search_speedup =
      first_search.p95_us <= 0 ? 0 : mono_search.p95_us / first_search.p95_us;

  // --- full paged drain: completeness digest + per-frame byte discipline ----
  std::vector<std::string> paged_names;
  size_t dir_pages = 0, max_dir_frame = 0, sum_dir_frame = 0;
  std::vector<double> page_us;
  BenchTimer drain;
  drain.Start();
  {
    const PageToken* token = nullptr;
    PageToken held;
    for (;;) {
      BenchTimer t;
      t.Start();
      auto page = fs.ReadDirPage("/all", token, 0, 0);
      page_us.push_back(t.StopMs() * 1000.0);
      if (!page.ok()) {
        std::abort();
      }
      ++dir_pages;
      ServerResponse resp;
      resp.entries = page.value().entries;
      const size_t frame = FrameBytes(std::move(resp));
      max_dir_frame = std::max(max_dir_frame, frame);
      sum_dir_frame += frame;
      for (auto& e : page.value().entries) {
        paged_names.push_back(std::move(e.name));
      }
      if (!page.value().has_more) {
        break;
      }
      held = page.value().next;
      token = &held;
    }
  }
  const double drain_ms = drain.StopMs();
  const LatencyStats page_lat = Stats(page_us);
  const uint64_t mono_digest = DigestStrings(EntryNames(fs.ReadDir("/all").value()));
  const uint64_t paged_digest = DigestStrings(paged_names);
  const bool dir_digest_ok = mono_digest == paged_digest;

  ServerResponse mono_resp;
  mono_resp.entries = fs.ReadDir("/all").value();
  const size_t mono_frame = FrameBytes(std::move(mono_resp));
  const bool frames_ok = max_dir_frame <= write_high_water;

  // --- paged search drain: digest against monolithic Search at same epoch ---
  std::vector<std::string> paged_paths;
  size_t search_pages = 0, max_search_frame = 0;
  {
    const PageToken* token = nullptr;
    PageToken held;
    for (;;) {
      auto page = fs.SearchPage("common", "/corpus", token, 0, 0);
      if (!page.ok()) {
        std::abort();
      }
      ++search_pages;
      ServerResponse resp;
      resp.paths = page.value().paths;
      max_search_frame = std::max(max_search_frame, FrameBytes(std::move(resp)));
      for (auto& p : page.value().paths) {
        paged_paths.push_back(std::move(p));
      }
      if (!page.value().has_more) {
        break;
      }
      held = page.value().next;
      token = &held;
    }
  }
  std::vector<std::string> mono_paths = fs.Search("common", "/corpus").value();
  // SearchPage yields DocId order, Search yields its own order: digest as sets.
  std::sort(mono_paths.begin(), mono_paths.end());
  std::sort(paged_paths.begin(), paged_paths.end());
  const bool search_digest_ok =
      DigestStrings(mono_paths) == DigestStrings(paged_paths);
  const bool search_frames_ok = max_search_frame <= write_high_water;

  // --- paged-vs-monolithic search ablation over a randomized query corpus ---
  QueryBucketOptions qopts;
  auto* index = dynamic_cast<InvertedIndex*>(&fs.index());
  if (index == nullptr) {
    std::abort();
  }
  QueryBuckets buckets = SelectQueryBuckets(*index, files, qopts);
  std::vector<std::string> queries;
  for (const auto* bucket : {&buckets.few, &buckets.medium, &buckets.many}) {
    queries.insert(queries.end(), bucket->begin(), bucket->end());
  }
  std::mt19937 rng(20260808);
  auto pick = [&]() -> std::string {
    if (!queries.empty() && rng() % 2 == 0) {
      return queries[rng() % queries.size()];
    }
    return vocab[rng() % kVocab];
  };
  for (int i = 0; i < 40; ++i) {
    switch (rng() % 4) {
      case 0:
        queries.push_back("(" + pick() + " AND " + pick() + ")");
        break;
      case 1:
        queries.push_back("(" + pick() + " OR " + pick() + ")");
        break;
      case 2:
        queries.push_back("(" + pick() + " AND NOT " + pick() + ")");
        break;
      default:
        queries.push_back(pick());
        break;
    }
  }
  size_t ablation_checked = 0, ablation_mismatches = 0;
  for (const auto& q : queries) {
    auto mono = fs.Search(q, "/corpus");
    if (!mono.ok()) {
      continue;  // bucket probing can surface internal-only tokens; skip
    }
    std::vector<std::string> paged;
    const PageToken* token = nullptr;
    PageToken held;
    bool failed = false;
    for (;;) {
      auto page = fs.SearchPage(q, "/corpus", token, 0, 0);
      if (!page.ok()) {
        failed = true;
        break;
      }
      for (auto& p : page.value().paths) {
        paged.push_back(std::move(p));
      }
      if (!page.value().has_more) {
        break;
      }
      held = page.value().next;
      token = &held;
    }
    ++ablation_checked;
    std::vector<std::string> want = mono.value();
    std::sort(want.begin(), want.end());
    std::sort(paged.begin(), paged.end());
    if (failed || DigestStrings(want) != DigestStrings(paged)) {
      ++ablation_mismatches;
      std::fprintf(stderr, "ablation mismatch on query: %s\n", q.c_str());
    }
  }
  const bool ablation_ok = ablation_checked > 0 && ablation_mismatches == 0;

  const bool pass = dir_speedup >= 10.0 && search_speedup >= 10.0 &&
                    dir_digest_ok && search_digest_ok && frames_ok &&
                    search_frames_ok && ablation_ok;

  // --- report ---------------------------------------------------------------
  JsonObject out;
  out.Add("bench", "streaming_reads")
      .Add("links", static_cast<uint64_t>(links))
      .Add("corpus_build_ms", build_ms)
      .Add("mono_readdir_p95_us", mono_dir.p95_us)
      .Add("first_page_p50_us", first_dir.p50_us)
      .Add("first_page_p95_us", first_dir.p95_us)
      .Add("first_page_p99_us", first_dir.p99_us)
      .Add("first_page_speedup", dir_speedup)
      .Add("mono_search_p95_us", mono_search.p95_us)
      .Add("first_search_page_p95_us", first_search.p95_us)
      .Add("first_search_page_speedup", search_speedup)
      .Add("dir_pages", static_cast<uint64_t>(dir_pages))
      .Add("drain_ms", drain_ms)
      .Add("pages_per_sec",
           drain_ms <= 0 ? 0.0 : static_cast<double>(dir_pages) * 1000.0 / drain_ms)
      .Add("page_fetch_p50_us", page_lat.p50_us)
      .Add("page_fetch_p95_us", page_lat.p95_us)
      .Add("page_fetch_p99_us", page_lat.p99_us)
      .Add("mean_bytes_per_frame",
           dir_pages == 0
               ? 0.0
               : static_cast<double>(sum_dir_frame) / static_cast<double>(dir_pages))
      .Add("max_page_frame_bytes", static_cast<uint64_t>(max_dir_frame))
      .Add("max_search_frame_bytes", static_cast<uint64_t>(max_search_frame))
      .Add("monolithic_frame_bytes", static_cast<uint64_t>(mono_frame))
      .Add("write_high_water", static_cast<uint64_t>(write_high_water))
      .Add("ablation_queries", static_cast<uint64_t>(ablation_checked))
      .Add("ablation_mismatches", static_cast<uint64_t>(ablation_mismatches))
      .AddBool("dir_digest_ok", dir_digest_ok)
      .AddBool("search_digest_ok", search_digest_ok)
      .AddBool("frames_under_high_water", frames_ok && search_frames_ok)
      .AddBool("ablation_ok", ablation_ok)
      .AddBool("pass", pass);
  WriteBenchArtifact("BENCH_streaming.json", out);
  if (json) {
    out.Print();
  } else {
    std::printf("streaming reads over a %zu-link semantic directory\n", links);
    TablePrinter table({"path", "monolithic p95us", "first page p95us", "speedup"});
    table.AddRow({"ReadDir", Fmt(mono_dir.p95_us, 1), Fmt(first_dir.p95_us, 1),
                  Fmt(dir_speedup, 1) + "x"});
    table.AddRow({"Search", Fmt(mono_search.p95_us, 1),
                  Fmt(first_search.p95_us, 1), Fmt(search_speedup, 1) + "x"});
    table.Print();
    std::printf(
        "\npaged drain: %zu pages in %.1f ms (max frame %zu B, monolithic frame "
        "%zu B, high water %zu B)\n",
        dir_pages, drain_ms, max_dir_frame, mono_frame, write_high_water);
    std::printf("digests: dir %s, search %s; ablation %zu queries, %zu mismatches\n",
                dir_digest_ok ? "equal" : "DIFFER",
                search_digest_ok ? "equal" : "DIFFER", ablation_checked,
                ablation_mismatches);
    std::printf("gate: %s\n", pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace hac

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hac_json") == 0) {
      json = true;
    }
  }
  return hac::Run(json);
}

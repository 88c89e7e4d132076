#include "hacbench/src/library.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "src/index/tokenizer.h"
#include "src/support/rng.h"
#include "src/workload/corpus.h"

namespace hacbench {
namespace {

// Topic popularity is Zipf-skewed so semantic directories span a wide size range;
// a document carries a second topic with this probability.
constexpr double kTopicSkew = 0.8;
constexpr double kSecondTopic = 0.7;

// Target document frequencies (share of the library) for the query words.
constexpr double kRefineShares[] = {0.6, 0.4, 0.25, 0.12};
constexpr double kToggleShare = 0.15;
constexpr double kRareShare = 0.004;
constexpr double kCommonShare = 0.7;

// Picks `count` unused terms whose document frequency is closest to `target`.
std::vector<std::string> PickByFrequency(const std::vector<std::pair<std::string, size_t>>& df,
                                         double target, size_t count,
                                         std::set<std::string>& used) {
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [term, n] : df) {
    if (used.count(term) == 0) {
      ranked.push_back({std::abs(static_cast<double>(n) - target), term});
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> out;
  for (size_t i = 0; i < ranked.size() && out.size() < count; ++i) {
    out.push_back(ranked[i].second);
    used.insert(ranked[i].second);
  }
  return out;
}

}  // namespace

LibraryShape FullShape() { return LibraryShape{}; }

LibraryShape SmokeShape() {
  LibraryShape s;
  s.docs = 600;
  s.corpus_dirs = 8;
  return s;
}

bool LibraryInputs::DocHasTerm(size_t doc, const std::string& term) const {
  auto it = term_ids.find(term);
  if (it == term_ids.end()) {
    return false;
  }
  const auto& terms = doc_terms[doc];
  return std::binary_search(terms.begin(), terms.end(), it->second);
}

LibraryInputs GenerateLibrary(uint64_t seed, const LibraryShape& shape) {
  LibraryInputs in;
  in.shape = shape;
  in.topics = hac::CorpusTopics();
  const size_t ntopics = in.topics.size();
  for (size_t d = 0; d < shape.corpus_dirs; ++d) {
    in.corpus_dirs.push_back("/corpus/d" + std::to_string(d));
  }

  // Two generators: NextZipf caches one distribution, so topic draws and body words
  // each keep their own.
  hac::Rng topic_rng(seed * 2 + 1);
  hac::Rng body_rng(seed * 2 + 2);
  hac::Tokenizer tokenizer;
  std::vector<size_t> df;
  in.doc_paths.reserve(shape.docs);
  in.doc_texts.reserve(shape.docs);
  for (size_t i = 0; i < shape.docs; ++i) {
    uint16_t mask = uint16_t(1u << topic_rng.NextZipf(ntopics, kTopicSkew));
    if (topic_rng.NextBool(kSecondTopic)) {
      mask |= uint16_t(1u << topic_rng.NextZipf(ntopics, kTopicSkew));
    }
    std::string text;
    size_t markers = 0;
    for (size_t t = 0; t < ntopics; ++t) {
      if ((mask >> t) & 1u) {
        text += in.topics[t] + " ";
        ++markers;
      }
    }
    text += hac::GenerateDocument(body_rng, {}, shape.words - markers);

    std::vector<uint32_t> ids;
    for (const std::string& tok : tokenizer.Tokenize(text)) {
      auto [it, inserted] = in.term_ids.emplace(tok, uint32_t(in.term_ids.size()));
      if (inserted) {
        df.push_back(0);
      }
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (uint32_t id : ids) {
      ++df[id];
    }

    in.doc_paths.push_back(in.corpus_dirs[i % shape.corpus_dirs] + "/f" +
                           std::to_string(i) + ".txt");
    in.doc_texts.push_back(std::move(text));
    in.doc_topics.push_back(mask);
    in.doc_terms.push_back(std::move(ids));
  }

  // Query words come from the body vocabulary only (never a marker).
  std::set<std::string> used(in.topics.begin(), in.topics.end());
  std::vector<std::pair<std::string, size_t>> body_df;
  for (const auto& [term, id] : in.term_ids) {
    if (used.count(term) == 0) {
      body_df.push_back({term, df[id]});
    }
  }
  std::sort(body_df.begin(), body_df.end());  // deterministic tie order
  const double n = static_cast<double>(shape.docs);
  in.refine_words.assign(ntopics, {});
  for (size_t k = 0; k < shape.refine_per_topic; ++k) {
    auto words = PickByFrequency(body_df, kRefineShares[k % 4] * n, ntopics, used);
    for (size_t t = 0; t < ntopics; ++t) {
      in.refine_words[t].push_back(words[t]);
    }
  }
  in.toggle_words = PickByFrequency(body_df, kToggleShare * n, ntopics, used);
  in.rare_terms = PickByFrequency(body_df, kRareShare * n, 8, used);
  in.common_terms = PickByFrequency(body_df, kCommonShare * n, 4, used);

  for (size_t t = 0; t < ntopics; ++t) {
    in.sem_dirs.push_back({in.TopicDir(t), in.topics[t], int(t), -1});
    for (size_t k = 0; k < shape.refine_per_topic; ++k) {
      in.sem_dirs.push_back({in.RefineDir(t, k), in.refine_words[t][k], int(t), int(k)});
    }
  }
  for (size_t j = 0; j < shape.joins; ++j) {
    const size_t a = j % ntopics;
    const size_t b = (j * 5 + 3) % ntopics;
    const std::string query =
        j % 2 == 0 ? "dir(" + in.TopicDir(a) + ") AND dir(" + in.TopicDir(b) + ")"
                   : "dir(" + in.RefineDir(a, 0) + ") OR dir(" + in.RefineDir(b, 1) + ")";
    in.sem_dirs.push_back({"/join/j" + std::to_string(j), query, -1, -1});
  }
  return in;
}

hac::Result<void> BuildLibrary(hac::HacFileSystem& fs, const LibraryInputs& in) {
  HAC_RETURN_IF_ERROR(fs.Mkdir("/corpus"));
  for (const std::string& d : in.corpus_dirs) {
    HAC_RETURN_IF_ERROR(fs.Mkdir(d));
  }
  for (size_t i = 0; i < in.doc_paths.size(); ++i) {
    HAC_RETURN_IF_ERROR(fs.WriteFile(in.doc_paths[i], in.doc_texts[i]));
  }
  HAC_RETURN_IF_ERROR(fs.Reindex());
  HAC_RETURN_IF_ERROR(fs.Mkdir("/sem"));
  HAC_RETURN_IF_ERROR(fs.Mkdir("/join"));
  for (const SemDir& d : in.sem_dirs) {
    HAC_RETURN_IF_ERROR(fs.SMkdir(d.path, d.query));
  }
  return hac::OkResult();
}

std::vector<std::string> GenerateBodies(uint64_t seed, size_t count, size_t words,
                                        const std::vector<std::string>& topics,
                                        const std::vector<std::string>& avoid) {
  hac::Rng rng(seed);
  hac::Rng pick(seed + 1);
  hac::Tokenizer tokenizer;
  std::vector<std::string> out;
  while (out.size() < count) {
    std::string text;
    if (!topics.empty()) {
      text = topics[pick.NextBelow(topics.size())] + " ";
    }
    text += hac::GenerateDocument(rng, {}, words);
    bool clean = true;
    for (const std::string& tok : tokenizer.Tokenize(text)) {
      clean = clean && std::find(avoid.begin(), avoid.end(), tok) == avoid.end();
    }
    if (clean) {
      out.push_back(std::move(text));
    }
  }
  return out;
}

}  // namespace hacbench

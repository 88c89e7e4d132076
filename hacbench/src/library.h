// The shared seeded library every workload starts from.
//
// GenerateLibrary() produces, from the seed and before any timing, the documents
// (bodies from the src/workload generator, one or two topic markers each), a token
// model of every document (the index's own Tokenizer, so the benchmark can predict
// which documents a query selects), and the semantic tree:
//
//   /corpus/d<i>/f<n>.txt      the documents, round-robin over the corpus dirs
//   /sem/<topic>               one semantic dir per topic marker (query: the marker)
//   /sem/<topic>/r<k>          refining sub-dirs (query: a body word of graded
//                              document frequency, evaluated in the topic's scope)
//   /join/j<k>                 dir() joins over topic and refining dirs
//
// BuildLibrary() is the timed part: HAC ingests the documents, reindexes and builds
// the semantic tree through the public facade.
#ifndef HACBENCH_LIBRARY_H_
#define HACBENCH_LIBRARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/hac_file_system.h"

namespace hacbench {

struct LibraryShape {
  size_t docs = 20000;
  size_t corpus_dirs = 32;
  size_t words = 100;        // per document, markers included
  size_t refine_per_topic = 4;
  size_t joins = 8;
};

LibraryShape FullShape();
// A few hundred documents: the smoke mode's library.
LibraryShape SmokeShape();

struct SemDir {
  std::string path;
  std::string query;
  int topic = -1;   // topic index for /sem dirs, -1 for joins
  int refine = -1;  // refining index for /sem/<topic>/r<k>, -1 otherwise
};

struct LibraryInputs {
  LibraryShape shape;
  std::vector<std::string> topics;        // marker word of each topic
  std::vector<std::string> corpus_dirs;   // /corpus/d<i>
  std::vector<std::string> doc_paths;
  std::vector<std::string> doc_texts;
  std::vector<uint16_t> doc_topics;       // bit t set: the document carries topic t
  std::vector<std::vector<uint32_t>> doc_terms;  // sorted unique token ids
  std::unordered_map<std::string, uint32_t> term_ids;

  std::vector<SemDir> sem_dirs;           // creation order (parents first)
  std::vector<std::vector<std::string>> refine_words;  // [topic][k]
  std::vector<std::string> toggle_words;  // per topic: churn's alternative query
  std::vector<std::string> rare_terms;    // ~0.4% document frequency
  std::vector<std::string> common_terms;  // ~70% document frequency

  // True if document `doc`'s content contains token `term`.
  bool DocHasTerm(size_t doc, const std::string& term) const;
  bool DocHasTopic(size_t doc, size_t topic) const {
    return (doc_topics[doc] >> topic) & 1u;
  }
  std::string TopicDir(size_t topic) const { return "/sem/" + topics[topic]; }
  std::string RefineDir(size_t topic, size_t k) const {
    return TopicDir(topic) + "/r" + std::to_string(k);
  }
};

LibraryInputs GenerateLibrary(uint64_t seed, const LibraryShape& shape);

// The timed set-up work: ingest, reindex, semantic tree.
hac::Result<void> BuildLibrary(hac::HacFileSystem& fs, const LibraryInputs& in);

// Extra documents for the mutating workloads, drawn from the same generator. With
// `topics` non-empty each carries one of those markers; otherwise none at all (so
// reindexing them cannot change any semantic directory).
std::vector<std::string> GenerateBodies(uint64_t seed, size_t count, size_t words,
                                        const std::vector<std::string>& topics,
                                        const std::vector<std::string>& avoid);

}  // namespace hacbench

#endif  // HACBENCH_LIBRARY_H_

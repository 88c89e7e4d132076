// Seeded op streams of the three workloads.
//
// A stream is a list of Steps, one per client request (a paged drain is one Step
// that expands to OpenCursor, FetchPage... and CloseCursor). Every stream is built
// before timing starts from the seed and the library's inputs; the clients replay
// them in order.
//
//   browse          read-only; a cycle that clients loop over.
//   churn           the editing loop over one connection's own topics; each cycle
//                   ends by undoing its edits (toggles back, unprohibits, demotes,
//                   renames back, unlinks its scratch files, reindexes), so cycles
//                   can repeat and a replayed cycle always starts from one state.
//   durable_ingest  windows of 8 plain mutations, pipelined, each followed by a
//                   read-back Stat of a file the window created. Window k of a
//                   tag is a pure function of (seed, tag, k); its files live in
//                   directories named after the tag, so distinct tags never
//                   collide.
#ifndef HACBENCH_STREAMS_H_
#define HACBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hacbench/src/library.h"
#include "src/server/request.h"

namespace hacbench {

enum class OpClass : uint8_t {
  kRead,   // read-class requests (cursor requests included)
  kWrite,  // plain mutations: WriteFile, Unlink, Rename, Mkdir
  kSem,    // semantic mutations: the ops that run a propagation pass (and Reindex)
};

struct Step {
  hac::ServerRequest req;  // drain: req.path = directory or scope, req.aux = query
  OpClass cls = OpClass::kRead;
  bool drain = false;
  bool pipelined = false;  // sent in a window with its pipelined neighbours
  const std::string* body = nullptr;  // WriteFile content, copied in at send time

  hac::ServerRequest Request() const {
    hac::ServerRequest r = req;
    if (body != nullptr) {
      r.aux = *body;
    }
    return r;
  }
};

using Stream = std::vector<Step>;

Step MakeStep(hac::ServerOp op, const std::string& path, const std::string& aux,
              OpClass cls);

// One link per (directory, name) of the built library, for browse's link reads.
struct LinkRef {
  std::string dir;
  std::string name;
};

// One browse cycle per connection. `links` lists links of the built library.
std::vector<Stream> BrowseStreams(const LibraryInputs& lib, const std::vector<LinkRef>& links,
                                  const std::string& largest_dir, uint64_t seed,
                                  size_t conns);

// One churn cycle per connection; connection c owns the topics t with t % conns == c.
// `bodies` are the scratch files' contents (must outlive the streams).
std::vector<Stream> ChurnStreams(const LibraryInputs& lib,
                                 const std::vector<std::string>& bodies, uint64_t seed,
                                 size_t conns);

// durable_ingest: window `k` of stream `tag` (8 pipelined mutations then a read-back
// Stat), appended to `out`. `bodies` must outlive the steps.
void AppendIngestWindow(const LibraryInputs& lib, const std::vector<std::string>& bodies,
                        size_t tag, size_t k, Stream& out);

// Windows [0, windows) of `tag`, concatenated.
Stream IngestPrefix(const LibraryInputs& lib, const std::vector<std::string>& bodies,
                    size_t tag, size_t windows);

inline constexpr size_t kIngestWindow = 8;

}  // namespace hacbench

#endif  // HACBENCH_STREAMS_H_

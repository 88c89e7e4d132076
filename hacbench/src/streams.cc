#include "hacbench/src/streams.h"

#include <algorithm>

#include "src/support/rng.h"

namespace hacbench {
namespace {

using hac::ServerOp;

std::string BaseName(const std::string& path) {
  return path.substr(path.find_last_of('/') + 1);
}

// A block of op kinds with exact counts, in a seeded order. Streams are built from
// such blocks so every seed issues the same mix; the seed picks order and targets.
template <class Kind>
std::vector<Kind> Deck(const std::vector<std::pair<Kind, size_t>>& counts, hac::Rng& rng) {
  std::vector<Kind> deck;
  for (const auto& [kind, n] : counts) {
    deck.insert(deck.end(), n, kind);
  }
  rng.Shuffle(deck);
  return deck;
}

// Round-robin over a list, from a seeded start.
template <class T>
class Rotation {
 public:
  Rotation(const std::vector<T>& items, hac::Rng& rng)
      : items_(items), next_(rng.NextBelow(items.size())) {}
  const T& Next() { return items_[next_++ % items_.size()]; }

 private:
  const std::vector<T>& items_;
  size_t next_;
};

}  // namespace

Step MakeStep(ServerOp op, const std::string& path, const std::string& aux, OpClass cls) {
  Step s;
  s.req.op = op;
  s.req.path = path;
  s.req.aux = aux;
  s.cls = cls;
  return s;
}

std::vector<Stream> BrowseStreams(const LibraryInputs& lib, const std::vector<LinkRef>& links,
                                  const std::string& largest_dir, uint64_t seed,
                                  size_t conns) {
  constexpr size_t kBlocks = 20;  // of 200 steps
  enum Kind {
    kReadDir, kRareRoot, kRareScoped, kTopicScoped, kTopicRoot, kCommonScoped,
    kCommonRoot, kLstat, kStat, kReadLink, kGetQuery, kGetLinkClasses, kDrain,
  };
  const std::vector<std::pair<Kind, size_t>> block = {
      {kReadDir, 40}, {kRareRoot, 5},  {kRareScoped, 8},     {kTopicScoped, 10},
      {kTopicRoot, 1}, {kCommonScoped, 5}, {kCommonRoot, 1}, {kLstat, 56},
      {kStat, 35},    {kReadLink, 20}, {kGetQuery, 10},      {kGetLinkClasses, 5},
      {kDrain, 4},
  };
  std::vector<std::string> dirs;
  for (const SemDir& d : lib.sem_dirs) {
    dirs.push_back(d.path);
  }
  std::vector<Stream> out(conns);
  for (size_t c = 0; c < conns; ++c) {
    hac::Rng rng(seed * 1000 + 11 + c);
    // Scoped searches walk the corpus dirs in turn, so consecutive searches rarely
    // share a scope; directory reads cover every semantic dir equally.
    Rotation<std::string> scopes(lib.corpus_dirs, rng), readdirs(dirs, rng),
        querydirs(dirs, rng), rare(lib.rare_terms, rng), topics(lib.topics, rng),
        common(lib.common_terms, rng);
    size_t drains = c;
    auto search = [](const std::string& query, const std::string& scope) {
      return MakeStep(ServerOp::kSearch, scope, query, OpClass::kRead);
    };
    auto link_op = [&](ServerOp op) {
      const LinkRef& link = links[rng.NextBelow(links.size())];
      return MakeStep(op, link.dir + "/" + link.name, "", OpClass::kRead);
    };
    Stream& s = out[c];
    for (size_t b = 0; b < kBlocks; ++b) {
      for (Kind kind : Deck(block, rng)) {
        switch (kind) {
          case kReadDir:
            s.push_back(MakeStep(ServerOp::kReadDir, readdirs.Next(), "", OpClass::kRead));
            break;
          case kRareRoot:
            s.push_back(search(rare.Next(), "/"));
            break;
          case kRareScoped:
            s.push_back(search(rare.Next(), scopes.Next()));
            break;
          case kTopicScoped:
            s.push_back(search(topics.Next(), scopes.Next()));
            break;
          case kTopicRoot:
            s.push_back(search(topics.Next(), "/"));
            break;
          case kCommonScoped:
            s.push_back(search(common.Next(), scopes.Next()));
            break;
          case kCommonRoot:
            s.push_back(search(common.Next(), "/"));
            break;
          case kLstat:
            s.push_back(link_op(ServerOp::kLstat));
            break;
          case kStat:
            s.push_back(link_op(ServerOp::kStat));
            break;
          case kReadLink:
            s.push_back(link_op(ServerOp::kReadLink));
            break;
          case kGetQuery:
            s.push_back(MakeStep(ServerOp::kGetQuery, querydirs.Next(), "", OpClass::kRead));
            break;
          case kGetLinkClasses:
            s.push_back(
                MakeStep(ServerOp::kGetLinkClasses, querydirs.Next(), "", OpClass::kRead));
            break;
          case kDrain: {
            // Alternate the largest directory and a broad search.
            Step d = drains++ % 2 == 0
                         ? MakeStep(ServerOp::kOpenCursor, largest_dir, "", OpClass::kRead)
                         : MakeStep(ServerOp::kOpenCursor, "/", lib.common_terms[0],
                                    OpClass::kRead);
            d.drain = true;
            s.push_back(d);
            break;
          }
        }
      }
    }
  }
  return out;
}

std::vector<Stream> ChurnStreams(const LibraryInputs& lib,
                                 const std::vector<std::string>& bodies, uint64_t seed,
                                 size_t conns) {
  constexpr size_t kBlocks = 80;          // of 20 steps, then the undo tail
  constexpr size_t kReindexEvery = 200;   // plain writes of one connection
  constexpr size_t kMinLive = 8;          // scratch files kept around for overwrites
  enum Kind { kReadDir, kLstat, kLinkClasses, kCreate, kOverwrite, kUnlink, kSem };
  const std::vector<std::pair<Kind, size_t>> block = {
      {kReadDir, 6}, {kLstat, 6}, {kLinkClasses, 2}, {kCreate, 2},
      {kOverwrite, 1}, {kUnlink, 2}, {kSem, 1},
  };
  // Semantic slots cycle through these; each edit's undo is the next slot but one,
  // so at most one edit is outstanding.
  enum Sem { kToggle, kProhibit, kPromote, kRename, kSSync, kUndo };
  const std::vector<Sem> sem_order = {kToggle, kProhibit, kUndo, kPromote,
                                      kUndo,   kRename,   kUndo, kSSync};
  const size_t ntopics = lib.topics.size();
  const size_t last_refine = lib.shape.refine_per_topic - 1;
  std::vector<Stream> out(conns);
  for (size_t c = 0; c < conns; ++c) {
    hac::Rng rng(seed * 1000 + 101 + c);
    Stream& s = out[c];

    // Per owned topic: documents linked from the topic dir and r0 under both of
    // its queries (stable), and r1 members under both (prohibit candidates).
    std::vector<size_t> owned;
    std::vector<std::vector<size_t>> stable(ntopics), in_r1(ntopics);
    for (size_t t = c; t < ntopics; t += conns) {
      for (size_t d = 0; d < lib.doc_paths.size(); ++d) {
        if (!lib.DocHasTopic(d, t) || lib.DocHasTerm(d, lib.toggle_words[t])) {
          continue;
        }
        if (lib.DocHasTerm(d, lib.refine_words[t][0])) {
          stable[t].push_back(d);
        }
        if (lib.DocHasTerm(d, lib.refine_words[t][1])) {
          in_r1[t].push_back(d);
        }
      }
      if (!stable[t].empty() && !in_r1[t].empty()) {
        owned.push_back(t);
      }
    }
    Rotation<size_t> read_topics(owned, rng), sem_topics(owned, rng),
        toggle_topics(owned, rng);

    std::vector<bool> toggled(ntopics, false);
    std::vector<Step> pending;  // the outstanding edit's undo (at most one)
    std::vector<std::string> live;
    size_t writes = 0, created = 0, sem_slot = 0;

    auto toggle = [&](size_t t) {
      const std::string query = toggled[t]
                                    ? lib.topics[t]
                                    : lib.topics[t] + " AND NOT " + lib.toggle_words[t];
      toggled[t] = !toggled[t];
      return MakeStep(ServerOp::kSetQuery, lib.TopicDir(t), query, OpClass::kSem);
    };
    auto edit = [&](Step step, Step undo) {
      s.push_back(std::move(step));
      pending.push_back(std::move(undo));
    };
    auto write = [&](Step step) {
      s.push_back(std::move(step));
      if (++writes % kReindexEvery == 0) {
        s.push_back(MakeStep(ServerOp::kReindex, "/", "", OpClass::kSem));
      }
    };
    auto write_file = [&](const std::string& path) {
      Step w = MakeStep(ServerOp::kWriteFile, path, "", OpClass::kWrite);
      w.body = &bodies[rng.NextBelow(bodies.size())];
      return w;
    };

    for (size_t b = 0; b < kBlocks; ++b) {
      for (Kind kind : Deck(block, rng)) {
        const size_t t = read_topics.Next();
        if (live.size() <= kMinLive && (kind == kOverwrite || kind == kUnlink)) {
          kind = kCreate;
        }
        switch (kind) {
          case kReadDir: {
            const size_t pick = rng.NextBelow(5);  // topic dir, r0..r2, or a join
            const std::string dir =
                pick == 0 ? lib.TopicDir(t)
                : pick < 4
                    ? lib.RefineDir(t, pick - 1)
                    : lib.sem_dirs[lib.sem_dirs.size() - 1 - rng.NextBelow(lib.shape.joins)]
                          .path;
            s.push_back(MakeStep(ServerOp::kReadDir, dir, "", OpClass::kRead));
            break;
          }
          case kLstat: {
            const std::string dir = rng.NextBool() ? lib.TopicDir(t) : lib.RefineDir(t, 0);
            const std::string name = BaseName(lib.doc_paths[rng.Pick(stable[t])]);
            s.push_back(MakeStep(ServerOp::kLstat, dir + "/" + name, "", OpClass::kRead));
            break;
          }
          case kLinkClasses:
            s.push_back(MakeStep(ServerOp::kGetLinkClasses,
                                 lib.RefineDir(t, 1 + rng.NextBelow(2)), "", OpClass::kRead));
            break;
          case kCreate: {
            const std::string path = lib.corpus_dirs[created % lib.corpus_dirs.size()] +
                                     "/s" + std::to_string(c) + "_" +
                                     std::to_string(created) + ".txt";
            ++created;
            live.push_back(path);
            write(write_file(path));
            break;
          }
          case kOverwrite:
            write(write_file(rng.Pick(live)));
            break;
          case kUnlink: {
            const size_t i = rng.NextBelow(live.size());
            write(MakeStep(ServerOp::kUnlink, live[i], "", OpClass::kWrite));
            live[i] = live.back();
            live.pop_back();
            break;
          }
          case kSem: {
            const size_t st = sem_topics.Next();
            switch (sem_order[sem_slot++ % sem_order.size()]) {
              case kToggle:
                s.push_back(toggle(toggle_topics.Next()));
                break;
              case kProhibit: {
                const std::string dir = lib.RefineDir(st, 1);
                const std::string file = lib.doc_paths[rng.Pick(in_r1[st])];
                edit(MakeStep(ServerOp::kProhibit, dir, file, OpClass::kSem),
                     MakeStep(ServerOp::kUnprohibit, dir, file, OpClass::kSem));
                break;
              }
              case kPromote: {
                const std::string link =
                    lib.RefineDir(st, 0) + "/" + BaseName(lib.doc_paths[rng.Pick(stable[st])]);
                edit(MakeStep(ServerOp::kPromoteLink, link, "", OpClass::kSem),
                     MakeStep(ServerOp::kDemoteLink, link, "", OpClass::kSem));
                break;
              }
              case kRename: {
                const std::string from = lib.RefineDir(st, last_refine);
                edit(MakeStep(ServerOp::kRename, from, from + "x", OpClass::kSem),
                     MakeStep(ServerOp::kRename, from + "x", from, OpClass::kSem));
                break;
              }
              case kSSync:
                s.push_back(MakeStep(ServerOp::kSSync, lib.TopicDir(st), "", OpClass::kSem));
                break;
              case kUndo:
                s.insert(s.end(), pending.begin(), pending.end());
                pending.clear();
                break;
            }
            break;
          }
        }
      }
    }

    // Undo tail: the next cycle starts from the library's state.
    s.insert(s.end(), pending.begin(), pending.end());
    for (size_t t : owned) {
      if (toggled[t]) {
        s.push_back(toggle(t));
      }
    }
    for (const std::string& path : live) {
      s.push_back(MakeStep(ServerOp::kUnlink, path, "", OpClass::kWrite));
    }
    s.push_back(MakeStep(ServerOp::kReindex, "/", "", OpClass::kSem));
  }
  return out;
}

void AppendIngestWindow(const LibraryInputs& lib, const std::vector<std::string>& bodies,
                        size_t tag, size_t k, Stream& out) {
  constexpr size_t kWindowsPerDir = 16;
  const std::string t = std::to_string(tag);
  auto dir_of = [&](size_t window) {
    const size_t m = window / kWindowsPerDir;
    return lib.corpus_dirs[(m + tag) % lib.corpus_dirs.size()] + "/in" + t + "_" +
           std::to_string(m);
  };
  auto file = [&](const char* prefix, size_t window) {
    return dir_of(window) + "/" + prefix + std::to_string(window) + ".txt";
  };
  size_t body = tag * 7919 + k * kIngestWindow;
  auto write = [&](const std::string& path) {
    Step s = MakeStep(ServerOp::kWriteFile, path, "", OpClass::kWrite);
    s.body = &bodies[body++ % bodies.size()];
    return s;
  };
  auto op = [](ServerOp o, const std::string& path, const std::string& aux = "") {
    return MakeStep(o, path, aux, OpClass::kWrite);
  };

  const std::string p = file("p", k), q = file("q", k), r = file("r", k), s = file("s", k);
  std::vector<Step> w;
  if (k % kWindowsPerDir == 0) {
    w.push_back(op(ServerOp::kMkdir, dir_of(k)));
    w.push_back(write(p));
    w.push_back(write(p));
    w.push_back(op(ServerOp::kRename, p, r));
    w.push_back(write(s));
    if (k == 0) {
      w.push_back(write(q));
      w.push_back(op(ServerOp::kUnlink, q));
    } else {
      w.push_back(op(ServerOp::kUnlink, file("r", k - 1)));
      w.push_back(op(ServerOp::kUnlink, file("s", k - 1)));
    }
    w.push_back(write(s));
  } else {
    w.push_back(write(p));
    w.push_back(write(q));
    w.push_back(write(p));
    w.push_back(op(ServerOp::kRename, p, r));
    w.push_back(op(ServerOp::kUnlink, q));
    w.push_back(write(s));
    w.push_back(op(ServerOp::kUnlink, file("r", k - 1)));
    w.push_back(op(ServerOp::kUnlink, file("s", k - 1)));
  }
  for (Step& step : w) {
    step.pipelined = true;
    out.push_back(std::move(step));
  }
  out.push_back(MakeStep(ServerOp::kStat, s, "", OpClass::kRead));
}

Stream IngestPrefix(const LibraryInputs& lib, const std::vector<std::string>& bodies,
                    size_t tag, size_t windows) {
  Stream out;
  for (size_t k = 0; k < windows; ++k) {
    AppendIngestWindow(lib, bodies, tag, k, out);
  }
  return out;
}

}  // namespace hacbench

// ConsistencyEngine: the scope-consistency subsystem (sections 2.3-2.5), extracted
// from the HacFileSystem facade so the propagation strategy is swappable.
//
// Two strategies implement the same invariant — for every semantic directory sd with
// parent p:
//
//   transient(sd) == Eval(query(sd), scope(p)) − permanent(sd) − prohibited(sd)
//
//   * kEager (the paper's prototype): every mutation immediately re-evaluates the
//     affected directory and everything downstream of it in topological order, each
//     visit running the full query from scratch.
//
//   * kIncremental (default): each directory carries a scope epoch and a cached raw
//     evaluation (DirEvalCache). A mutation propagates as a *delta bitmap* — the docs
//     whose membership may have changed — and dependents re-evaluate the query only
//     over that delta:  raw' = (raw ∖ Δ) ∪ Eval(query, scope' ∩ Δ).  This is exact
//     because the evaluator is pointwise per document (NOT is interpreted relative to
//     the supplied scope, one doc at a time). A visit whose upstream epochs, doc log
//     and in-pass deltas are all unchanged short-circuits without touching the index.
//
// Mutations can be coalesced: BeginBatch()/EndBatch() (or the RAII BatchScope on the
// facade) defer propagation and run ONE multi-source topological pass over the union
// of all pending origins at EndBatch. Readers that observe link sets (ReadDir, Search,
// SSync, ...) force a flush first, so batching is never visible to them.
//
// The engine keeps a generation-tagged log of document-level changes (files created,
// deleted, renamed, re-indexed) and a per-directory watermark, so a directory visited
// after any interleaving of passes still sees exactly the docs that changed since its
// own last visit. The log is compacted once every cached directory has caught up.
//
// An incremental pass visits the affected subgraph level by level
// (DependencyGraph::AffectedInLevels): a directory's level is its longest dependency
// path from a source, and each level is visited in ascending-uid order, so the VFS
// mutation order — and with it symlink names and inode numbers — is deterministic.
#ifndef HAC_CORE_CONSISTENCY_ENGINE_H_
#define HAC_CORE_CONSISTENCY_ENGINE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/index/cba.h"    // DocId
#include "src/index/query.h"  // DirUid
#include "src/support/bitmap.h"
#include "src/support/result.h"

namespace hac {

class HacFileSystem;

enum class ConsistencyMode {
  kEager,        // paper-faithful: full re-evaluation on every mutation
  kIncremental,  // epoch-gated delta propagation with batching
};

class ConsistencyEngine {
 public:
  ConsistencyEngine(HacFileSystem* host, ConsistencyMode mode)
      : host_(host), mode_(mode) {}

  ConsistencyMode mode() const { return mode_; }

  // --- mutation notifications ---

  // The contents of `uid` changed (a link was added/removed/reclassified, its query
  // changed, or it moved). `contents_delta`, when supplied, is the set of docs whose
  // link status in `uid` changed; it seeds the delta that dependents re-evaluate over.
  // Outside a batch this runs a propagation pass immediately; inside one it only
  // records the origin.
  Result<void> NotifyScopeChanged(DirUid uid, const Bitmap* contents_delta = nullptr);

  // A document-level event: file created, deleted, renamed, indexed or purged. Logged
  // so later visits include the doc in their delta; never triggers propagation itself
  // (data consistency stays deferred, section 2.4).
  void NoteDocChanged(DocId doc);

  // Drop `uid`'s cached evaluation (its query changed or was cleared).
  void InvalidateCache(DirUid uid);

  // --- passes ---

  // ssync semantics: re-evaluate `uid` and everything downstream, folding in any
  // pending batched origins.
  Result<void> SyncFrom(DirUid uid);

  // Reindex semantics: one pass over the full dependency DAG.
  Result<void> PropagateAll();

  // --- batching ---

  void BeginBatch() { ++batch_depth_; }
  // Closes the innermost batch; the outermost EndBatch flushes. Unbalanced calls fail.
  Result<void> EndBatch();
  bool InBatch() const { return batch_depth_ > 0; }
  // Runs the pending batched pass, if any. Readers call this; safe to call anytime.
  Result<void> Flush();

  bool InPass() const { return in_pass_; }

  // Persistence load replays mutations with propagation suppressed, then runs one
  // global pass.
  void Suspend(bool on) { suspended_ = on; }

  size_t PendingOriginCount() const { return pending_origins_.size(); }

 private:
  // One topological pass. `origins` maps each source directory to the contents delta
  // its mutation produced. `full` visits the whole DAG instead of the affected set.
  Result<void> RunPass(std::map<DirUid, Bitmap> origins, bool full);

  // Paper-faithful visit: full evaluation, unconditional link refresh.
  Result<void> VisitEager(DirUid uid);

  // Epoch-gated visit: short-circuit, or splice Eval(query, scope' ∩ Δ) into the
  // cached raw result. `contents_delta` accumulates, per pass, how each visited
  // directory's contents changed, so dir() dependents re-evaluate only that.
  Result<void> VisitIncremental(DirUid uid, const std::map<DirUid, Bitmap>& origins,
                                std::unordered_map<DirUid, Bitmap>* contents_delta);

  // Shared tail of both visits: subtract self-links and user edits from `raw`,
  // materialize the transient diff as symlink churn, refresh stale link targets.
  // `refresh_filter` limits target refresh to docs in the delta (null = refresh all).
  Result<void> MaterializeTransients(DirUid uid, const std::string& path,
                                     const Bitmap& raw, const Bitmap* refresh_filter,
                                     Bitmap* transient_delta);

  uint64_t DepEpochSum(DirUid uid) const;
  Bitmap DocDeltaSince(uint64_t gen_seen) const;
  void AppendDocLog(DocId doc);
  void CompactDocLog();

  HacFileSystem* host_;
  ConsistencyMode mode_;

  // Batched origins awaiting a flush: directory -> accumulated contents delta.
  std::map<DirUid, Bitmap> pending_origins_;
  // Document-change log: (generation, docs changed at that generation).
  std::vector<std::pair<uint64_t, Bitmap>> doc_log_;
  uint64_t gen_ = 0;  // bumped at the start of every incremental pass

  int batch_depth_ = 0;
  bool batch_dirty_ = false;  // a mutation was recorded while a batch was open
  bool in_pass_ = false;
  bool suspended_ = false;
};

}  // namespace hac

#endif  // HAC_CORE_CONSISTENCY_ENGINE_H_

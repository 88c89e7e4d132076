// One unified counter surface for the whole stack. HacFileSystem::Stats() returns a
// StatsSnapshot that flattens the facade's own counters and embeds the component views
// (the index's CbaStats, the VFS's FsStats) that used to require three separate calls.
//
// The facade records each event once, on the FacadeCounters it owns; each counter is
// attached to the global metrics registry under its exported name (support/metrics.h),
// so the registry and Stats() read the same objects. StatsSnapshot is the plain value
// Stats() copies them into.
#ifndef HAC_CORE_STATS_SNAPSHOT_H_
#define HAC_CORE_STATS_SNAPSHOT_H_

#include <cstdint>

#include "src/index/cba.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/vfs/fs_stats.h"

namespace hac {

struct StatsSnapshot {
  // --- scope-consistency engine ---
  uint64_t query_evaluations = 0;   // full query evaluations (cold cache, eager mode)
  uint64_t delta_evaluations = 0;   // incremental re-evaluations over a delta bitmap
  uint64_t scope_propagations = 0;  // directories actually recomputed by passes
  uint64_t short_circuit_propagations = 0;  // visits skipped: nothing upstream changed
  uint64_t batch_flushes = 0;       // batched passes run (EndBatch or a forced flush)
  uint64_t batched_mutations = 0;   // mutations coalesced inside Begin/EndBatch
  uint64_t transient_links_added = 0;
  uint64_t transient_links_removed = 0;

  // --- deferred data consistency ---
  uint64_t docs_indexed = 0;
  uint64_t docs_purged = 0;
  uint64_t auto_reindexes = 0;

  // --- remote semantic mounts ---
  uint64_t remote_searches = 0;
  uint64_t remote_imports = 0;

  // --- shared attribute cache ---
  uint64_t attr_cache_hits = 0;
  uint64_t attr_cache_misses = 0;

  // --- component views ---
  CbaStats index;  // content-based access mechanism (documents, terms, postings)
  FsStats vfs;     // underlying VFS call counts
};

// The facade's event counters, one per StatsSnapshot field above except the
// attribute-cache pair, which the AttributeCache counts itself.
struct FacadeCounters {
  Counter query_evaluations{metric_names::kConsistencyQueryEvaluations};
  Counter delta_evaluations{metric_names::kConsistencyDeltaEvaluations};
  Counter scope_propagations{metric_names::kConsistencyScopePropagations};
  Counter short_circuit_propagations{metric_names::kConsistencyShortCircuits};
  Counter batch_flushes{metric_names::kConsistencyBatchFlushes};
  Counter batched_mutations{metric_names::kConsistencyBatchedMutations};
  Counter transient_links_added{metric_names::kLinksTransientAdded};
  Counter transient_links_removed{metric_names::kLinksTransientRemoved};
  Counter docs_indexed{metric_names::kReindexDocsIndexed};
  Counter docs_purged{metric_names::kReindexDocsPurged};
  Counter auto_reindexes{metric_names::kReindexAuto};
  Counter remote_searches{metric_names::kRemoteSearches};
  Counter remote_imports{metric_names::kRemoteImports};
};

}  // namespace hac

#endif  // HAC_CORE_STATS_SNAPSHOT_H_

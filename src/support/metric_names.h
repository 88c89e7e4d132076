// The canonical table of every metric and span name the process exports.
//
// One source of truth, three consumers: instrumentation sites reference these
// constants (never string literals), MetricsRegistry::Global() pre-registers every
// name at construction so kIntrospect output is complete and deterministic even for
// counters that have not fired yet, and the docs_check gate cross-checks this table
// against docs/OBSERVABILITY.md in both directions. Adding a metric means adding it
// HERE and to the doc table — docs_check fails the build otherwise.
//
// Naming convention (documented in docs/OBSERVABILITY.md): dot-separated
// `hac.<subsystem>.<what>[_<unit>]`, lowercase, underscores inside a segment.
// Histogram names carry their unit as the final suffix (`_us` microseconds,
// `_size` request counts, `_pct` percent 0-100). Span names have no `hac.` prefix —
// they name code regions, not exported series — and use `<subsystem>.<region>`.
#ifndef HAC_SUPPORT_METRIC_NAMES_H_
#define HAC_SUPPORT_METRIC_NAMES_H_

#include <cstddef>

namespace hac::metric_names {

// --- consistency engine (src/core/consistency_engine.cc) ---
inline constexpr const char* kConsistencyQueryEvaluations =
    "hac.consistency.query_evaluations";
inline constexpr const char* kConsistencyDeltaEvaluations =
    "hac.consistency.delta_evaluations";
inline constexpr const char* kConsistencyScopePropagations =
    "hac.consistency.scope_propagations";
inline constexpr const char* kConsistencyShortCircuits =
    "hac.consistency.short_circuit_propagations";
inline constexpr const char* kConsistencyBatchFlushes = "hac.consistency.batch_flushes";
inline constexpr const char* kConsistencyBatchedMutations =
    "hac.consistency.batched_mutations";
inline constexpr const char* kConsistencyPasses = "hac.consistency.passes";
inline constexpr const char* kLinksTransientAdded = "hac.links.transient_added";
inline constexpr const char* kLinksTransientRemoved = "hac.links.transient_removed";

// --- deferred data consistency + remote mounts (src/core/consistency.cc) ---
inline constexpr const char* kReindexDocsIndexed = "hac.reindex.docs_indexed";
inline constexpr const char* kReindexDocsPurged = "hac.reindex.docs_purged";
inline constexpr const char* kReindexAuto = "hac.reindex.auto_reindexes";
inline constexpr const char* kRemoteSearches = "hac.remote.searches";
inline constexpr const char* kRemoteImports = "hac.remote.imports";

// --- attribute cache (src/core/hac_file_system.cc) ---
inline constexpr const char* kAttrCacheHits = "hac.attr_cache.hits";
inline constexpr const char* kAttrCacheMisses = "hac.attr_cache.misses";

// --- service layer (src/server/hac_service.cc) ---
inline constexpr const char* kServiceAdmittedReads = "hac.service.admitted_reads";
inline constexpr const char* kServiceAdmittedWrites = "hac.service.admitted_writes";
inline constexpr const char* kServiceRejectedQueueFull =
    "hac.service.rejected_queue_full";
inline constexpr const char* kServiceShedDeadline = "hac.service.shed_deadline";
inline constexpr const char* kServiceInlineReads = "hac.service.inline_reads";
inline constexpr const char* kServiceExecutedReads = "hac.service.executed_reads";
inline constexpr const char* kServiceExecutedWrites = "hac.service.executed_writes";
inline constexpr const char* kServiceWriteBatches = "hac.service.write_batches";
inline constexpr const char* kServiceIntrospectRequests =
    "hac.service.introspect_requests";
inline constexpr const char* kServiceSessionsOpened = "hac.service.sessions_opened";
inline constexpr const char* kServiceSessionsClosed = "hac.service.sessions_closed";

// --- network server: wire codec + TCP transport (src/server/{wire,tcp_server}.cc) ---
inline constexpr const char* kServerBytesIn = "hac.server.bytes_in";
inline constexpr const char* kServerBytesOut = "hac.server.bytes_out";
inline constexpr const char* kServerConnectionsOpened = "hac.server.connections_opened";
inline constexpr const char* kServerConnectionsClosed = "hac.server.connections_closed";
inline constexpr const char* kServerWireErrors = "hac.server.wire_errors";
// Epoll transport (src/server/epoll_reactor.cc).
inline constexpr const char* kServerEpollWakeups = "hac.server.epoll_wakeups";
inline constexpr const char* kServerBackpressureStalls =
    "hac.server.backpressure_stalls";
inline constexpr const char* kServerIdleCloses = "hac.server.idle_closes";
// Frame scratch recycling in the wire codec (src/support/buffer_pool.cc).
inline constexpr const char* kServerBufferPoolHits = "hac.server.buffer_pool_hits";
inline constexpr const char* kServerBufferPoolMisses =
    "hac.server.buffer_pool_misses";
// Server-side cursors (kOpenCursor/kFetchPage/kCloseCursor, src/server/hac_service.cc).
// cursor_closed counts explicit closes plus fetch-error auto-closes;
// cursor_harvested counts idle-sweep reclamation (also folded into cursor_closed).
// cursor_stale always reads 0 (cursors resume by position); it stays registered
// for readers that compute a stale ratio.
inline constexpr const char* kServerCursorOpened = "hac.server.cursor_opened";
inline constexpr const char* kServerCursorClosed = "hac.server.cursor_closed";
inline constexpr const char* kServerCursorStale = "hac.server.cursor_stale";
inline constexpr const char* kServerCursorHarvested = "hac.server.cursor_harvested";

// --- durability: WAL + checkpoints + recovery (src/core/durability.cc) ---
inline constexpr const char* kDurabilityWalAppends = "hac.durability.wal_appends";
inline constexpr const char* kDurabilityWalBytes = "hac.durability.wal_bytes";
// Zeros written ahead of the log's end, so that group commits sync data only.
inline constexpr const char* kDurabilityWalZeroFillBytes =
    "hac.durability.wal_zero_fill_bytes";
inline constexpr const char* kDurabilityCheckpoints = "hac.durability.checkpoints";
// Image bytes published, header included; ÷ wal_bytes = image bytes per WAL byte.
inline constexpr const char* kDurabilityCheckpointBytes =
    "hac.durability.checkpoint_bytes";
inline constexpr const char* kDurabilityRecoveries = "hac.durability.recoveries";
inline constexpr const char* kDurabilityReplayedRecords =
    "hac.durability.replayed_records";
inline constexpr const char* kDurabilityCorruptFrames =
    "hac.durability.corrupt_frames";

// --- index / query path (src/index/inverted_index.cc) ---
inline constexpr const char* kIndexQueries = "hac.index.queries";
inline constexpr const char* kIndexDocsIndexed = "hac.index.docs_indexed";
inline constexpr const char* kIndexDocsRemoved = "hac.index.docs_removed";

// --- tracer self-accounting (src/support/trace.cc) ---
inline constexpr const char* kTraceDropped = "hac.trace.dropped";

// --- gauges ---
inline constexpr const char* kServiceOpenSessions = "hac.service.open_sessions";
inline constexpr const char* kServiceReadQueueDepth = "hac.service.read_queue_depth";
inline constexpr const char* kServerOpenConnections = "hac.server.open_connections";
inline constexpr const char* kServerCursorOpen = "hac.server.cursor_open";

// --- histograms (unit in the suffix) ---
inline constexpr const char* kConsistencyPassUs = "hac.consistency.pass_us";
inline constexpr const char* kServiceQueueWaitReadUs =
    "hac.service.queue_wait_read_us";
inline constexpr const char* kServiceQueueWaitWriteUs =
    "hac.service.queue_wait_write_us";
inline constexpr const char* kServiceTimeReadUs = "hac.service.service_time_read_us";
inline constexpr const char* kServiceTimeWriteUs = "hac.service.service_time_write_us";
inline constexpr const char* kServiceWriteBatchSize = "hac.service.write_batch_size";
inline constexpr const char* kIndexQueryUs = "hac.index.query_us";
inline constexpr const char* kIndexQuerySelectivityPct =
    "hac.index.query_selectivity_pct";
// Wire codec cost per frame (encode: typed struct -> bytes; decode: the reverse).
inline constexpr const char* kServerWireEncodeNs = "hac.server.wire_encode_ns";
inline constexpr const char* kServerWireDecodeNs = "hac.server.wire_decode_ns";
// Epoll transport shape: complete request frames decoded per recv wake (pipelining
// depth) and response frames coalesced per writev syscall (group-commit payoff).
inline constexpr const char* kServerFramesPerWake = "hac.server.frames_per_wake";
inline constexpr const char* kServerWritevFrames = "hac.server.writev_frames";
// Page shape per kFetchPage: entries delivered and name/path payload bytes.
inline constexpr const char* kServerCursorPageEntries =
    "hac.server.cursor_page_entries";
inline constexpr const char* kServerCursorPageBytes = "hac.server.cursor_page_bytes";
// Durability: one fdatasync per group commit; checkpoint/recovery are whole-operation
// durations (a checkpoint from its build to its publication; recovery includes
// checkpoint load, WAL replay, and the reindex). checkpoint_build_us is the writer's
// share of one checkpoint: SaveState plus the WAL rotation.
inline constexpr const char* kDurabilityFsyncUs = "hac.durability.fsync_us";
inline constexpr const char* kDurabilityCheckpointUs = "hac.durability.checkpoint_us";
inline constexpr const char* kDurabilityCheckpointBuildUs =
    "hac.durability.checkpoint_build_us";
inline constexpr const char* kDurabilityRecoveryUs = "hac.durability.recovery_us";

// --- span names (scoped regions recorded into the trace ring) ---
inline constexpr const char* kSpanConsistencyPass = "consistency.pass";
inline constexpr const char* kSpanServiceRead = "service.read";
inline constexpr const char* kSpanServiceWriteBatch = "service.write_batch";
inline constexpr const char* kSpanIndexEvaluate = "index.evaluate";
inline constexpr const char* kSpanDurabilityWalCommit = "durability.wal_commit";
inline constexpr const char* kSpanDurabilityCheckpointBuild = "durability.checkpoint_build";
inline constexpr const char* kSpanDurabilityCheckpointPublish =
    "durability.checkpoint_publish";

// Enumeration used for pre-registration and the docs_check cross-check.
inline constexpr const char* kAllCounters[] = {
    kConsistencyQueryEvaluations, kConsistencyDeltaEvaluations,
    kConsistencyScopePropagations, kConsistencyShortCircuits,
    kConsistencyBatchFlushes, kConsistencyBatchedMutations, kConsistencyPasses,
    kLinksTransientAdded, kLinksTransientRemoved, kReindexDocsIndexed,
    kReindexDocsPurged, kReindexAuto, kRemoteSearches, kRemoteImports, kAttrCacheHits,
    kAttrCacheMisses, kServiceAdmittedReads, kServiceAdmittedWrites,
    kServiceRejectedQueueFull, kServiceShedDeadline, kServiceInlineReads,
    kServiceExecutedReads, kServiceExecutedWrites, kServiceWriteBatches,
    kServiceIntrospectRequests,
    kServiceSessionsOpened, kServiceSessionsClosed, kServerBytesIn, kServerBytesOut,
    kServerConnectionsOpened, kServerConnectionsClosed, kServerWireErrors,
    kServerEpollWakeups, kServerBackpressureStalls, kServerIdleCloses,
    kServerBufferPoolHits, kServerBufferPoolMisses,
    kServerCursorOpened, kServerCursorClosed, kServerCursorStale,
    kServerCursorHarvested,
    kDurabilityWalAppends, kDurabilityWalBytes, kDurabilityWalZeroFillBytes,
    kDurabilityCheckpoints, kDurabilityCheckpointBytes, kDurabilityRecoveries,
    kDurabilityReplayedRecords, kDurabilityCorruptFrames,
    kIndexQueries, kIndexDocsIndexed, kIndexDocsRemoved, kTraceDropped,
};
inline constexpr const char* kAllGauges[] = {
    kServiceOpenSessions,
    kServiceReadQueueDepth,
    kServerOpenConnections,
    kServerCursorOpen,
};
inline constexpr const char* kAllHistograms[] = {
    kConsistencyPassUs,     kServiceQueueWaitReadUs, kServiceQueueWaitWriteUs,
    kServiceTimeReadUs,     kServiceTimeWriteUs,     kServiceWriteBatchSize,
    kIndexQueryUs,          kIndexQuerySelectivityPct,
    kServerWireEncodeNs,    kServerWireDecodeNs,
    kServerFramesPerWake, kServerWritevFrames,
    kServerCursorPageEntries, kServerCursorPageBytes,
    kDurabilityFsyncUs, kDurabilityCheckpointUs, kDurabilityCheckpointBuildUs,
    kDurabilityRecoveryUs,
};
inline constexpr const char* kAllSpans[] = {
    kSpanConsistencyPass,
    kSpanServiceRead,
    kSpanServiceWriteBatch,
    kSpanIndexEvaluate,
    kSpanDurabilityWalCommit,
    kSpanDurabilityCheckpointBuild,
    kSpanDurabilityCheckpointPublish,
};

}  // namespace hac::metric_names

#endif  // HAC_SUPPORT_METRIC_NAMES_H_

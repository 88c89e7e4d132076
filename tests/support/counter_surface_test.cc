// One counter surface: every Stats() field that has an exported registry name must
// move by exactly the registry's delta for that name, across every owner (facade,
// index, service, TCP server, buffer pool). The registry sums live instances, keeps
// what destroyed ones counted, and ResetForTest zeroes only its own view.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/hac_file_system.h"
#include "src/remote/name_space.h"
#include "src/server/client.h"
#include "src/server/hac_service.h"
#include "src/server/tcp_client.h"
#include "src/server/tcp_server.h"
#include "src/support/buffer_pool.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {
namespace {

namespace mn = metric_names;

using Totals = std::map<std::string, uint64_t>;
template <class Stats>
using Fields = std::vector<std::pair<const char*, std::function<uint64_t(const Stats&)>>>;

#define VIEW(field) [](const auto& s) -> uint64_t { return s.field; }

// Each Stats() field with a registry name.
const Fields<StatsSnapshot> kFacadeFields = {
    {mn::kConsistencyQueryEvaluations, VIEW(query_evaluations)},
    {mn::kConsistencyDeltaEvaluations, VIEW(delta_evaluations)},
    {mn::kConsistencyScopePropagations, VIEW(scope_propagations)},
    {mn::kConsistencyShortCircuits, VIEW(short_circuit_propagations)},
    {mn::kConsistencyBatchFlushes, VIEW(batch_flushes)},
    {mn::kConsistencyBatchedMutations, VIEW(batched_mutations)},
    {mn::kLinksTransientAdded, VIEW(transient_links_added)},
    {mn::kLinksTransientRemoved, VIEW(transient_links_removed)},
    {mn::kReindexDocsIndexed, VIEW(docs_indexed)},
    {mn::kReindexDocsPurged, VIEW(docs_purged)},
    {mn::kReindexAuto, VIEW(auto_reindexes)},
    {mn::kRemoteSearches, VIEW(remote_searches)},
    {mn::kRemoteImports, VIEW(remote_imports)},
    {mn::kAttrCacheHits, VIEW(attr_cache_hits)},
    {mn::kAttrCacheMisses, VIEW(attr_cache_misses)},
    {mn::kIndexQueries, VIEW(index.queries_evaluated)},
};
const Fields<ServiceStats> kServiceFields = {
    {mn::kServiceAdmittedReads, VIEW(admitted_reads)},
    {mn::kServiceAdmittedWrites, VIEW(admitted_writes)},
    {mn::kServiceRejectedQueueFull, VIEW(rejected_queue_full)},
    {mn::kServiceShedDeadline, VIEW(shed_deadline)},
    {mn::kServiceExecutedReads, VIEW(executed_reads)},
    {mn::kServiceExecutedWrites, VIEW(executed_writes)},
    {mn::kServiceWriteBatches, VIEW(write_batches)},
    {mn::kServiceSessionsOpened, VIEW(sessions_opened)},
    {mn::kServiceSessionsClosed, VIEW(sessions_closed)},
};
const Fields<TcpServerStats> kServerFields = {
    {mn::kServerConnectionsOpened, VIEW(connections_opened)},
    {mn::kServerConnectionsClosed, VIEW(connections_closed)},
    {mn::kServerWireErrors, VIEW(wire_errors)},
    {mn::kServerBytesIn, VIEW(bytes_in)},
    {mn::kServerBytesOut, VIEW(bytes_out)},
    {mn::kServerIdleCloses, VIEW(idle_closes)},
    {mn::kServerBackpressureStalls, VIEW(backpressure_stalls)},
};
const Fields<BufferPool::PoolStats> kPoolFields = {
    {mn::kServerBufferPoolHits, VIEW(hits)},
    {mn::kServerBufferPoolMisses, VIEW(misses)},
};

#undef VIEW

Totals RegistryCounters() {
  Totals out;
  for (const auto& [name, value] : MetricsRegistry::Global().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

// For every name in `fields`, the registry moved from `reg0` to `reg1` by the sum
// of the (before, after) deltas of the given Stats() views.
template <class Stats>
void ExpectParity(const Fields<Stats>& fields, const Totals& reg0, const Totals& reg1,
                  const std::vector<std::pair<Stats, Stats>>& views) {
  for (const auto& [name, field] : fields) {
    uint64_t delta = 0;
    for (const auto& [before, after] : views) {
      delta += field(after) - field(before);
    }
    EXPECT_EQ(reg1.at(name) - reg0.at(name), delta) << name;
  }
}

// A remote name space that answers every query with the same two documents. (The
// shipped ones keep an InvertedIndex of their own, which would add to
// hac.index.queries.)
class FixedSpace final : public NameSpace {
 public:
  std::string Name() const override { return "fixed"; }
  std::string QueryLanguage() const override { return "hac-bool"; }
  Result<std::vector<RemoteDoc>> Search(const QueryExpr&) override {
    return std::vector<RemoteDoc>{{"a1", "Fingerprint Survey"}, {"a2", "Latent Prints"}};
  }
  Result<std::string> Fetch(const std::string& handle) override {
    return "fingerprint ridge " + handle;
  }
};

// Moves every facade counter: reindex ingest and purge, transient links added by a
// query and removed by clearing it, batching, the attribute cache, and a semantic
// mount's remote search and import.
void FacadeWorkload(HacFileSystem& fs, NameSpace& remote) {
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        fs.WriteFile("/docs/f" + std::to_string(i), i % 2 ? "alpha ridge" : "ridge").ok());
  }
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/q", "alpha").ok());
  ASSERT_TRUE(fs.SMkdir("/q/r", "ridge").ok());
  ASSERT_TRUE(fs.StatPath("/docs/f0").ok());
  ASSERT_TRUE(fs.StatPath("/docs/f0").ok());
  {
    BatchScope batch(fs);
    ASSERT_TRUE(fs.WriteFile("/docs/b", "alpha batched").ok());
    ASSERT_TRUE(fs.Unlink("/docs/f1").ok());
    ASSERT_TRUE(fs.Symlink("/docs/f2", "/q/pinned").ok());
    ASSERT_TRUE(batch.Commit().ok());
  }
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.Search("ridge", "/docs").ok());
  // A syntactic revert drops every transient link the query had made.
  ASSERT_TRUE(fs.SetQuery("/q", "").ok());
  ASSERT_TRUE(fs.Mkdir("/lib").ok());
  ASSERT_TRUE(fs.MountSemantic("/lib", &remote).ok());
  ASSERT_TRUE(fs.SMkdir("/lib/fp", "fingerprint").ok());
}

TEST(CounterSurfaceTest, EveryOwnerMovesItsRegistryNameByTheSameDelta) {
  FixedSpace remote;
  HacOptions auto_reindex;
  auto_reindex.sync_policy = SyncPolicy::EveryNMutations(4);
  HacFileSystem a(auto_reindex), b;
  const Totals reg0 = RegistryCounters();
  const StatsSnapshot a0 = a.Stats(), b0 = b.Stats();
  const BufferPool::PoolStats pool0 = BufferPool::Global().Stats();

  FacadeWorkload(a, remote);
  FacadeWorkload(b, remote);
  const StatsSnapshot a1 = a.Stats();
  EXPECT_GT(a1.transient_links_removed, 0u);
  EXPECT_GT(a1.batched_mutations, 0u);
  EXPECT_GT(a1.auto_reindexes, 0u);
  EXPECT_GT(a1.remote_imports, 0u);

  HacService service(a);
  TcpServer server(service);
  ASSERT_TRUE(server.Start().ok());
  {
    RemoteServiceClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.WriteFile("/docs/remote", "alpha over the wire").ok());
    ASSERT_TRUE(client.Reindex().ok());
    ASSERT_TRUE(client.StatPath("/docs/remote").ok());
    ASSERT_TRUE(client.Search("alpha", "/docs").ok());
  }
  // Bytes that are not a frame: one wire error, then the server hangs up.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::vector<uint8_t> junk(32, 0xff);
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL), ssize_t{32});
  uint8_t buf[256];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
  server.Stop();  // every connection is closed and counted once Stop returns
  service.Stop();

  const Totals reg1 = RegistryCounters();
  ExpectParity(kFacadeFields, reg0, reg1, {{a0, a.Stats()}, {b0, b.Stats()}});
  EXPECT_GT(service.Stats().executed_writes, 0u);
  ExpectParity(kServiceFields, reg0, reg1, {{ServiceStats{}, service.Stats()}});
  EXPECT_EQ(server.Stats().wire_errors, 1u);
  ExpectParity(kServerFields, reg0, reg1, {{TcpServerStats{}, server.Stats()}});
  EXPECT_GT(BufferPool::Global().Stats().hits, pool0.hits);
  ExpectParity(kPoolFields, reg0, reg1, {{pool0, BufferPool::Global().Stats()}});
}

TEST(CounterSurfaceTest, DestroyedInstancesStayCounted) {
  FixedSpace remote;
  const Totals reg0 = RegistryCounters();
  auto a = std::make_unique<HacFileSystem>();
  auto b = std::make_unique<HacFileSystem>();
  FacadeWorkload(*a, remote);
  FacadeWorkload(*b, remote);
  const StatsSnapshot a1 = a->Stats(), b1 = b->Stats();
  const Totals reg1 = RegistryCounters();
  ExpectParity(kFacadeFields, reg0, reg1, {{StatsSnapshot{}, a1}, {StatsSnapshot{}, b1}});

  b.reset();
  EXPECT_EQ(RegistryCounters(), reg1);

  // The survivor keeps counting on top of what the destroyed one left behind.
  ASSERT_TRUE(a->SetQuery("/q", "alpha").ok());
  EXPECT_GT(a->Stats().transient_links_added, a1.transient_links_added);
  ExpectParity(kFacadeFields, reg0, RegistryCounters(),
               {{StatsSnapshot{}, a->Stats()}, {StatsSnapshot{}, b1}});
}

TEST(CounterSurfaceTest, ResetZeroesOnlyTheRegistryView) {
  FixedSpace remote;
  HacFileSystem a, b;
  FacadeWorkload(a, remote);
  FacadeWorkload(b, remote);
  const StatsSnapshot a1 = a.Stats(), b1 = b.Stats();

  MetricsRegistry::Global().ResetForTest();
  const Totals zero = RegistryCounters();
  for (const auto& [name, value] : zero) {
    EXPECT_EQ(value, 0u) << name;
  }
  // Both Stats() views are untouched: no field moved since before the reset.
  ExpectParity(kFacadeFields, zero, zero, {{a1, a.Stats()}, {b1, b.Stats()}});

  // Events after the reset show on both surfaces.
  ASSERT_TRUE(a.SetQuery("/q", "alpha").ok());
  ASSERT_TRUE(b.WriteFile("/docs/late", "alpha late").ok());
  ASSERT_TRUE(b.Reindex().ok());
  ASSERT_TRUE(b.StatPath("/docs/late").ok());
  EXPECT_GT(a.Stats().transient_links_added, a1.transient_links_added);
  EXPECT_GT(b.Stats().docs_indexed, b1.docs_indexed);
  ExpectParity(kFacadeFields, zero, RegistryCounters(), {{a1, a.Stats()}, {b1, b.Stats()}});
}

// The body of the support_metrics_tsan_gate ctest (tests/CMakeLists.txt,
// HAC_SANITIZE=thread): owners attach and detach on several threads while their
// counters record and other threads snapshot the registry.
TEST(CounterSurfaceTest, ConcurrentOwnersRecordersAndReaders) {
  constexpr int kOwnerThreads = 3;
  constexpr int kRounds = 8;
  const Totals reg0 = RegistryCounters();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&stop] {
      while (!stop.load()) {
        (void)MetricsRegistry::Global().Snapshot();
        (void)IntrospectStatsJson();
      }
    });
  }
  std::vector<std::pair<StatsSnapshot, StatsSnapshot>> finals(kOwnerThreads * kRounds);
  std::vector<std::thread> owners;
  for (int t = 0; t < kOwnerThreads; ++t) {
    owners.emplace_back([&finals, t] {
      for (int round = 0; round < kRounds; ++round) {
        FixedSpace remote;
        HacFileSystem fs;
        FacadeWorkload(fs, remote);
        {
          HacService service(fs);
          TcpServer server(service);  // attaches and detaches its counters unstarted
          ServiceClient client(service);
          ASSERT_TRUE(client.WriteFile("/docs/s", "alpha").ok());
          ASSERT_TRUE(client.ReadDir("/docs").ok());
          BufferPool pool;
          pool.Release(pool.Acquire());
        }
        finals[static_cast<size_t>(t * kRounds + round)].second = fs.Stats();
      }
    });
  }
  for (auto& th : owners) {
    th.join();
  }
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
  ExpectParity(kFacadeFields, reg0, RegistryCounters(), finals);
}

}  // namespace
}  // namespace hac

// Recovery-time experiment for the durability layer (docs/DURABILITY.md): how long
// does it take to bring a data directory back, and what does the checkpoint buy?
//
// The workload writes N files through the facade, group-committing the journal into
// the WAL after every batch like the service's writer thread does. Two directories
// are prepared from the identical workload:
//
//   tail-only   — never checkpointed: recovery replays every WAL frame;
//   checkpointed — checkpointed after the bulk load: recovery loads the image and
//                  replays only the short tail written afterwards.
//
// BM_RecoveryAtPolicyTail times recovery at the longest WAL tail the default
// checkpoint policy leaves, for a library below and one above its byte floor.
//
// Run with --hac_json for the acceptance experiment (the `bench_recovery_gate`
// ctest): both recoveries must produce a state digest identical to a clean in-memory
// replay of the same operations, and the checkpointed recovery must replay strictly
// fewer records than the tail-only one. Exits 2 on a digest mismatch, 1 when the
// checkpoint failed to shorten replay. Timings are informational — the recovery-time
// table in EXPERIMENTS.md is regenerated from this output.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/durability.h"
#include "src/core/hac_file_system.h"
#include "src/tools/fsck.h"

namespace hac {
namespace {

namespace fs_std = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs_std::path dir = fs_std::current_path() / "bench_recovery_data" / name;
  fs_std::remove_all(dir);
  fs_std::create_directories(dir);
  return dir.string();
}

// One batch of facade mutations; committed to the WAL as a group like the service's
// writer thread does. Batches after the checkpoint point form the "tail".
void ApplyBatch(HacFileSystem& fs, size_t batch, size_t files_per_batch) {
  const std::string dir = "/d" + std::to_string(batch);
  if (!fs.Mkdir(dir).ok()) {
    std::abort();
  }
  for (size_t f = 0; f < files_per_batch; ++f) {
    const std::string path = dir + "/f" + std::to_string(f) + ".txt";
    const char* topic = f % 3 == 0 ? "fingerprint" : (f % 3 == 1 ? "dental" : "alibi");
    if (!fs.WriteFile(path, std::string(topic) + " evidence item " +
                                std::to_string(batch * files_per_batch + f))
             .ok()) {
      std::abort();
    }
  }
}

struct LoadResult {
  double load_ms = 0;       // facade ops + per-batch WAL group commits
  double checkpoint_ms = 0; // 0 for the tail-only directory
  uint64_t wal_records = 0;
};

LoadResult LoadDirectory(const std::string& dir, size_t batches,
                         size_t files_per_batch, size_t checkpoint_after_batch) {
  DurabilityOptions opts;
  opts.data_dir = dir;
  auto store = DurableStore::Open(opts);
  if (!store.ok()) {
    std::abort();
  }
  auto fs = store.value()->Recover();
  if (!fs.ok()) {
    std::abort();
  }
  LoadResult out;
  BenchTimer t;
  t.Start();
  for (size_t b = 0; b < batches; ++b) {
    ApplyBatch(*fs.value(), b, files_per_batch);
    if (!store.value()->CommitFrom(*fs.value()).ok()) {
      std::abort();
    }
    if (checkpoint_after_batch != 0 && b + 1 == checkpoint_after_batch) {
      out.load_ms += t.StopMs();
      BenchTimer ct;
      ct.Start();
      if (!store.value()->Checkpoint(*fs.value()).ok()) {
        std::abort();
      }
      out.checkpoint_ms = ct.StopMs();
      t.Start();
    }
  }
  out.load_ms += t.StopMs();
  out.wal_records = store.value()->last_lsn();
  return out;
}

struct RecoveryRun {
  double recover_ms = 0;
  uint64_t replayed = 0;
  uint64_t checkpoint_lsn = 0;
  uint64_t digest = 0;
};

RecoveryRun RecoverDirectory(const std::string& dir) {
  DurabilityOptions opts;
  opts.data_dir = dir;
  auto store = DurableStore::Open(opts);
  if (!store.ok()) {
    std::abort();
  }
  RecoveryRun out;
  BenchTimer t;
  t.Start();
  auto fs = store.value()->Recover();
  out.recover_ms = t.StopMs();
  if (!fs.ok()) {
    std::abort();
  }
  out.replayed = store.value()->recovery_info().replayed_records;
  out.checkpoint_lsn = store.value()->recovery_info().checkpoint_lsn;
  if (!fs.value()->Reindex().ok()) {
    std::abort();
  }
  out.digest = StateDigest(*fs.value());
  return out;
}

uint64_t CleanReplayDigest(size_t batches, size_t files_per_batch) {
  HacFileSystem fs;
  for (size_t b = 0; b < batches; ++b) {
    ApplyBatch(fs, b, files_per_batch);
  }
  if (!fs.Reindex().ok()) {
    std::abort();
  }
  return StateDigest(fs);
}

int RunRecoveryGate() {
  const size_t batches = PaperScale() ? 64 : 16;
  const size_t files_per_batch = PaperScale() ? 16 : 8;
  // The checkpointed directory seals after ~90% of the load; the rest is the tail.
  const size_t checkpoint_at = batches - batches / 8 - 1;

  const std::string tail_dir = FreshDir("tail_only");
  const std::string ckpt_dir = FreshDir("checkpointed");
  LoadResult tail_load = LoadDirectory(tail_dir, batches, files_per_batch, 0);
  LoadResult ckpt_load =
      LoadDirectory(ckpt_dir, batches, files_per_batch, checkpoint_at);

  RecoveryRun tail = RecoverDirectory(tail_dir);
  RecoveryRun ckpt = RecoverDirectory(ckpt_dir);
  const uint64_t reference = CleanReplayDigest(batches, files_per_batch);

  JsonObject tail_json;
  tail_json.Add("load_ms", tail_load.load_ms)
      .Add("wal_records", tail_load.wal_records)
      .Add("recover_ms", tail.recover_ms)
      .Add("replayed_records", tail.replayed)
      .Add("digest", tail.digest);
  JsonObject ckpt_json;
  ckpt_json.Add("load_ms", ckpt_load.load_ms)
      .Add("checkpoint_ms", ckpt_load.checkpoint_ms)
      .Add("wal_records", ckpt_load.wal_records)
      .Add("recover_ms", ckpt.recover_ms)
      .Add("replayed_records", ckpt.replayed)
      .Add("checkpoint_lsn", ckpt.checkpoint_lsn)
      .Add("digest", ckpt.digest);
  JsonObject out;
  out.Add("workload", "batched_file_load")
      .Add("batches", static_cast<uint64_t>(batches))
      .Add("files_per_batch", static_cast<uint64_t>(files_per_batch))
      .Add("reference_digest", reference)
      .Add("tail_only", tail_json)
      .Add("checkpointed", ckpt_json)
      .AddBool("digests_match", tail.digest == reference && ckpt.digest == reference)
      .AddBool("checkpoint_shortens_replay", ckpt.replayed < tail.replayed);
  out.Print();

  if (tail.digest != reference || ckpt.digest != reference) {
    std::fprintf(stderr, "FAIL: recovered state diverges from the clean replay\n");
    return 2;
  }
  if (ckpt.replayed >= tail.replayed || ckpt.checkpoint_lsn == 0) {
    std::fprintf(stderr, "FAIL: checkpoint did not shorten WAL replay (%llu >= %llu)\n",
                 static_cast<unsigned long long>(ckpt.replayed),
                 static_cast<unsigned long long>(tail.replayed));
    return 1;
  }
  return 0;
}

// Recovery wall time as the un-checkpointed WAL tail grows (see EXPERIMENTS.md).
void BM_RecoveryByTailLength(benchmark::State& state) {
  const size_t batches = static_cast<size_t>(state.range(0));
  const std::string dir = FreshDir("bm_tail" + std::to_string(batches));
  LoadDirectory(dir, batches, /*files_per_batch=*/8, /*checkpoint_after_batch=*/0);
  for (auto _ : state) {
    RecoveryRun run = RecoverDirectory(dir);
    benchmark::DoNotOptimize(run.digest);
    state.counters["replayed"] = static_cast<double>(run.replayed);
  }
}
BENCHMARK(BM_RecoveryByTailLength)->Arg(4)->Arg(16)->Arg(64);

// The cost of sealing: one checkpoint over a directory of the given size.
void BM_Checkpoint(benchmark::State& state) {
  const size_t batches = static_cast<size_t>(state.range(0));
  const std::string dir = FreshDir("bm_ckpt" + std::to_string(batches));
  LoadDirectory(dir, batches, /*files_per_batch=*/8, /*checkpoint_after_batch=*/0);
  DurabilityOptions opts;
  opts.data_dir = dir;
  auto store = DurableStore::Open(opts);
  if (!store.ok()) {
    std::abort();
  }
  auto fs = store.value()->Recover();
  if (!fs.ok()) {
    std::abort();
  }
  for (auto _ : state) {
    if (!store.value()->Checkpoint(*fs.value()).ok()) {
      std::abort();
    }
  }
}
BENCHMARK(BM_Checkpoint)->Arg(4)->Arg(16);

// Recovery at the checkpoint policy's longest tail, under the default
// DurabilityOptions: `files` files loaded and checkpointed, then batches committed
// until one more would make ShouldCheckpoint() true. The batch that does is cut
// off its segment again at the end of the frames before it (the segment's size
// says nothing: it is zero-filled ahead of its frames), so the directory holds the
// longest tail the policy leaves un-checkpointed. The timed region is Open plus
// Recover.
void BM_RecoveryAtPolicyTail(benchmark::State& state) {
  constexpr size_t kFilesPerBatch = 64;
  const size_t files = static_cast<size_t>(state.range(0));
  const std::string dir = FreshDir("bm_policy_tail" + std::to_string(files));
  DurabilityOptions opts;
  opts.data_dir = dir;
  uint64_t image_bytes = 0;
  uint64_t tail_bytes = 0;
  {
    auto store = DurableStore::Open(opts);
    if (!store.ok()) {
      std::abort();
    }
    auto fs = store.value()->Recover();
    if (!fs.ok()) {
      std::abort();
    }
    size_t batch = 0;
    for (; batch * kFilesPerBatch < files; ++batch) {
      ApplyBatch(*fs.value(), batch, kFilesPerBatch);
      if (!store.value()->CommitFrom(*fs.value()).ok()) {
        std::abort();
      }
    }
    if (!store.value()->Checkpoint(*fs.value()).ok()) {
      std::abort();
    }
    char name[64];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(store.value()->last_lsn()));
    image_bytes =
        fs_std::file_size(fs_std::path(dir) / ("checkpoint-" + std::string(name) + ".hacs"));
    const fs_std::path segment = fs_std::path(dir) / ("wal-" + std::string(name) + ".log");
    // The segment starts at the image: its frames are the bytes since it.
    for (;; ++batch) {
      ApplyBatch(*fs.value(), batch, kFilesPerBatch);
      if (!store.value()->CommitFrom(*fs.value()).ok()) {
        std::abort();
      }
      if (store.value()->ShouldCheckpoint()) {
        fs_std::resize_file(segment, tail_bytes);
        break;
      }
      tail_bytes = store.value()->bytes_since_checkpoint();
    }
  }
  uint64_t replayed = 0;
  for (auto _ : state) {
    auto store = DurableStore::Open(opts);
    if (!store.ok()) {
      std::abort();
    }
    auto fs = store.value()->Recover();
    const RecoveryInfo& info = store.value()->recovery_info();
    if (!fs.ok() || info.tail_truncated || info.replayed_records == 0 ||
        store.value()->ShouldCheckpoint()) {
      std::abort();  // recovery must serve the whole tail, and no checkpoint be due
    }
    replayed = info.replayed_records;
    benchmark::DoNotOptimize(fs.value().get());
    state.PauseTiming();
    fs.value().reset();
    state.ResumeTiming();
  }
  state.counters["image_MB"] = static_cast<double>(image_bytes) / 1e6;
  state.counters["tail_MB"] = static_cast<double>(tail_bytes) / 1e6;
  state.counters["replayed"] = static_cast<double>(replayed);
}
// One library whose image is below the 4 MiB floor, one above it. Set-up takes
// seconds, so each runs a fixed three recoveries.
BENCHMARK(BM_RecoveryAtPolicyTail)
    ->Arg(4096)
    ->Arg(65536)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace hac

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hac_json") == 0) {
      return hac::RunRecoveryGate();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// hacbench: HAC's end-to-end benchmark. See hacbench/README.md.
//
//   hacbench --workload browse|churn|durable_ingest --seed N --seconds S
//            [--trace 0|1] [--smoke] [--out-dir DIR] [--data-dir DIR]
//
// Writes DIR/report-<workload>-<seed>-<trace>.json (metrics with units and sample
// counts, correctness checks, host fingerprint) and prints a summary. Exit status
// 0 means the run completed, whether or not its checks passed (the report says).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "hacbench/src/bench.h"
#include "src/server/wire.h"
#include "src/support/metric_names.h"
#include "src/support/trace.h"
#include "src/tools/fsck.h"

namespace hacbench {
namespace {

namespace fs_std = std::filesystem;

constexpr int kSetupReps = 3;
// Windows sent after the fixed checkpoint: the replayed WAL tail's length.
constexpr size_t kTailWindows = 128;

const char* WhyOf(const std::string& workload) {
  if (workload == "browse") {
    return "read path only: index evaluation, facade path resolution, reader pool, wire "
           "encoding of large responses, reactor; propagation, writer and WAL stay idle";
  }
  if (workload == "churn") {
    return "the editing loop: scope propagation and index evaluation dominate the writer, "
           "and reads stall behind its exclusive lock";
  }
  return "WAL group commit, write batching, reactor coalescing and checkpoint stalls; "
         "index and propagation do almost no work";
}

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(value(), "1") == 0;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else if (k == "--data-dir") {
      a.data_dir = value();
    } else {
      return false;
    }
  }
  return (a.workload == "browse" || a.workload == "churn" ||
          a.workload == "durable_ingest") &&
         a.seconds > 0;
}

// Builds the library, opens the data directory (durable_ingest) with a base
// checkpoint, and starts the stack: the work setup_s times.
hac::Result<void> SetUp(Bench& b, const std::string& data_dir) {
  b.fs = std::make_unique<hac::HacFileSystem>();
  HAC_RETURN_IF_ERROR(BuildLibrary(*b.fs, b.lib));
  hac::DurableStore* store = nullptr;
  if (b.durable()) {
    b.fs->DrainJournal();  // the base checkpoint covers the library
    hac::DurabilityOptions opts;
    opts.data_dir = data_dir;
    HAC_ASSIGN_OR_RETURN(b.store, hac::DurableStore::Open(opts));
    HAC_RETURN_IF_ERROR(b.store->Checkpoint(*b.fs));
    store = b.store.get();
  }
  return b.stack.Start(*b.fs, store);
}

void TearDown(Bench& b) {
  b.stack.Stop();
  b.fs.reset();
  b.store.reset();
}

// Link census of the built library: every transient link, and the largest dir.
std::vector<LinkRef> CensusLinks(Bench& b) {
  std::vector<LinkRef> links;
  size_t total = 0, largest = 0;
  for (const SemDir& d : b.lib.sem_dirs) {
    auto view = b.fs->GetLinkClasses(d.path);
    if (!view.ok()) {
      continue;
    }
    const size_t n = view.value().transient.size() + view.value().permanent.size();
    total += n;
    if (n > largest) {
      largest = n;
      b.largest_dir = d.path;
    }
    for (const auto& [name, target] : view.value().transient) {
      links.push_back({d.path, name});
    }
  }
  b.report.Note("library_docs", double(b.lib.doc_paths.size()));
  b.report.Note("library_semantic_dirs", double(b.lib.sem_dirs.size()));
  b.report.Note("library_links", double(total));
  b.report.Note("library_largest_dir_links", double(largest));
  b.report.Note("library_largest_dir", b.largest_dir);
  return links;
}

// Digest-comparable encoding of a response.
std::vector<uint8_t> Encoded(const hac::ServerResponse& r) {
  hac::ByteWriter w;
  hac::EncodeResponse(r, w);
  return w.buffer();
}

void PrintSummary(const Bench& b) {
  std::printf("hacbench %s seed=%llu trace=%d%s\n", b.args.workload.c_str(),
              static_cast<unsigned long long>(b.args.seed), b.args.trace ? 1 : 0,
              b.args.smoke ? " (smoke)" : "");
  for (const Metric& m : b.report.metrics()) {
    std::printf("  %-34s %14.4f %-6s n=%llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  for (const Check& c : b.report.checks()) {
    std::printf("  check %-28s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
}

// The end-to-end run: set up kSetupReps times, warm up, measure, check.
void RunEndToEnd(Bench& b) {
  Clients clients(b);
  if (auto c = clients.Connect(); !c.ok()) {
    b.report.AddCheck("connect", false, c.error().ToString());
    return;
  }
  Window window;
  clients.Run(b.args.smoke ? 0.2 : 1.0, &window);  // warm-up, discarded
  const double cpu0 = ProcessCpuSec();
  hac::Histogram& checkpoint_us =
      hac::MetricsRegistry::Global().GetHistogram(hac::metric_names::kDurabilityCheckpointUs);
  const uint64_t ckpt_n0 = checkpoint_us.Count(), ckpt_sum0 = checkpoint_us.Sum();
  const auto steal0 = StealTicks();
  Recorder rec = clients.Run(b.args.seconds, &window, b.browse() ? 50 : 0);
  const auto steal1 = StealTicks();
  b.report.Note("cpu_cores_busy", (ProcessCpuSec() - cpu0) / window.elapsed);
  b.report.Note("window_s", window.elapsed);
  b.report.Note("host_steal_pct", 100 * (steal1.first - steal0.first) /
                                      std::max(1.0, steal1.second - steal0.second));
  b.report.Note("checkpoints", double(checkpoint_us.Count() - ckpt_n0));
  b.report.Note("checkpoint_s_total", double(checkpoint_us.Sum() - ckpt_sum0) / 1e6);

  Report& r = b.report;
  r.attempted = rec.attempted;
  r.failed = rec.failed;
  r.Set("ops_per_s", window.ops_per_s, "1/s", rec.attempted);
  r.SetQuantile("p50_us", rec.all, 0.5, "us");
  r.Set("tail_us", rec.all.TailMean(0.9), "us", rec.all.count());
  r.SetQuantile("read_p50_us", rec.read, 0.5, "us");
  r.Set("read_tail_us", rec.read.TailMean(0.9), "us", rec.read.count());
  // p99 figures and per-class detail: reported, not gated (see hacbench/README.md).
  r.SetQuantile("p99_us", rec.all, 0.99, "us");
  r.SetQuantile("read_p99_us", rec.read, 0.99, "us");
  if (rec.write.count() > 0) {
    r.SetQuantile("write_p50_us", rec.write, 0.5, "us");
    r.SetQuantile("write_p99_us", rec.write, 0.99, "us");
  }
  if (rec.sem.count() > 0) {
    r.SetQuantile("sem_p50_us", rec.sem, 0.5, "us");
    r.SetQuantile("sem_p90_us", rec.sem, 0.9, "us");
  }
  if (rec.drains > 0) {
    r.SetQuantile("first_page_p50_us", rec.first_page, 0.5, "us");
    r.Set("drain_p50_ms", rec.drain.Quantile(0.5) / 1e3, "ms", rec.drain.count());
  }
  r.Set("error_rate", rec.attempted ? double(rec.failed) / double(rec.attempted) : 0,
        "ratio", rec.attempted);
  r.Set("rss_mb", ResidentMb(), "MB");
  r.NoteErrors(rec.errors);

  if (b.browse()) {
    CheckBrowse(b, rec.captured);
  } else if (b.churn()) {
    CheckChurn(b);
  } else {
    CheckDurable(b, clients);
  }
  r.AddCheck("no_failed_ops", rec.failed == 0,
             std::to_string(rec.failed) + " of " + std::to_string(rec.attempted));
}

}  // namespace

hac::Result<void> Clients::Connect() {
  conns_.resize(kConns);
  for (Conn& c : conns_) {
    if (b_.durable()) {
      c.raw = std::make_unique<PipelinedConn>();
      HAC_RETURN_IF_ERROR(c.raw->Connect(b_.stack.port()));
    } else {
      c.runner = std::make_unique<RemoteRunner>();
      HAC_RETURN_IF_ERROR(c.runner->Connect("127.0.0.1", b_.stack.port()));
    }
  }
  return hac::OkResult();
}

void Clients::RunOne(size_t c, double deadline, Recorder& rec) {
  Conn& conn = conns_[c];
  if (b_.durable()) {
    Stream window;
    while (NowSec() < deadline) {
      window.clear();
      AppendIngestWindow(b_.lib, b_.bodies, c, conn.pos++, window);
      RunPipelined(*conn.raw, window, rec);
    }
    return;
  }
  const Stream& s = b_.streams[c];
  while (NowSec() < deadline || (b_.churn() && conn.pos % s.size() != 0)) {
    RunStep(*conn.runner, s[conn.pos++ % s.size()], rec);
  }
}

Recorder Clients::Run(double seconds, Window* window, size_t capture_every) {
  std::vector<Recorder> recs(conns_.size());
  std::vector<double> ends(conns_.size());
  const double start = NowSec();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns_.size(); ++c) {
    recs[c].capture_every = capture_every;
    recs[c].capture_limit = 400;
    threads.emplace_back([&, c] {
      RunOne(c, start + seconds, recs[c]);
      ends[c] = NowSec();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  Recorder merged;
  *window = Window{};
  for (size_t c = 0; c < conns_.size(); ++c) {
    merged.Merge(recs[c]);
    window->ops_per_s += double(recs[c].attempted) / (ends[c] - start);
  }
  window->elapsed = *std::max_element(ends.begin(), ends.end()) - start;
  return merged;
}

bool Clients::CheckpointAndTail(size_t windows) {
  Conn& conn = conns_[0];
  std::vector<hac::ServerRequest> reqs(1);
  reqs[0].op = hac::ServerOp::kCheckpoint;
  std::vector<hac::ServerResponse> resps;
  std::vector<double> lat;
  if (!conn.raw->Exchange(reqs, resps, lat) || !resps[0].ok()) {
    return false;
  }
  Recorder rec;
  Stream window;
  for (size_t i = 0; i < windows; ++i) {
    window.clear();
    AppendIngestWindow(b_.lib, b_.bodies, 0, conn.pos++, window);
    RunPipelined(*conn.raw, window, rec);
  }
  return rec.failed == 0;
}

void CheckBrowse(Bench& b, const std::vector<Captured>& captured) {
  b.stack.Stop();  // the facade is now quiesced and ours alone
  FacadeRunner facade(*b.fs);
  size_t mismatches = 0;
  std::string first;
  for (const Captured& c : captured) {
    hac::ServerResponse want;
    if (c.step.drain) {
      Recorder scratch;
      scratch.capture_every = 1;
      scratch.capture_limit = 1;
      RunStep(facade, c.step, scratch);
      want = scratch.captured.empty() ? hac::ServerResponse{} : scratch.captured[0].resp;
    } else {
      want = facade.Send(c.step.Request());
    }
    if (Encoded(want) != Encoded(c.resp)) {
      if (mismatches++ == 0) {
        first = std::string(hac::ServerOpName(c.step.req.op)) + " " + c.step.req.path;
      }
    }
  }
  b.report.AddCheck("browse_matches_facade", mismatches == 0 && !captured.empty(),
                    std::to_string(captured.size() - mismatches) + " of " +
                        std::to_string(captured.size()) + " sampled responses equal" +
                        (first.empty() ? "" : "; first mismatch: " + first));
}

void CheckChurn(Bench& b) {
  b.stack.Stop();
  auto reindexed = b.fs->Reindex();
  const hac::FsckReport fsck = hac::RunFsck(*b.fs);
  b.report.AddCheck("churn_fsck_clean", reindexed.ok() && fsck.Clean(),
                    fsck.Clean() ? "clean" : fsck.findings.front());
}

uint64_t CheckDurable(Bench& b, Clients& clients) {
  const bool tail_ok = clients.CheckpointAndTail(kTailWindows);
  // After the last acknowledgement and before Stop(), whose sealing checkpoint
  // would leave recovery nothing to replay.
  const std::string copy = b.data_dir + ".copy";
  std::error_code ec;
  fs_std::remove_all(copy, ec);
  fs_std::copy(b.data_dir, copy, fs_std::copy_options::recursive, ec);
  b.stack.Stop();
  const uint64_t live = hac::StateDigest(*b.fs);

  hac::DurabilityOptions opts;
  opts.data_dir = copy;
  const double t0 = NowSec();
  auto store = hac::DurableStore::Open(opts);
  hac::Result<std::unique_ptr<hac::HacFileSystem>> recovered =
      store.ok() ? store.value()->Recover()
                 : hac::Result<std::unique_ptr<hac::HacFileSystem>>(store.error());
  const double recover_s = NowSec() - t0;
  uint64_t replayed = 0;
  bool same = false;
  std::string detail;
  if (recovered.ok()) {
    const hac::RecoveryInfo& info = store.value()->recovery_info();
    replayed = info.replayed_records;
    same = hac::StateDigest(*recovered.value()) == live && info.replay_errors == 0 &&
           !info.tail_truncated;
    detail = "replayed " + std::to_string(replayed) + " records, " +
             std::to_string(info.replay_errors) + " replay errors";
  } else {
    detail = recovered.error().ToString();
  }
  b.report.Set("recover_s", recover_s, "s");
  b.report.AddCheck("durable_tail_acknowledged", tail_ok && !ec,
                    ec ? "copy failed: " + ec.message() : "checkpoint + tail acknowledged");
  b.report.AddCheck("durable_recovery_digest", same, detail);
  fs_std::remove_all(copy, ec);
  return replayed;
}

}  // namespace hacbench

int main(int argc, char** argv) {
  using namespace hacbench;
  Bench b;
  if (!ParseArgs(argc, argv, b.args)) {
    std::fprintf(stderr,
                 "usage: hacbench --workload browse|churn|durable_ingest --seed N "
                 "--seconds S [--trace 0|1] [--smoke] [--out-dir DIR] [--data-dir DIR]\n");
    return 2;
  }
  // End-to-end runs measure with tracing off; RunTraced turns it on.
  hac::TraceRing::Global().SetEnabled(false);
  std::error_code ec;
  fs_std::create_directories(b.args.out_dir, ec);
  fs_std::create_directories(b.args.data_dir, ec);

  Report& r = b.report;
  r.Note("workload", b.args.workload);
  r.Note("seed", double(b.args.seed));
  r.Note("why", WhyOf(b.args.workload));

  // Inputs from the seed, untimed.
  const double g0 = NowSec();
  b.lib = GenerateLibrary(b.args.seed, b.args.smoke ? SmokeShape() : FullShape());
  if (b.churn()) {
    b.bodies = GenerateBodies(b.args.seed + 3, 256, b.lib.shape.words - 1, b.lib.topics, {});
  } else if (b.durable()) {
    b.bodies = GenerateBodies(b.args.seed + 5, 256, b.lib.shape.words, {}, b.lib.topics);
  }
  r.Note("generate_s", NowSec() - g0);

  // Set-up: the median of several full set-ups; the last one is kept.
  const std::string run_tag = b.args.workload + "-" + std::to_string(b.args.seed) + "-" +
                              std::to_string(::getpid());
  const int reps = b.args.trace ? 1 : kSetupReps;
  std::vector<double> setup_times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) {
      TearDown(b);
      fs_std::remove_all(b.data_dir, ec);
    }
    b.data_dir = b.args.data_dir + "/" + run_tag + "-" + std::to_string(i);
    const double t0 = NowSec();
    auto s = SetUp(b, b.data_dir);
    setup_times.push_back(NowSec() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.error().ToString().c_str());
      TearDown(b);
      fs_std::remove_all(b.data_dir, ec);
      return 1;
    }
  }
  r.Set("setup_s", Median(setup_times), "s", setup_times.size());
  for (size_t i = 0; i < setup_times.size(); ++i) {
    r.Note("setup_s_" + std::to_string(i), setup_times[i]);
  }

  const std::vector<LinkRef> links = CensusLinks(b);
  if (b.browse()) {
    b.streams = BrowseStreams(b.lib, links, b.largest_dir, b.args.seed, kConns);
  } else if (b.churn()) {
    b.streams = ChurnStreams(b.lib, b.bodies, b.args.seed, kConns);
  }

  if (b.args.trace) {
    RunTraced(b);
  } else {
    RunEndToEnd(b);
  }
  TearDown(b);
  fs_std::remove_all(b.data_dir, ec);

  hac::JsonObject out = r.ToJson();
  out.Add("host", HostFingerprint());
  const std::string path = b.args.out_dir + "/report-" + b.args.workload + "-" +
                           std::to_string(b.args.seed) + "-" +
                           std::to_string(b.args.trace ? 1 : 0) + ".json";
  PrintSummary(b);
  if (!WriteTextFile(path, out.Str() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("report: %s\n", path.c_str());
  return 0;
}

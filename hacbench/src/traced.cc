// The traced run: per-layer metrics of one workload.
//
//   1. The workload runs on the shipped stack twice for half the run each: tracing
//      off, then on. The registry is zeroed before the traced half and snapshotted
//      after it, so its counters and histograms describe that half alone; the
//      trace ring's Chrome trace of it is written out as an artifact.
//   2. The layer ladder: a fixed prefix of the workload's op stream replayed on one
//      connection at each rung (facade, service, epoll, durable), interleaved, three
//      times; per op the fastest replay counts. A layer's overhead is the difference
//      of per-op means, semantic mutations left out, between adjacent rungs.
//   3. InvertedIndex::Evaluate/OpenCursor and the wire codec, timed directly on the
//      workload's own queries and the frames the ladder's epoll rung carried.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "hacbench/src/bench.h"
#include "src/index/inverted_index.h"
#include "src/index/query.h"
#include "src/server/wire.h"
#include "src/support/metric_names.h"
#include "src/support/trace.h"

namespace hacbench {
namespace {

namespace mn = hac::metric_names;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t CounterOf(const hac::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

hac::HistogramSnapshot HistOf(const hac::MetricsSnapshot& s, const char* name) {
  for (const hac::HistogramSnapshot& h : s.histograms) {
    if (h.name == name) {
      return h;
    }
  }
  return {};
}

uint64_t PassesNow() {
  return hac::MetricsRegistry::Global().GetCounter(mn::kConsistencyPasses).Value();
}

enum Rung { kFacade, kService, kEpoll, kDurable };
const char* const kRungNames[] = {"facade", "service", "epoll", "durable"};

// The ladder's op sequence. Replay `r` of durable_ingest gets its own tag, so every
// replay creates and removes files of its own.
Stream LadderPrefix(const Bench& b, size_t replay) {
  if (b.durable()) {
    return IngestPrefix(b.lib, b.bodies, 10 + replay, b.args.smoke ? 4 : 48);
  }
  const Stream& s = b.streams[0];
  if (b.churn()) {
    return s;  // one whole cycle: it leaves the library as it found it
  }
  return Stream(s.begin(), s.begin() + long(std::min<size_t>(s.size(), 1500)));
}

// What the facade rung observed beyond per-op times.
struct FacadeDetail {
  std::map<hac::ServerOp, Samples> by_op;
  hac::StatsSnapshot before, after;
  uint64_t attempted = 0;
  uint64_t sem_vfs_ops = 0;  // VFS symlink + unlink + lookup during semantic ops
  uint64_t sem_passes = 0;
};

uint64_t VfsApplyOps(const hac::StatsSnapshot& s) {
  return s.vfs.symlinks + s.vfs.unlinks + s.vfs.lookups;
}

std::vector<double> ReplayFacade(Bench& b, const Stream& prefix, FacadeDetail* detail) {
  FacadeRunner runner(*b.fs);
  Recorder rec;
  std::vector<double> times;
  if (detail != nullptr) {
    rec.by_op = &detail->by_op;
    detail->before = b.fs->Stats();
  }
  for (const Step& step : prefix) {
    if (detail != nullptr && step.cls == OpClass::kSem) {
      const uint64_t vfs0 = VfsApplyOps(b.fs->Stats());
      const uint64_t passes0 = PassesNow();
      times.push_back(RunStep(runner, step, rec));
      detail->sem_vfs_ops += VfsApplyOps(b.fs->Stats()) - vfs0;
      detail->sem_passes += PassesNow() - passes0;
    } else {
      times.push_back(RunStep(runner, step, rec));
    }
  }
  if (detail != nullptr) {
    detail->after = b.fs->Stats();
    detail->attempted = rec.attempted;
  }
  return times;
}

std::vector<double> ReplayOn(Runner& runner, const Stream& prefix, Recorder& rec) {
  std::vector<double> times;
  for (const Step& step : prefix) {
    times.push_back(RunStep(runner, step, rec));
  }
  return times;
}

struct Ladder {
  std::vector<Rung> rungs;
  std::vector<double> mean_us;  // per rung: mean over ops of the fastest replay
  FacadeDetail facade;
  std::vector<Captured> frames;  // from the epoll rung
  uint64_t failed = 0;           // failed requests over every replay
};

Ladder RunLadder(Bench& b) {
  Ladder l;
  l.rungs = {kFacade, kService, kEpoll};
  if (b.durable()) {
    l.rungs.push_back(kDurable);
  }
  const int reps = b.args.smoke ? 1 : 3;
  std::vector<std::vector<double>> best(l.rungs.size());
  size_t replay = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < l.rungs.size(); ++i) {
      const Stream prefix = LadderPrefix(b, replay++);
      std::vector<double> times;
      Recorder rec;
      switch (l.rungs[i]) {
        case kFacade:
          times = ReplayFacade(b, prefix, rep == 0 ? &l.facade : nullptr);
          break;
        case kService: {
          hac::HacService service(*b.fs);
          {
            ServiceRunner runner(service);
            times = ReplayOn(runner, prefix, rec);
          }
          service.Stop();
          break;
        }
        case kEpoll:
        case kDurable: {
          hac::DurableStore* store = nullptr;
          if (l.rungs[i] == kDurable) {
            b.fs->DrainJournal();  // earlier rungs' records are not this store's
            store = b.store.get();
          }
          Stack stack;
          if (!stack.Start(*b.fs, store).ok()) {
            break;
          }
          RemoteRunner runner;
          if (runner.Connect("127.0.0.1", stack.port()).ok()) {
            if (l.rungs[i] == kEpoll && rep == 0) {
              rec.capture_every = 1;
              rec.capture_limit = 2000;
            }
            times = ReplayOn(runner, prefix, rec);
          }
          runner.Disconnect();
          stack.Stop();
          if (l.rungs[i] == kEpoll && rep == 0) {
            l.frames = std::move(rec.captured);
          }
          break;
        }
      }
      l.failed += rec.failed;
      if (best[i].empty()) {
        best[i] = times;
      } else {
        for (size_t k = 0; k < std::min(best[i].size(), times.size()); ++k) {
          best[i][k] = std::min(best[i][k], times[k]);
        }
      }
    }
  }
  // Semantic mutations are replayed, so a churn cycle still undoes its edits, but
  // left out of the means: each runs 10-400 ms of propagation, and its run-to-run
  // spread is larger than the microseconds a layer adds per request.
  const Stream prefix = LadderPrefix(b, 0);
  for (const auto& t : best) {
    Samples s;
    for (size_t k = 0; k < t.size(); ++k) {
      if (prefix[k].cls != OpClass::kSem) {
        s.Add(t[k]);
      }
    }
    l.mean_us.push_back(s.Mean());
  }
  return l;
}

// The (query, scope directory) pairs the workload evaluates: its searches, or the
// semantic directories' own queries in their parents' scopes.
std::vector<std::pair<std::string, std::string>> WorkloadQueries(const Bench& b) {
  std::set<std::pair<std::string, std::string>> out;
  if (b.browse()) {
    for (const Step& s : LadderPrefix(b, 0)) {
      if (s.req.op == hac::ServerOp::kSearch || (s.drain && !s.req.aux.empty())) {
        out.insert({s.req.aux, s.req.path});
      }
    }
  } else {
    for (const SemDir& d : b.lib.sem_dirs) {
      if (d.topic >= 0) {
        out.insert({d.query, d.path.substr(0, d.path.find_last_of('/'))});
      }
    }
    if (b.churn()) {
      for (size_t t = 0; t < b.lib.topics.size(); ++t) {
        out.insert({b.lib.topics[t] + " AND NOT " + b.lib.toggle_words[t], "/sem"});
      }
    }
  }
  return {out.begin(), out.end()};
}

void TimeIndex(Bench& b, Report& r) {
  auto* index = dynamic_cast<hac::InvertedIndex*>(&b.fs->index());
  Samples eval, first_page;
  for (const auto& [query, scope_dir] : WorkloadQueries(b)) {
    auto expr = hac::ParseQuery(query);
    auto scope = b.fs->ScopeOf(scope_dir.empty() ? "/" : scope_dir);
    if (index == nullptr || !expr.ok() || !scope.ok()) {
      continue;
    }
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = NowSec();
      auto bits = index->Evaluate(*expr.value(), scope.value(), nullptr);
      eval.Add((NowSec() - t0) * 1e6);
      t0 = NowSec();
      auto cursor = index->OpenCursor(*expr.value(), scope.value(), nullptr);
      if (cursor.ok()) {
        hac::PostingCursor& c = *cursor.value();
        for (size_t n = 1; n < hac::kDefaultPageEntries && !c.AtEnd(); ++n) {
          c.Next();
        }
      }
      first_page.Add((NowSec() - t0) * 1e6);
    }
  }
  r.Set("index.eval_us", eval.Mean(), "us", eval.count());
  r.Set("index.cursor_first_page_us", first_page.Mean(), "us", first_page.count());
}

void TimeCodec(const std::vector<Captured>& frames, Report& r) {
  std::vector<double> pass_means;
  size_t pairs = 0;
  for (int pass = 0; pass < 3; ++pass) {
    pairs = 0;
    const double t0 = NowSec();
    for (const Captured& c : frames) {
      if (c.step.drain) {
        continue;  // a drain's capture is the concatenation, not one frame
      }
      std::vector<uint8_t> req = hac::EncodeRequestFrame(c.step.Request());
      auto req_back = hac::DecodeRequestFrame(req);
      std::vector<uint8_t> resp = hac::EncodeResponseFrame(c.resp);
      auto resp_back = hac::DecodeResponseFrame(resp);
      hac::RecycleBuffer(std::move(req));
      hac::RecycleBuffer(std::move(resp));
      pairs += req_back.ok() && resp_back.ok() ? 1 : 0;
    }
    pass_means.push_back(Ratio((NowSec() - t0) * 1e6, double(pairs)));
  }
  r.Set("wire.codec_us", Median(pass_means), "us", pairs);
}

}  // namespace

void RunTraced(Bench& b) {
  Report& r = b.report;
  hac::MetricsRegistry& registry = hac::MetricsRegistry::Global();
  hac::TraceRing& ring = hac::TraceRing::Global();
  Clients clients(b);
  if (auto c = clients.Connect(); !c.ok()) {
    r.AddCheck("connect", false, c.error().ToString());
    return;
  }

  // churn: one more connection drains the largest semantic dir over and over.
  std::atomic<bool> probe_stop{false};
  Recorder probe;
  std::thread probe_thread;
  if (b.churn()) {
    probe_thread = std::thread([&] {
      RemoteRunner runner;
      if (!runner.Connect("127.0.0.1", b.stack.port()).ok()) {
        return;
      }
      Step drain = MakeStep(hac::ServerOp::kOpenCursor, b.largest_dir, "", OpClass::kRead);
      drain.drain = true;
      while (!probe_stop.load()) {
        RunStep(runner, drain, probe);
      }
    });
  }

  Window window;
  const double half = b.args.seconds / 2;
  clients.Run(b.args.smoke ? 0.2 : 0.5, &window);  // warm-up
  const Recorder untraced = clients.Run(half, &window);
  const double ops_untraced = window.ops_per_s;

  registry.ResetForTest();
  ring.Clear();
  ring.SetEnabled(true);
  Recorder traced = clients.Run(half, &window, b.browse() ? 25 : 0);
  const hac::MetricsSnapshot snap = registry.Snapshot();
  ring.SetEnabled(false);
  const double ops_traced = window.ops_per_s;
  probe_stop = true;
  if (probe_thread.joinable()) {
    probe_thread.join();
  }
  const std::string trace_path = b.args.out_dir + "/trace-" + b.args.workload + "-" +
                                 std::to_string(b.args.seed) + ".json";
  WriteTextFile(trace_path, ring.ExportChromeJson());
  r.Note("chrome_trace", trace_path);

  r.attempted = untraced.attempted + traced.attempted;
  r.failed = untraced.failed + traced.failed;
  r.AddCheck("no_failed_ops", r.failed == 0,
             std::to_string(r.failed) + " of " + std::to_string(r.attempted));
  r.NoteErrors(traced.errors);

  uint64_t replayed = 0;
  if (b.browse()) {
    CheckBrowse(b, traced.captured);
  } else if (b.churn()) {
    CheckChurn(b);  // Run ended every connection at a cycle boundary
  } else {
    replayed = CheckDurable(b, clients);
  }

  const Ladder ladder = RunLadder(b);
  r.AddCheck("ladder_no_failed_ops", ladder.failed == 0,
             std::to_string(ladder.failed) + " failed in the ladder replays");
  TimeIndex(b, r);
  TimeCodec(ladder.frames, r);

  auto count = [&](const char* name) { return double(CounterOf(snap, name)); };
  // Requests the service admitted in the traced half (the probe's included).
  const double ops = count(mn::kServiceAdmittedReads) + count(mn::kServiceAdmittedWrites);

  r.Set("index.queries_per_op", Ratio(count(mn::kIndexQueries), ops), "count");

  const double passes = count(mn::kConsistencyPasses);
  const double recomputed = count(mn::kConsistencyScopePropagations);
  const double skipped = count(mn::kConsistencyShortCircuits);
  const hac::HistogramSnapshot pass_us = HistOf(snap, mn::kConsistencyPassUs);
  r.Set("consistency.pass_us.p50", pass_us.p50, "us", pass_us.count);
  r.Set("consistency.pass_us.p99", pass_us.p99, "us", pass_us.count);
  r.Set("consistency.passes_per_op", Ratio(passes, ops), "count");
  r.Set("consistency.visits_per_pass", Ratio(recomputed + skipped, passes), "count");
  r.Set("consistency.short_circuit_ratio", Ratio(skipped, recomputed + skipped), "ratio");
  r.Set("consistency.delta_evals_per_pass",
        Ratio(count(mn::kConsistencyDeltaEvaluations), passes), "count");
  r.Set("consistency.link_churn_per_pass",
        Ratio(count(mn::kLinksTransientAdded) + count(mn::kLinksTransientRemoved), passes),
        "count");
  r.Set("consistency.vfs_ops_per_pass",
        Ratio(double(ladder.facade.sem_vfs_ops), double(ladder.facade.sem_passes)), "count");

  const FacadeDetail& f = ladder.facade;
  auto op_mean = [&](const std::vector<hac::ServerOp>& ops_of_kind) {
    Samples s;
    for (hac::ServerOp op : ops_of_kind) {
      if (auto it = f.by_op.find(op); it != f.by_op.end()) {
        s.Append(it->second);
      }
    }
    return s;
  };
  using hac::ServerOp;
  const std::vector<std::pair<const char*, std::vector<ServerOp>>> facade_ops = {
      {"facade.readdir_us", {ServerOp::kReadDir}},
      {"facade.search_us", {ServerOp::kSearch}},
      {"facade.stat_us", {ServerOp::kStat, ServerOp::kLstat}},
      {"facade.page_us", {ServerOp::kFetchPage}},
      {"facade.writefile_us", {ServerOp::kWriteFile}},
      {"facade.setquery_us", {ServerOp::kSetQuery}},
      {"facade.rename_us", {ServerOp::kRename}},
      {"facade.reindex_us", {ServerOp::kReindex}},
  };
  for (const auto& [name, kinds] : facade_ops) {
    const Samples s = op_mean(kinds);
    r.Set(name, s.Mean(), "us", s.count());
  }
  const double hits = double(f.after.attr_cache_hits - f.before.attr_cache_hits);
  const double misses = double(f.after.attr_cache_misses - f.before.attr_cache_misses);
  r.Set("facade.attr_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r.Set("vfs.lookups_per_op",
        Ratio(double(f.after.vfs.lookups - f.before.vfs.lookups), double(f.attempted)),
        "count");

  const std::vector<double>& m = ladder.mean_us;
  r.Set("service.overhead_us", m[kService] - m[kFacade], "us");
  r.Set("service.queue_wait_read_us.p99", HistOf(snap, mn::kServiceQueueWaitReadUs).p99,
        "us", HistOf(snap, mn::kServiceQueueWaitReadUs).count);
  r.Set("service.queue_wait_write_us.p99", HistOf(snap, mn::kServiceQueueWaitWriteUs).p99,
        "us", HistOf(snap, mn::kServiceQueueWaitWriteUs).count);
  r.Set("service.time_write_us.p50", HistOf(snap, mn::kServiceTimeWriteUs).p50, "us",
        HistOf(snap, mn::kServiceTimeWriteUs).count);
  r.Set("service.write_batch_size.mean", HistOf(snap, mn::kServiceWriteBatchSize).mean,
        "count", HistOf(snap, mn::kServiceWriteBatchSize).count);
  r.Set("service.refused_per_op",
        Ratio(count(mn::kServiceRejectedQueueFull) + count(mn::kServiceShedDeadline), ops),
        "count");

  r.Set("wire.bytes_per_op",
        Ratio(count(mn::kServerBytesIn) + count(mn::kServerBytesOut), ops), "B");
  r.Set("reactor.overhead_us", m[kEpoll] - m[kService], "us");
  r.Set("reactor.frames_per_wake.mean", HistOf(snap, mn::kServerFramesPerWake).mean,
        "count", HistOf(snap, mn::kServerFramesPerWake).count);
  r.Set("reactor.writev_frames.mean", HistOf(snap, mn::kServerWritevFrames).mean, "count",
        HistOf(snap, mn::kServerWritevFrames).count);
  r.Set("reactor.wakeups_per_op", Ratio(count(mn::kServerEpollWakeups), ops), "count");
  const Recorder& drains = b.churn() ? probe : traced;
  r.Set("cursor.fetches_per_drain",
        Ratio(double(drains.fetches), double(drains.drains + drains.stale)), "count",
        drains.drains + drains.stale);
  r.Set("cursor.stale_ratio",
        Ratio(count(mn::kServerCursorStale), count(mn::kServerCursorOpened)), "ratio",
        CounterOf(snap, mn::kServerCursorOpened));

  const hac::HistogramSnapshot fsync = HistOf(snap, mn::kDurabilityFsyncUs);
  const hac::HistogramSnapshot ckpt = HistOf(snap, mn::kDurabilityCheckpointUs);
  r.Set("wal.fsync_us.p50", fsync.p50, "us", fsync.count);
  r.Set("wal.fsync_us.p99", fsync.p99, "us", fsync.count);
  r.Set("wal.fsyncs_per_op", Ratio(double(fsync.count), ops), "count");
  r.Set("wal.bytes_per_user_byte",
        Ratio(count(mn::kDurabilityWalBytes), double(traced.user_bytes)), "ratio");
  r.Set("wal.checkpoint_us.p50", ckpt.p50, "us", ckpt.count);
  r.Set("wal.checkpoints", count(mn::kDurabilityCheckpoints), "count");
  r.Set("wal.durable_overhead_us", b.durable() ? m[kDurable] - m[kEpoll] : 0, "us");
  r.Set("wal.replayed_records", double(replayed), "count");

  r.Set("trace.overhead_pct", Ratio(ops_untraced - ops_traced, ops_untraced) * 100, "pct");
  for (size_t i = 0; i < 4; ++i) {
    const bool present = i < m.size();
    r.Set(std::string("ladder.") + kRungNames[i] + "_us", present ? m[i] : 0, "us");
  }
  // Each rung adds a layer, so per-op means must rise up the ladder.
  bool monotone = true;
  std::string means;
  for (size_t i = 0; i < m.size(); ++i) {
    monotone = monotone && (i == 0 || m[i - 1] <= m[i]);
    means += std::string(i == 0 ? "" : " <= ") + kRungNames[i] + " " +
             std::to_string(m[i]) + " us";
  }
  r.AddCheck("ladder_monotone", monotone, means);
  r.Note("ops_per_s_untraced", ops_untraced);
  r.Note("ops_per_s_traced", ops_traced);
}

}  // namespace hacbench

// Shared state of one benchmark run (one workload, one seed) and the closed-loop
// client pool that drives the server stack.
#ifndef HACBENCH_BENCH_H_
#define HACBENCH_BENCH_H_

#include <memory>
#include <string>
#include <vector>

#include "hacbench/src/exec.h"
#include "hacbench/src/library.h"
#include "hacbench/src/report.h"
#include "hacbench/src/streams.h"

namespace hacbench {

// Client connections per workload: the load is one process, closed loop.
inline constexpr size_t kConns = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;             // tiny library, short phases
  std::string out_dir = ".bench_out";    // reports and trace artifacts
  std::string data_dir = ".bench_data";  // durable_ingest's data directories
};

struct Bench {
  Args args;
  LibraryInputs lib;
  std::vector<std::string> bodies;  // contents of the files the workloads write
  std::vector<Stream> streams;      // browse/churn: one looping cycle per connection
  std::string largest_dir;
  std::unique_ptr<hac::HacFileSystem> fs;
  std::unique_ptr<hac::DurableStore> store;
  std::string data_dir;  // the live DurableStore directory (durable_ingest)
  Stack stack;
  Report report;

  bool durable() const { return args.workload == "durable_ingest"; }
  bool churn() const { return args.workload == "churn"; }
  bool browse() const { return args.workload == "browse"; }
};

// The wall-clock side of one Clients::Run.
struct Window {
  double elapsed = 0;    // s, until the last connection stopped
  double ops_per_s = 0;  // sum over connections of requests / own elapsed time
};

// kConns loopback connections replaying the workload against b.stack.
class Clients {
 public:
  explicit Clients(Bench& b) : b_(b) {}
  hac::Result<void> Connect();
  // Every connection runs closed-loop until `seconds` elapse; returns what they
  // observed, merged. A churn connection then runs on to the end of its cycle, so
  // every churn window holds whole cycles, starts and ends with the library in its
  // cycle-start state, and issues the same op mix.
  Recorder Run(double seconds, Window* window, size_t capture_every = 0);
  // durable_ingest: connection 0 requests a checkpoint, then sends exactly
  // `windows` more windows. False if any of it failed.
  bool CheckpointAndTail(size_t windows);

 private:
  struct Conn {
    std::unique_ptr<RemoteRunner> runner;  // browse, churn
    std::unique_ptr<PipelinedConn> raw;    // durable_ingest
    size_t pos = 0;                        // next step (browse/churn) or window
  };
  void RunOne(size_t c, double deadline, Recorder& rec);

  Bench& b_;
  std::vector<Conn> conns_;
};

// The traced run: per-layer metrics (see hacbench/README.md).
void RunTraced(Bench& b);

// Correctness checks shared by both modes; each adds a Check to b.report.
// browse: the captured responses against facade-direct answers (stops the stack).
void CheckBrowse(Bench& b, const std::vector<Captured>& captured);
// churn: a clean hacfsck audit after a final reindex (stops the stack).
void CheckChurn(Bench& b);
// durable_ingest: fixed checkpoint + tail, copy, stop, timed recovery of the copy,
// digest equality. Returns the recovery's replayed record count.
uint64_t CheckDurable(Bench& b, Clients& clients);

}  // namespace hacbench

#endif  // HACBENCH_BENCH_H_

// perfbench: the end-to-end benchmark of the DAF matcher and its match
// service. One binary runs one workload for a fixed time and prints, as its
// last stdout line, {"correct", "attempted", "failed", "metrics"}; see
// perfbench/README.md for the workloads and metrics, and run.py for the
// command line the harness uses.
#include <cstdio>
#include <string>

#include "common.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  daf::FlagSet flags;
  std::string& workload = flags.String(
      "workload", "", "engine | serve | serve-rw | restart");
  int64_t& seed = flags.Int64("seed", 1, "input generator seed");
  double& seconds = flags.Double("seconds", 10, "measured time per run");
  int64_t& trace = flags.Int64(
      "trace", 0, "1 = traced run: report per-layer metrics instead");
  std::string& workdir = flags.String(
      "workdir", ".bench_build/work", "scratch directory for store files");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 2;
  }
  perfbench::Args args;
  args.workload = workload;
  args.seed = static_cast<uint64_t>(seed);
  args.seconds = seconds;
  args.trace = trace != 0;
  args.workdir = workdir;
  if (seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Outcome outcome;
  if (workload == "engine") {
    outcome = perfbench::RunEngine(args);
  } else if (workload == "serve") {
    outcome = perfbench::RunServe(args, /*with_writes=*/false);
  } else if (workload == "serve-rw") {
    outcome = perfbench::RunServe(args, /*with_writes=*/true);
  } else if (workload == "restart") {
    outcome = perfbench::RunRestart(args);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    flags.PrintUsage(argv[0]);
    return 2;
  }
  perfbench::PrintResult(args, outcome);
  return outcome.correct ? 0 : 1;
}

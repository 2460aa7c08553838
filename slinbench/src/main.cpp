//===- slinbench/src/main.cpp - Benchmark entry point ---------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   slinbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-dir <dir>] [--source <id>]
//
// Prints a stamp line (host, build, source, accounting) and, last, one JSON
// object with correct/attempted/failed and the metrics: the end-to-end set
// with --trace 0, the per-layer set with --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

using namespace slinbench;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "slinbench: %s\nusage: slinbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-dir <dir>] "
               "[--source <id>]\n",
               Why);
  return 2;
}

int main(int Argc, char **Argv) {
  RunOptions Opts;
  for (int I = 1; I < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End)
        return usage("--seed takes an unsigned integer");
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(Opts.Seconds > 0) || Opts.Seconds > 600)
        return usage("--seconds takes a number in (0, 600]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Opts.Trace = Value == "1";
    } else if (Flag == "--span-dir") {
      Opts.SpanDir = Value;
    } else if (Flag == "--source") {
      Opts.SourceId = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Opts.Workload) == Names.end())
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());
  try {
    RunResult R = runWorkload(Opts);
    printStamp(Opts, R);
    printResult(R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "slinbench: %s\n", E.what());
    return 1;
  }
  return 0;
}

//===- slinbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#ifndef SLINBENCH_WORKLOADS_H
#define SLINBENCH_WORKLOADS_H

#include "Common.h"
#include "CorpusGen.h"
#include "StreamGen.h"

#include <string>
#include <utility>
#include <vector>

namespace slinbench {

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Name and unit of every end-to-end metric (printed with --trace 0).
const std::vector<std::pair<const char *, const char *>> &endToEndMetrics();
/// Name and unit of every per-layer metric (printed with --trace 1). A
/// layer a workload never enters reads 0.
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics();

/// Runs one stream workload (closed loop, open loop, closing tail, checks).
RunResult runStream(const RunOptions &Opts, const StreamSpec &Spec);

/// Runs the corpus workload (CorpusDriver passes, then the checks).
RunResult runCorpus(const RunOptions &Opts, const CorpusSpec &Spec);

/// Dispatches on Opts.Workload and completes the metric set for the mode:
/// the end-to-end set untraced, the per-layer set traced.
RunResult runWorkload(const RunOptions &Opts);

} // namespace slinbench

#endif // SLINBENCH_WORKLOADS_H

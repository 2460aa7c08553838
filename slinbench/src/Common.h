//===- slinbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, percentiles, the run result every workload fills in, and the two
/// lines every run prints: the host-and-accounting stamp and, last, the
/// result object.
///
//===----------------------------------------------------------------------===//

#ifndef SLINBENCH_COMMON_H
#define SLINBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace slinbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (one vDSO read).
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in nanoseconds. Time the host takes
/// the CPU away (preemption by other processes) does not advance it; a
/// read costs a system call (a few hundred ns).
std::int64_t threadCpuNs();

/// CPU time of the whole process since it started, in nanoseconds.
std::int64_t processCpuNs();

/// Nearest-rank percentile of \p V (sorted in place); 0 when empty.
double percentile(std::vector<double> &V, double P);

/// Same over float samples (the open loop keeps a million of them).
double percentile(std::vector<float> &V, double P);

/// Indices of the \p Count entries of \p Score (all, when fewer) that
/// score highest, highest first. The benchmark keeps the segments of a run
/// that the host disturbed least this way: on a shared host a co-tenant of
/// the core or of the caches slows the benchmark thread by up to half, for
/// a fraction of a second to tens of seconds at a time, and how much of a
/// run that covers varies from run to run. The CPU clock does not see it;
/// a change in the program moves every segment, the kept ones too.
std::vector<std::size_t> highest(const std::vector<double> &Score,
                                 std::size_t Count);

/// Median of \p V (sorted in place); 0 when empty.
inline double median(std::vector<double> &V) { return percentile(V, 0.5); }

/// Process high-water resident set in MB.
double peakRssMb();

/// What one invocation was asked to do.
struct RunOptions {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory the traced run writes its span file to (empty: none).
  std::string SpanDir;
  /// Source identity handed down by the launcher (git sha or digest).
  std::string SourceId = "unknown";
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The outcome of one run. A failed check appends to Errors and clears
/// Correct; Attempted/Failed count events (streams) or traces (corpus).
struct RunResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Errors;
  /// Open-loop p99 lateness of the generator against its schedule (µs);
  /// stamped on every stream run, 0 for the corpus.
  double OpenLoopLagUs = 0;
  /// Free-form accounting pairs printed on the stamp line.
  std::vector<std::pair<std::string, std::string>> Notes;

  void fail(std::string Why);
  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

/// Prints the stamp line (host, build, source, workload, seed, accounting).
void printStamp(const RunOptions &Opts, const RunResult &R);

/// Prints the result object as the last stdout line.
void printResult(const RunResult &R);

} // namespace slinbench

#endif // SLINBENCH_COMMON_H

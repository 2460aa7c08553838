//===- slinbench/src/Workloads.cpp ----------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <stdexcept>

using namespace slinbench;

const std::vector<std::string> &slinbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "stream-lin-wide", "stream-slin-stragglers", "corpus-batch"};
  return Names;
}

const std::vector<std::pair<const char *, const char *>> &
slinbench::endToEndMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"events_per_s", "events/s"}, {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},     {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return M;
}

const std::vector<std::pair<const char *, const char *>> &
slinbench::perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"wire.parse_ns", "ns/event"},
      {"service.route_ns", "ns/event"},
      {"service.apply_ns", "ns/event"},
      {"service.overhead_ns", "ns/event"},
      {"session.append_ns", "ns/event"},
      {"session.verdict_fast_ns", "ns"},
      {"session.verdict_engine_ns", "ns"},
      {"session.drain_us", "us/excursion"},
      {"session.bounded_ns", "ns"},
      {"session.fast_path_ratio", "ratio"},
      {"session.fold_per_event", "count"},
      {"composition.update_ns", "ns/event"},
      {"shard.memory_bytes", "bytes"},
      {"tail.p99_share.invoke", "ratio"},
      {"tail.p99_share.fast", "ratio"},
      {"tail.p99_share.engine", "ratio"},
      {"tail.p99_share.fold", "ratio"},
      {"tail.p99_share.bounded", "ratio"},
      {"tail.p99_share.drain", "ratio"},
      {"tail.p99_share.queued", "ratio"},
      {"tail.p99_blocker_share.invoke", "ratio"},
      {"tail.p99_blocker_share.fast", "ratio"},
      {"tail.p99_blocker_share.engine", "ratio"},
      {"tail.p99_blocker_share.fold", "ratio"},
      {"tail.p99_blocker_share.bounded", "ratio"},
      {"tail.p99_blocker_share.drain", "ratio"},
      {"openloop.lag_us", "us"},
      {"corpus.check_us.lin_yes", "us/trace"},
      {"corpus.check_us.lin_no", "us/trace"},
      {"corpus.check_us.slin", "us/trace"},
      {"search.nodes_per_trace.lin_yes", "nodes"},
      {"search.nodes_per_trace.lin_no", "nodes"},
      {"search.nodes_per_trace.slin", "nodes"},
      {"search.memo_hit_ratio", "ratio"},
      {"corpus.speedup", "ratio"},
      {"corpus.events_per_s_1t", "events/s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.untraced_events_per_s", "events/s"},
      {"trace.stage_sum_ratio", "ratio"},
  };
  return M;
}

RunResult slinbench::runWorkload(const RunOptions &Opts) {
  RunResult R = Opts.Workload == "corpus-batch"
                    ? runCorpus(Opts, corpusSpec(Opts.Workload))
                    : runStream(Opts, streamSpec(Opts.Workload));
  // Exactly the mode's metric set, in table order; a layer the workload
  // never enters reads 0.
  const auto &Table = Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : Table) {
    Metric M{Name, 0, Unit};
    for (const Metric &Got : R.Metrics)
      if (Got.Name == Name)
        M.Value = Got.Value;
    Out.push_back(M);
  }
  for (const Metric &Got : R.Metrics) {
    bool Known = false;
    for (const auto &[Name, Unit] : Table)
      Known = Known || Got.Name == Name;
    if (!Known)
      throw std::logic_error("metric missing from the table: " + Got.Name);
  }
  R.Metrics = std::move(Out);
  return R;
}

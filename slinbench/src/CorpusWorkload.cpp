//===- slinbench/src/CorpusWorkload.cpp - The batch checker ---------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// One corpus run: set-up (the first segment, one CorpusDriver per ADT, a
// warm-up pass over the segment), the oracle checks on that segment, then
// fresh segments for the run's seconds — each batch one CorpusDriver call,
// timed as one request, every verdict checked against its family. The
// traced run instead alternates untraced and traced single-thread
// CheckSession segments (a span per trace, named by family) and then
// checks segments with CorpusDriver at one thread and at the workload's
// thread count.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "engine/CorpusDriver.h"
#include "lin/Classical.h"
#include "lin/Witness.h"
#include "slin/SlinWitness.h"

#include <algorithm>
#include <memory>
#include <thread>

using namespace slin;
using namespace slinbench;

namespace {

/// Segments the end-to-end figures come from (see highest()); a run of
/// 35 s checks about 150.
constexpr std::size_t KeptSegments = 32;

/// Verdicts of one pass over a segment, batch by batch, group by group.
using PassVerdicts = std::vector<std::vector<std::vector<Verdict>>>;

struct DriverSet {
  std::vector<std::unique_ptr<CorpusDriver>> Drivers;

  DriverSet(const Corpus &Cp, unsigned Threads) {
    CorpusOptions O;
    O.Threads = Threads;
    O.RetryBudgetLimitedFresh = true;
    for (const CorpusGroup &G : Cp.Groups)
      Drivers.push_back(std::make_unique<CorpusDriver>(*G.Type, O));
  }

  /// One whole pass over the segment; \p OnBatch sees each call's time in
  /// ns on \p Now.
  template <typename ClockFn, typename Fn>
  PassVerdicts pass(const Corpus &Cp, ClockFn &&Now, Fn &&OnBatch) {
    PassVerdicts P(Cp.Groups.size());
    for (std::size_t GI = 0; GI != Cp.Groups.size(); ++GI) {
      const CorpusGroup &G = Cp.Groups[GI];
      for (const CorpusBatch &B : G.Batches) {
        std::int64_t T0 = Now();
        CorpusReport R = G.Slin ? Drivers[GI]->checkSlin(B.Traces, Cp.Sig,
                                                         Cp.Rel)
                                : Drivers[GI]->checkLin(B.Traces);
        OnBatch(Now() - T0);
        std::vector<Verdict> V;
        for (const CorpusTraceResult &T : R.Results)
          V.push_back(T.Outcome);
        P[GI].push_back(std::move(V));
      }
    }
    return P;
  }
};

const char *verdictName(Verdict V) {
  return V == Verdict::Yes ? "Yes" : V == Verdict::No ? "No" : "Unknown";
}

std::string where(const CorpusGroup &G, std::size_t BI, std::size_t TI,
                  Family F) {
  return G.Name + " batch " + std::to_string(BI) + " trace " +
         std::to_string(TI) + " (" + familyName(F) + ")";
}

/// Positives are Yes, traces with an impossible output are No.
void checkFamilies(const Corpus &Cp, const PassVerdicts &P, RunResult &Res) {
  for (std::size_t GI = 0; GI != Cp.Groups.size(); ++GI) {
    const CorpusGroup &G = Cp.Groups[GI];
    for (std::size_t BI = 0; BI != G.Batches.size(); ++BI)
      for (std::size_t TI = 0; TI != G.Batches[BI].Traces.size(); ++TI) {
        Family F = G.Batches[BI].Families[TI];
        Verdict Want = F == Family::LinNo ? Verdict::No : Verdict::Yes;
        if (P[GI][BI][TI] != Want)
          Res.fail(where(G, BI, TI, F) + ": verdict " +
                   verdictName(P[GI][BI][TI]) + ", expected " +
                   verdictName(Want));
      }
  }
}

/// The oracle checks on one segment: the classical checker where it
/// reaches, witness verification, and agreement of the 1-thread verdicts
/// \p Ref with a \p Threads-thread driver's.
void checkOracles(const Corpus &Cp, const PassVerdicts &Ref, unsigned Threads,
                  RunResult &Res) {
  DriverSet Many(Cp, Threads);
  if (Many.pass(Cp, nowNs, [](std::int64_t) {}) != Ref)
    Res.fail("1-thread CorpusDriver verdicts differ from the N-thread ones");
  LinCheckOptions Classical;
  Classical.NodeBudget = 1u << 18;
  for (std::size_t GI = 0; GI != Cp.Groups.size(); ++GI) {
    const CorpusGroup &G = Cp.Groups[GI];
    CheckSession Session(*G.Type);
    for (std::size_t BI = 0; BI != G.Batches.size(); ++BI) {
      const CorpusBatch &B = G.Batches[BI];
      for (std::size_t TI = 0; TI != B.Traces.size(); ++TI) {
        const Trace &T = B.Traces[TI];
        Verdict Got = Ref[GI][BI][TI];
        std::string At = where(G, BI, TI, B.Families[TI]);
        if (G.Slin) {
          SlinVerdict V = Session.checkSlin(T, Cp.Sig, Cp.Rel);
          if (V.Outcome != Got)
            Res.fail(At + ": CheckSession disagrees with CorpusDriver");
          for (const auto &[Finit, W] : V.Witnesses)
            if (!verifySlinWitness(T, Cp.Sig, *G.Type, Cp.Rel, Finit, W).Ok)
              Res.fail(At + ": slin witness fails verification");
          continue;
        }
        LinCheckResult V = Session.checkLin(T);
        if (V.Outcome != Got)
          Res.fail(At + ": CheckSession disagrees with CorpusDriver");
        if (V.Outcome == Verdict::Yes &&
            !verifyLinWitness(T, *G.Type, V.Witness).Ok)
          Res.fail(At + ": lin witness fails verification");
        ClassicalCheckResult C =
            checkLinearizableClassical(T, *G.Type, Classical);
        if (C.Outcome != Verdict::Unknown && C.Outcome != Got)
          Res.fail(At + ": classical checker says " + verdictName(C.Outcome));
      }
    }
  }
}

} // namespace

RunResult slinbench::runCorpus(const RunOptions &Opts, const CorpusSpec &Spec) {
  RunResult Res;
  Corpus Cp = makeCorpus(Spec, Opts.Seed);
  auto Clamp = [](unsigned T) {
    return std::max(1u, std::min(T, std::thread::hardware_concurrency()));
  };
  const unsigned Threads = Clamp(Spec.Threads);
  const unsigned ScaleThreads = Clamp(Spec.ScaleThreads);
  DriverSet Drivers(Cp, Threads);
  // The warm-up pass takes every worker session past first-use growth.
  const PassVerdicts Ref = Drivers.pass(Cp, nowNs, [](std::int64_t) {});
  // Set-up is the process's CPU time from its start: preemption by other
  // processes does not count, work moved into set-up does.
  const double SetupS = static_cast<double>(processCpuNs()) * 1e-9;
  checkFamilies(Cp, Ref, Res);
  checkOracles(Cp, Ref, ScaleThreads, Res);
  std::uint64_t Traces = Cp.TracesPerPass, Segments = 1;
  const std::int64_t RunNs = static_cast<std::int64_t>(Opts.Seconds * 1e9);
  Res.Notes.push_back({"threads", std::to_string(Threads)});
  Res.Notes.push_back({"scale_threads", std::to_string(ScaleThreads)});

  if (!Opts.Trace) {
    // Per segment: its events, its CPU time and its batches' times.
    std::vector<double> Rate;
    std::vector<std::uint64_t> SegmentEvents;
    std::vector<std::int64_t> SegmentNs;
    std::vector<std::vector<double>> SegmentBatchUs;
    const std::int64_t Start = nowNs();
    while (nowNs() - Start < RunNs) {
      nextSegment(Cp, Spec);
      // One driver thread checks inline, so the benchmark thread's CPU
      // clock times each call without the host's preemptions.
      std::int64_t BusyNs = 0;
      std::vector<double> BatchUs;
      PassVerdicts P = Drivers.pass(Cp, threadCpuNs, [&](std::int64_t Ns) {
        BusyNs += Ns;
        BatchUs.push_back(static_cast<double>(Ns) * 1e-3);
      });
      checkFamilies(Cp, P, Res);
      Rate.push_back(static_cast<double>(Cp.EventsPerPass) * 1e9 /
                     static_cast<double>(std::max<std::int64_t>(BusyNs, 1)));
      SegmentEvents.push_back(Cp.EventsPerPass);
      SegmentNs.push_back(BusyNs);
      SegmentBatchUs.push_back(std::move(BatchUs));
      Traces += Cp.TracesPerPass;
      ++Segments;
    }
    Res.Attempted = Traces;
    // The figures come from the KeptSegments segments that ran fastest
    // (see highest()); their batches' times are pooled.
    std::uint64_t Events = 0;
    std::int64_t BusyNs = 0;
    std::vector<double> BatchUs;
    for (std::size_t I : highest(Rate, KeptSegments)) {
      Events += SegmentEvents[I];
      BusyNs += SegmentNs[I];
      BatchUs.insert(BatchUs.end(), SegmentBatchUs[I].begin(),
                     SegmentBatchUs[I].end());
    }
    Res.Notes.push_back({"segments", std::to_string(Segments)});
    Res.Notes.push_back(
        {"latency_samples_kept", std::to_string(BatchUs.size())});
    const double P50 = percentile(BatchUs, 0.50);
    const double P99 = percentile(BatchUs, 0.99);
    Res.metric("events_per_s",
               static_cast<double>(Events) /
                   (static_cast<double>(std::max<std::int64_t>(BusyNs, 1)) *
                    1e-9),
               "events/s");
    Res.metric("latency_p50_us", P50, "us");
    Res.metric("latency_p99_us", P99, "us");
    Res.metric("peak_rss_mb", peakRssMb(), "MB");
    Res.metric("setup_s", SetupS, "s");
    return Res;
  }

  // Traced, first half: single-thread CheckSession over fresh segments,
  // untraced and traced alternately, on warm per-ADT sessions.
  std::vector<std::unique_ptr<CheckSession>> Sessions;
  for (const CorpusGroup &G : Cp.Groups)
    Sessions.push_back(std::make_unique<CheckSession>(*G.Type));
  enum : std::uint16_t { NPass, NLinYes, NLinNo, NSlin };
  SpanRecorder Rec({"pass", "corpus.lin_yes", "corpus.lin_no", "corpus.slin"},
                   1u << 16);
  double NodesByFamily[FamilyCount] = {};
  std::uint64_t TracesByFamily[FamilyCount] = {};
  std::uint64_t MemoHits = 0, Nodes = 0;
  double UntracedEvents = 0, TracedEvents = 0;
  std::int64_t UntracedNs = 0;
  auto SessionPass = [&](bool Traced) {
    nextSegment(Cp, Spec);
    Traces += Cp.TracesPerPass;
    ++Segments;
    if (Traced) {
      Rec.beginEvent(Segments);
      Rec.begin(NPass);
    }
    std::int64_t T0 = nowNs();
    for (std::size_t GI = 0; GI != Cp.Groups.size(); ++GI) {
      const CorpusGroup &G = Cp.Groups[GI];
      CheckSession &S = *Sessions[GI];
      for (const CorpusBatch &B : G.Batches)
        for (std::size_t TI = 0; TI != B.Traces.size(); ++TI) {
          unsigned F = static_cast<unsigned>(B.Families[TI]);
          std::uint64_t N0 = S.stats().Search.Nodes;
          std::uint64_t H0 = S.stats().Search.MemoHits;
          std::int32_t Sp =
              Traced ? Rec.begin(static_cast<std::uint16_t>(NLinYes + F), 0)
                     : -1;
          Verdict V = G.Slin ? S.checkSlin(B.Traces[TI], Cp.Sig, Cp.Rel)
                                   .Outcome
                             : S.checkLin(B.Traces[TI]).Outcome;
          if (Traced)
            Rec.end(Sp);
          if (V != (B.Families[TI] == Family::LinNo ? Verdict::No
                                                     : Verdict::Yes))
            Res.fail(G.Name + " " + familyName(B.Families[TI]) +
                     " trace: CheckSession verdict " + verdictName(V));
          if (!Traced)
            continue;
          NodesByFamily[F] +=
              static_cast<double>(S.stats().Search.Nodes - N0);
          ++TracesByFamily[F];
          Nodes += S.stats().Search.Nodes - N0;
          MemoHits += S.stats().Search.MemoHits - H0;
        }
    }
    if (Traced) {
      Rec.end(0);
      Rec.endEvent();
      TracedEvents += static_cast<double>(Cp.EventsPerPass);
    } else {
      UntracedNs += nowNs() - T0;
      UntracedEvents += static_cast<double>(Cp.EventsPerPass);
    }
  };
  const std::int64_t Start = nowNs();
  while (nowNs() - Start < RunNs / 2) {
    SessionPass(false);
    SessionPass(true);
  }
  // Second half: CorpusDriver at one thread and at ScaleThreads, over the
  // same fresh segments, both on the wall clock.
  DriverSet Many(Cp, ScaleThreads);
  std::int64_t OneNs = 0, ManyNs = 0;
  double DriverEvents = 0;
  const std::int64_t Start2 = nowNs();
  while (nowNs() - Start2 < RunNs / 2) {
    nextSegment(Cp, Spec);
    PassVerdicts P1 =
        Drivers.pass(Cp, nowNs, [&](std::int64_t Ns) { OneNs += Ns; });
    PassVerdicts PN =
        Many.pass(Cp, nowNs, [&](std::int64_t Ns) { ManyNs += Ns; });
    if (P1 != PN)
      Res.fail("1-thread CorpusDriver verdicts differ from the N-thread ones");
    checkFamilies(Cp, PN, Res);
    DriverEvents += static_cast<double>(Cp.EventsPerPass);
    Traces += 2 * Cp.TracesPerPass;
    ++Segments;
  }
  Res.Attempted = Traces;
  Res.Notes.push_back({"segments", std::to_string(Segments)});

  auto Rate = [](double Events, double Ns) {
    return Ns > 0 ? Events / (Ns * 1e-9) : 0;
  };
  const double UntracedPerS =
      Rate(UntracedEvents, static_cast<double>(UntracedNs));
  const double TracedPerS = Rate(TracedEvents, Rec.totalNs(NPass));
  const double OnePerS = Rate(DriverEvents, static_cast<double>(OneNs));
  const double ManyPerS = Rate(DriverEvents, static_cast<double>(ManyNs));
  for (unsigned F = 0; F != FamilyCount; ++F) {
    std::string Name = familyName(static_cast<Family>(F));
    double Count = static_cast<double>(TracesByFamily[F]);
    Res.metric("corpus.check_us." + Name,
               Count ? Rec.selfNs(static_cast<std::uint16_t>(NLinYes + F)) *
                           1e-3 / Count
                     : 0,
               "us/trace");
    Res.metric("search.nodes_per_trace." + Name,
               Count ? NodesByFamily[F] / Count : 0, "nodes");
  }
  Res.metric("search.memo_hit_ratio",
             Nodes ? static_cast<double>(MemoHits) / static_cast<double>(Nodes)
                   : 0,
             "ratio");
  Res.metric("corpus.speedup", OnePerS > 0 ? ManyPerS / OnePerS : 0, "ratio");
  Res.metric("corpus.events_per_s_1t", OnePerS, "events/s");
  Res.metric("trace.untraced_events_per_s", UntracedPerS, "events/s");
  Res.metric("trace.overhead_ratio",
             TracedPerS > 0 ? UntracedPerS / TracedPerS : 0, "ratio");
  // The traced segments' per-trace self-times against the untraced rate.
  double StageNs =
      Rec.selfNs(NLinYes) + Rec.selfNs(NLinNo) + Rec.selfNs(NSlin);
  Res.metric("trace.stage_sum_ratio",
             TracedEvents > 0 ? StageNs / TracedEvents * UntracedPerS * 1e-9
                              : 0,
             "ratio");
  if (!Opts.SpanDir.empty())
    Rec.write(Opts.SpanDir + "/" + Opts.Workload + ".spans.tsv");
  return Res;
}

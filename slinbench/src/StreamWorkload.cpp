//===- slinbench/src/StreamWorkload.cpp - Monitor-service streams ---------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// One stream run: set-up (generator, service, warm-up prefix), rounds of a
// closed-loop segment and an open-loop segment at the workload's offered
// rate for the run's seconds, a closing tail that completes every open
// operation, and the checks. Stream text is rendered in bounded chunks;
// rendering, the shadow pass and the checks that need a lookup run outside
// the timed regions.
//
// The traced run alternates untraced and traced chunks in its closed loop
// (their rates give the tracing overhead), records spans around every
// public call of a traced event, and replays each event through a shadow
// pass — sessions built with the service's shard options plus a tracker —
// whose per-shard verdicts must equal the service's after every event.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "engine/Incremental.h"
#include "service/Service.h"
#include "slin/Composition.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>

using namespace slin;
using namespace slinbench;

namespace {

/// What one event did, from the per-shard stats around it.
enum Kind : std::uint8_t {
  KInvoke,  ///< Placed no obligation (invoke, switch, cached verdict).
  KFast,    ///< Response served by the fast path.
  KEngine,  ///< Verdict entered the chain search.
  KFold,    ///< Verdict retired a quiescent prefix.
  KBounded, ///< Verdict served by the bounded fallback.
  KDrain,   ///< Event ended an overflow excursion.
  KQueued,  ///< Open loop: waited longer than it took.
  KindCount
};
const char *const KindNames[KindCount] = {"invoke",  "fast",  "engine",
                                          "fold",    "bounded", "drain",
                                          "queued"};

struct StatSnap {
  std::uint64_t Fast = 0, Nodes = 0, Retired = 0, Bounded = 0;
  bool Overflowed = false;
};

template <typename Session> StatSnap snap(const Session *S) {
  if (!S)
    return {};
  const SessionStats &St = S->stats();
  return {St.FastPathVerdicts, St.Search.Nodes, St.RetiredObligations,
          St.BoundedYesVerdicts, S->overflowed()};
}

Kind classify(const StatSnap &B, const StatSnap &A) {
  if (B.Overflowed && !A.Overflowed)
    return KDrain;
  if (A.Bounded != B.Bounded)
    return KBounded;
  if (A.Nodes != B.Nodes && A.Fast == B.Fast)
    return KEngine;
  if (A.Retired != B.Retired)
    return KFold;
  if (A.Fast != B.Fast)
    return KFast;
  return KInvoke;
}

const std::string EmptyReason;

enum SpanName : std::uint16_t {
  NEvent,
  NParse,
  NRoute,
  NApply,
  NShadow,
  NAppend,
  NVerdict,
  NUpdate,
};

/// The shadow pass: one session per object built with the service's shard
/// options, the service's first-seen client remap, and a composed tracker
/// fed the same way the service publishes (BatchWindow 1).
class Shadow {
public:
  Shadow(const StreamGen &Gen, const ServiceConfig &Config) : Gen(Gen) {
    Opts.TranspositionCapacity = Config.TranspositionCapacity;
    Opts.RetainTrace = false;
    Opts.RetainRetiredWitness = false;
    Opts.InterferenceBound = Config.InterferenceBound;
    Opts.Order = Config.Order;
    LinOpts.NodeBudget = Config.NodeBudget;
    LinOpts.WantWitness = false;
    SlinOpts.Search.NodeBudget = Config.NodeBudget;
    SlinOpts.Search.WantWitness = false;
    SlinOpts.WantWitness = false;
  }

  struct Step {
    std::int64_t AppendNs = 0, VerdictNs = 0, UpdateNs = 0;
    Kind K = KInvoke;
    Verdict V = Verdict::Yes;
    VerdictGrade G = VerdictGrade::Yes;
  };

  /// Replays one event; with \p Rec, times the three calls as children of
  /// span \p Parent.
  Step apply(ObjectId Object, const Action &A, SpanRecorder *Rec = nullptr,
             std::int32_t Parent = -1) {
    Obj &O = get(Object);
    Action Local = A;
    Local.Client = O.local(A.Client);
    StatSnap Before = O.Lin ? snap(O.Lin.get()) : snap(O.Slin.get());
    Step S;
    std::int32_t Sp = Rec ? Rec->begin(NAppend, Parent) : -1;
    if (!O.Doomed) {
      WellFormedness W = O.Lin ? O.Lin->append(Local) : O.Slin->append(Local);
      O.Doomed = !W.Ok;
    }
    if (Rec) {
      Rec->end(Sp);
      S.AppendNs = Rec->duration(Sp);
      Sp = Rec->begin(NVerdict, Parent);
    }
    if (O.Lin) {
      LinCheckResult R = O.Lin->verdict(LinOpts);
      S.V = R.Outcome;
      S.G = R.Grade;
      if (S.V != Verdict::Yes && O.Reason != R.Reason)
        O.Reason = R.Reason;
    } else {
      SlinVerdict R = O.Slin->verdict(SlinOpts);
      S.V = R.Outcome;
      S.G = R.Grade;
      if (S.V != Verdict::Yes && O.Reason != R.Reason)
        O.Reason = R.Reason;
    }
    if (Rec) {
      Rec->end(Sp);
      S.VerdictNs = Rec->duration(Sp);
      Sp = Rec->begin(NUpdate, Parent);
    }
    Tracker.update(O.Index, S.V, S.G,
                   S.G == VerdictGrade::Yes ? EmptyReason : O.Reason);
    if (Rec) {
      Rec->end(Sp);
      S.UpdateNs = Rec->duration(Sp);
    }
    StatSnap After = O.Lin ? snap(O.Lin.get()) : snap(O.Slin.get());
    S.K = classify(Before, After);
    O.V = S.V;
    O.G = S.G;
    return S;
  }

  Verdict verdict(ObjectId Object) const {
    auto It = Objs.find(Object);
    return It == Objs.end() ? Verdict::Yes : It->second->V;
  }
  const ComposedVerdictTracker &tracker() const { return Tracker; }

private:
  struct Obj {
    std::uint32_t Index = 0;
    std::unique_ptr<IncrementalLinSession> Lin;
    std::unique_ptr<IncrementalSlinSession> Slin;
    std::vector<std::uint32_t> Clients;
    bool Doomed = false;
    Verdict V = Verdict::Yes;
    VerdictGrade G = VerdictGrade::Yes;
    std::string Reason;

    std::uint32_t local(std::uint32_t Global) {
      for (std::uint32_t L = 0; L != Clients.size(); ++L)
        if (Clients[L] == Global)
          return L;
      Clients.push_back(Global);
      return static_cast<std::uint32_t>(Clients.size() - 1);
    }
  };

  Obj &get(ObjectId Object) {
    auto &Slot = Objs[Object];
    if (!Slot) {
      Slot = std::make_unique<Obj>();
      Slot->Index = static_cast<std::uint32_t>(Objs.size() - 1);
      if (Gen.spec().Kind == StreamKind::LinKv)
        Slot->Lin = std::make_unique<IncrementalLinSession>(Gen.adt(), Opts);
      else
        Slot->Slin = std::make_unique<IncrementalSlinSession>(
            Gen.adt(), Gen.signature(), Gen.relation(), Opts);
    }
    return *Slot;
  }

  const StreamGen &Gen;
  IncrementalOptions Opts;
  LinCheckOptions LinOpts;
  SlinCheckOptions SlinOpts;
  std::unordered_map<ObjectId, std::unique_ptr<Obj>> Objs;
  ComposedVerdictTracker Tracker;
};

/// A bounded slice of the stream: the rendered wire text plus the events
/// it renders (the checks' and the shadow pass's view of the same lines).
struct Chunk {
  std::string Text;
  std::vector<std::uint32_t> Begin, End;
  std::vector<StreamEvent> Events;

  void clear() {
    Text.clear();
    Begin.clear();
    End.clear();
    Events.clear();
  }
  std::size_t size() const { return Events.size(); }
  std::string_view line(std::size_t I) const {
    return std::string_view(Text).substr(Begin[I], End[I] - Begin[I]);
  }
  void add(const StreamEvent &E) {
    Begin.push_back(static_cast<std::uint32_t>(Text.size()));
    appendServiceLine(Text, E.Object, E.A);
    End.push_back(static_cast<std::uint32_t>(Text.size() - 1));
    Events.push_back(E);
  }
};

const char *gradeName(VerdictGrade G) {
  switch (G) {
  case VerdictGrade::Yes:
    return "Yes";
  case VerdictGrade::BoundedYes:
    return "BoundedYes";
  case VerdictGrade::Unknown:
    return "Unknown";
  case VerdictGrade::No:
    return "No";
  }
  return "?";
}

/// The per-event checks the generator asked for.
void checkEvent(const MonitorService &S, const StreamEvent &E,
                RunResult &Res) {
  VerdictGrade G = S.shardGrade(E.Object);
  auto Fail = [&](const char *Want) {
    Res.fail("object " + std::to_string(E.Object) + ": expected " + Want +
             ", shard grade " + gradeName(G) + " (" +
             S.shardReason(E.Object) + ")");
  };
  switch (E.Check) {
  case EventCheck::None:
    return;
  case EventCheck::NotNo:
    if (G == VerdictGrade::No)
      Fail("no No while a straggler is open");
    return;
  case EventCheck::Yes:
    if (G != VerdictGrade::Yes)
      Fail("Yes once the straggler responded");
    return;
  case EventCheck::No:
    if (S.shardVerdict(E.Object) != Verdict::No)
      Fail("No at the injected violation");
    return;
  }
}


/// Per-kind sample lists, capped so a long run stays bounded.
struct Samples {
  static constexpr std::size_t Cap = 1u << 20;
  std::vector<double> V;
  void add(double X) {
    if (V.size() < Cap)
      V.push_back(X);
  }
};

/// A closed-loop segment: its untraced events and their CPU time.
struct Segment {
  std::uint64_t Events = 0;
  std::int64_t CpuNs = 0;
};

/// CPU time of each loop segment.
constexpr std::int64_t SegmentNs = 50'000'000;

/// Segments of each loop the end-to-end figures come from (see
/// highest()); a run of 35 s has about 300.
constexpr std::size_t KeptSegments = 16;

double rate(std::uint64_t Events, std::int64_t Ns) {
  return Ns > 0 ? static_cast<double>(Events) * 1e9 / static_cast<double>(Ns)
                : 0;
}

/// Percentiles of every sample of a run at 1% resolution, in fixed memory.
class LogHistogram {
public:
  void add(float Us) {
    std::size_t B = 0;
    if (Us > MinUs)
      B = std::min<std::size_t>(
          Buckets - 1,
          1 + static_cast<std::size_t>(std::log(Us / MinUs) / std::log(Base)));
    ++Counts[B];
    ++Total;
  }
  /// Nearest-rank percentile, as the upper edge of its bucket; 0 when empty.
  double percentile(double P) const {
    if (!Total)
      return 0;
    const double Exact = std::ceil(P * static_cast<double>(Total));
    std::uint64_t Rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(Exact));
    std::uint64_t Seen = 0;
    std::size_t B = 0;
    while ((Seen += Counts[B]) < Rank)
      ++B;
    return MinUs * std::pow(Base, static_cast<double>(B));
  }
  std::uint64_t count() const { return Total; }

private:
  static constexpr double Base = 1.01, MinUs = 0.01;
  static constexpr std::size_t Buckets = 2600; // Up to about 25 minutes.
  std::vector<std::uint64_t> Counts = std::vector<std::uint64_t>(Buckets);
  std::uint64_t Total = 0;
};

/// The open-loop segments with the lowest median latency so far, at most
/// Capacity of them, with their samples; the latency figures come from
/// these (see highest()), in memory that does not grow with the run.
class QuietestSegments {
public:
  explicit QuietestSegments(std::size_t Capacity) : Capacity(Capacity) {}

  /// Offers a finished segment's samples (reordered); a kept segment's
  /// samples are swapped out of \p Lat.
  void offer(std::vector<float> &Lat) {
    if (Lat.empty())
      return;
    const double P50 = percentile(Lat, 0.50);
    if (Kept.size() < Capacity) {
      Kept.push_back({P50, {}});
      std::swap(Kept.back().Lat, Lat);
      return;
    }
    auto Worst = std::max_element(
        Kept.begin(), Kept.end(),
        [](const Entry &A, const Entry &B) { return A.P50 < B.P50; });
    if (P50 < Worst->P50) {
      Worst->P50 = P50;
      std::swap(Worst->Lat, Lat);
    }
  }

  std::vector<float> pooled() const {
    std::vector<float> All;
    for (const Entry &E : Kept)
      All.insert(All.end(), E.Lat.begin(), E.Lat.end());
    return All;
  }

private:
  struct Entry {
    double P50;
    std::vector<float> Lat;
  };
  std::size_t Capacity;
  std::vector<Entry> Kept;
};

} // namespace

RunResult slinbench::runStream(const RunOptions &Opts, const StreamSpec &Spec) {
  RunResult Res;
  StreamGen Gen(Spec, Opts.Seed);
  ServiceConfig Config;
  std::unique_ptr<MonitorService> Svc =
      Spec.Kind == StreamKind::LinKv
          ? std::make_unique<MonitorService>(Gen.adt(), Config)
          : std::make_unique<MonitorService>(Gen.adt(), Gen.signature(),
                                             Gen.relation(), Config);
  std::unique_ptr<Shadow> Sh;
  if (Opts.Trace)
    Sh = std::make_unique<Shadow>(Gen, Config);
  SpanRecorder Rec({"event", "wire.parse", "service.route", "service.apply",
                    "shadow", "session.append", "session.verdict",
                    "composition.update"},
                   Opts.Trace ? 1u << 16 : 0);

  std::uint64_t ShadowMismatches = 0;
  auto CompareShadow = [&](const StreamEvent &E, Verdict Shadowed,
                           Verdict Service) {
    if (Shadowed != Service && ShadowMismatches++ < 8)
      Res.fail("shadow verdict differs from the service on object " +
               std::to_string(E.Object));
  };
  // Untimed replay of a chunk through the shadow pass. With \p Recorded
  // (the service's verdict after each event) the comparison is per event;
  // without, against the service's standing verdicts after the chunk.
  auto ShadowChunk = [&](const Chunk &C, const std::vector<Verdict> *Recorded) {
    if (!Sh)
      return;
    for (std::size_t I = 0; I != C.size(); ++I) {
      const StreamEvent &E = C.Events[I];
      Verdict V =
          Sh->apply(E.Object, E.A).V;
      if (Recorded)
        CompareShadow(E, V, (*Recorded)[I]);
    }
    if (!Recorded)
      for (const StreamEvent &E : C.Events)
        CompareShadow(E, Sh->verdict(E.Object), Svc->shardVerdict(E.Object));
  };
  // Feeds a chunk through the service untimed with every check, the
  // shadow pass (traced) compared per event.
  std::vector<Verdict> Recorded;
  auto ApplyChecked = [&](const Chunk &C) {
    Recorded.clear();
    for (std::size_t I = 0; I != C.size(); ++I) {
      Svc->ingestLine(C.line(I));
      Svc->poll();
      checkEvent(*Svc, C.Events[I], Res);
      if (Sh)
        Recorded.push_back(Svc->shardVerdict(C.Events[I].Object));
    }
    ShadowChunk(C, &Recorded);
  };

  Chunk C;
  // Set-up: the warm-up prefix takes every shard past first-use growth.
  std::uint64_t Warm =
      static_cast<std::uint64_t>(Spec.Objects) * Spec.WarmEventsPerObject;
  for (std::uint64_t Done = 0; Done < Warm;) {
    C.clear();
    std::size_t N = static_cast<std::size_t>(
        std::min<std::uint64_t>(Spec.ChunkEvents, Warm - Done));
    for (std::size_t I = 0; I != N; ++I)
      C.add(Gen.next());
    ApplyChecked(C);
    Done += N;
  }
  // Set-up is the process's CPU time from its start: preemption by other
  // processes does not count, work moved into set-up does.
  const double SetupS = static_cast<double>(processCpuNs()) * 1e-9;

  // The run is a sequence of rounds, each a closed-loop segment and then
  // an open-loop segment of SegmentNs of the benchmark thread's CPU time,
  // so both loops sample every phase of the host's load.
  std::uint64_t UntracedEvents = 0, TracedEvents = 0, EventId = 0;
  std::int64_t UntracedWallNs = 0;
  std::vector<Segment> Closed;
  double TracedServiceNs = 0;
  Samples VerdictByKind[KindCount];
  double DrainApplyNs = 0;
  std::uint64_t Drains = 0;
  std::string ParseError;
  std::uint64_t TracedParseErrors = 0;
  std::vector<std::int64_t> ApplyNs;
  std::size_t ChunkNo = 0;

  // Closed loop: each event is fed as soon as the previous one's composed
  // verdict is current.
  auto ClosedSegment = [&](Segment &Seg) {
    const std::int64_t SegmentStart = threadCpuNs();
    for (; threadCpuNs() - SegmentStart < SegmentNs; ++ChunkNo) {
      C.clear();
      for (std::size_t I = 0; I != Spec.ChunkEvents; ++I)
        C.add(Gen.next());
      bool Traced = Opts.Trace && ChunkNo % 2 == 1;
      if (!Traced) {
        std::int64_t T0 = nowNs(), C0 = threadCpuNs();
        for (std::size_t I = 0, N = C.size(); I != N; ++I) {
          Svc->ingestLine(C.line(I));
          Svc->poll();
          if (C.Events[I].Check != EventCheck::None)
            checkEvent(*Svc, C.Events[I], Res);
        }
        Seg.CpuNs += threadCpuNs() - C0;
        Seg.Events += C.size();
        UntracedWallNs += nowNs() - T0;
        UntracedEvents += C.size();
        EventId += C.size();
        ShadowChunk(C, nullptr);
        continue;
      }
      // Traced: spans around the service's public calls, event by event;
      // then the shadow pass over the chunk, so its working set does not
      // evict the service's between an event's stages.
      Recorded.clear();
      ApplyNs.clear();
      for (std::size_t I = 0, N = C.size(); I != N; ++I) {
        const StreamEvent &E = C.Events[I];
        Rec.beginEvent(EventId + I);
        std::int32_t Root = Rec.begin(NEvent);
        std::int32_t Sp = Rec.begin(NParse, Root);
        ServiceRecord R;
        LineKind LK = parseServiceLine(C.line(I), R, ParseError);
        Rec.end(Sp);
        Sp = Rec.begin(NRoute, Root);
        if (LK == LineKind::Record)
          Svc->ingest(R.Object, R.A);
        Rec.end(Sp);
        std::int32_t Apply = Rec.begin(NApply, Root);
        Svc->poll();
        Rec.end(Apply);
        Rec.end(Root);
        Rec.endEvent();
        TracedParseErrors += LK != LineKind::Record;
        TracedServiceNs += static_cast<double>(Rec.duration(Root));
        ApplyNs.push_back(Rec.duration(Apply));
        if (E.Check != EventCheck::None)
          checkEvent(*Svc, E, Res);
        Recorded.push_back(Svc->shardVerdict(E.Object));
      }
      for (std::size_t I = 0, N = C.size(); I != N; ++I) {
        const StreamEvent &E = C.Events[I];
        Rec.beginEvent(EventId + I);
        std::int32_t ShSp = Rec.begin(NShadow);
        Shadow::Step St = Sh->apply(E.Object, E.A, &Rec, ShSp);
        Rec.end(ShSp);
        Rec.endEvent();
        CompareShadow(E, St.V, Recorded[I]);
        if (isRespond(E.A) || St.K != KInvoke)
          VerdictByKind[St.K].add(static_cast<double>(St.VerdictNs));
        if (St.K == KDrain) {
          DrainApplyNs += static_cast<double>(ApplyNs[I]);
          ++Drains;
        }
      }
      EventId += C.size();
      TracedEvents += C.size();
    }
  };

  // Open loop: event g of a segment is due at g / OfferedRate after the
  // segment starts, on the benchmark thread's CPU clock, which pauses
  // while the next chunk is rendered (and, traced, while the shadow pass
  // replays the last one) and while the host runs other processes. Each
  // event is timed from its due time to its composed verdict being
  // current, so a stall the program causes charges the events queued
  // behind it. A segment starts with an empty queue: the closed loop
  // before it leaves none.
  const double NsPerEvent = 1e9 / Spec.OfferedRate;
  const std::uint64_t SegmentEvents = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(SegmentNs) /
                                    NsPerEvent));
  // Every sample goes into the histograms; the quietest segments keep
  // theirs; the traced run keeps every sample too, for the tail's causes.
  LogHistogram AllLat, AllLag;
  QuietestSegments Quiet(KeptSegments);
  std::vector<float> LatUs, SegmentLat;
  // Per event (traced): its kind, and the kind of the slowest event of
  // its busy period — the stall a queued event waited behind.
  std::vector<std::uint8_t> Kinds, Blockers;
  auto OpenSegment = [&] {
    SegmentLat.clear();
    std::int64_t BusyMaxOwn = 0;
    Kind BusyKind = KInvoke;
    std::int64_t Paused = 0, PrevDone = 0;
    const std::int64_t VStart = threadCpuNs();
    std::int64_t Now = VStart;
    for (std::uint64_t G = 0; G != SegmentEvents;) {
      std::int64_t P0 = Now;
      C.clear();
      while (C.size() != Spec.ChunkEvents && G + C.size() != SegmentEvents)
        C.add(Gen.next());
      Recorded.clear();
      Now = threadCpuNs();
      Paused += Now - P0;
      for (std::size_t I = 0, N = C.size(); I != N; ++I, ++G) {
        const StreamEvent &E = C.Events[I];
        std::int64_t Due =
            VStart + Paused +
            static_cast<std::int64_t>(static_cast<double>(G) * NsPerEvent);
        bool Idle = PrevDone <= Due;
        std::int64_t Start = Now;
        while (Start < Due)
          Start = threadCpuNs();
        if (Idle)
          AllLag.add(static_cast<float>(Start - Due) * 1e-3f);
        StatSnap Before;
        if (Opts.Trace)
          Before = Spec.Kind == StreamKind::LinKv
                       ? snap(Svc->linShard(E.Object))
                       : snap(Svc->slinShard(E.Object));
        Svc->ingestLine(C.line(I));
        Svc->poll();
        std::int64_t Done = threadCpuNs();
        const float Lat = static_cast<float>(Done - Due) * 1e-3f;
        SegmentLat.push_back(Lat);
        AllLat.add(Lat);
        PrevDone = Now = Done;
        if (Opts.Trace) {
          LatUs.push_back(Lat);
          StatSnap After = Spec.Kind == StreamKind::LinKv
                               ? snap(Svc->linShard(E.Object))
                               : snap(Svc->slinShard(E.Object));
          Kind K = classify(Before, After);
          if (Idle || Done - Start > BusyMaxOwn) {
            BusyMaxOwn = Done - Start;
            BusyKind = K;
          }
          Kinds.push_back(Start - Due > Done - Start ? KQueued : K);
          Blockers.push_back(BusyKind);
          Recorded.push_back(Svc->shardVerdict(E.Object));
        }
        if (E.Check != EventCheck::None)
          checkEvent(*Svc, E, Res);
      }
      std::int64_t P1 = Now;
      ShadowChunk(C, &Recorded);
      Now = threadCpuNs();
      Paused += Now - P1;
    }
    EventId += SegmentEvents;
    Quiet.offer(SegmentLat);
  };

  const std::int64_t RunStart = nowNs();
  const std::int64_t RunNs = static_cast<std::int64_t>(Opts.Seconds * 1e9);
  do {
    Segment Seg;
    ClosedSegment(Seg);
    if (Seg.CpuNs > 0)
      Closed.push_back(Seg);
    OpenSegment();
  } while (nowNs() - RunStart < RunNs);

  // Closing tail: complete every open operation, then flush.
  for (bool More = true; More;) {
    C.clear();
    StreamEvent E;
    while (C.size() < Spec.ChunkEvents && (More = Gen.nextClosing(E)))
      C.add(E);
    ApplyChecked(C);
  }
  Svc->flush();

  // The checks against the generator's expectations.
  const ServiceStats &S = Svc->stats();
  if (S.ParseErrors || TracedParseErrors)
    Res.fail("parse errors: " + std::to_string(S.ParseErrors + TracedParseErrors));
  if (S.RingOverflows)
    Res.fail("ring overflows: " + std::to_string(S.RingOverflows));
  if (S.Rejected)
    Res.fail("rejected events: " + std::to_string(S.Rejected));
  if (S.Applied != Gen.events() || S.Events != Gen.events())
    Res.fail("applied " + std::to_string(S.Applied) + " of " +
             std::to_string(Gen.events()) + " generated lines");
  if (S.ShardVerdicts != S.Applied)
    Res.fail("published " + std::to_string(S.ShardVerdicts) +
             " shard verdicts for " + std::to_string(S.Applied) + " events");
  SessionStats Agg = Svc->aggregateSessionStats();
  if (Agg.WindowOverflows != Gen.excursions())
    Res.fail("overflow excursions " + std::to_string(Agg.WindowOverflows) +
             ", stragglers injected " + std::to_string(Gen.excursions()));
  for (ObjectId Obj : Gen.objectIds()) {
    if (Gen.violated(Obj)) {
      if (Svc->shardVerdict(Obj) != Verdict::No)
        Res.fail("violating object " + std::to_string(Obj) + " is not No");
    } else if (Svc->shardGrade(Obj) != VerdictGrade::Yes) {
      Res.fail("clean object " + std::to_string(Obj) + " ends at " +
               gradeName(Svc->shardGrade(Obj)) + ": " + Svc->shardReason(Obj));
    }
  }
  Verdict WantComposed =
      Gen.violatedObjects() ? Verdict::No : Verdict::Yes;
  if (Svc->composedVerdict() != WantComposed)
    Res.fail("composed verdict differs from the generator's");
  else if (WantComposed == Verdict::No &&
           Svc->culpritObject() != Gen.expectedCulprit())
    Res.fail("culprit object " + std::to_string(Svc->culpritObject()) +
             ", expected " + std::to_string(Gen.expectedCulprit()));
  if (Sh && Sh->tracker().verdict() != Svc->composedVerdict())
    Res.fail("shadow composed verdict differs from the service");

  Res.Attempted = S.Applied;
  Res.Failed = 0;
  Res.OpenLoopLagUs = AllLag.percentile(0.99);
  const double P99 = AllLat.percentile(0.99);
  // The end-to-end figures come from the segments the host disturbed
  // least (see highest()): the rate from the closed-loop segments that ran
  // fastest, the latencies from the open-loop segments with the lowest
  // median latency, pooled. The p99 is not what segments are chosen by.
  std::vector<double> Rate;
  std::uint64_t AllEvents = 0, KeptEvents = 0;
  std::int64_t AllCpuNs = 0, KeptCpuNs = 0;
  for (const Segment &Seg : Closed) {
    Rate.push_back(rate(Seg.Events, Seg.CpuNs));
    AllEvents += Seg.Events;
    AllCpuNs += Seg.CpuNs;
  }
  for (std::size_t I : highest(Rate, KeptSegments)) {
    KeptEvents += Closed[I].Events;
    KeptCpuNs += Closed[I].CpuNs;
  }
  std::vector<float> KeptLat = Quiet.pooled();
  Res.Notes.push_back(
      {"events_per_s_all", std::to_string(rate(AllEvents, AllCpuNs))});
  Res.Notes.push_back({"latency_p50_all_us",
                       std::to_string(AllLat.percentile(0.50))});
  Res.Notes.push_back({"latency_p99_all_us", std::to_string(P99)});
  Res.Notes.push_back({"latency_samples", std::to_string(AllLat.count())});
  Res.Notes.push_back({"segments", std::to_string(Closed.size())});
  Res.Notes.push_back(
      {"latency_samples_kept", std::to_string(KeptLat.size())});
  Res.Notes.push_back({"offered_rate", std::to_string(Spec.OfferedRate)});
  Res.Notes.push_back({"excursions", std::to_string(Gen.excursions())});
  Res.Notes.push_back({"shards", std::to_string(Svc->shardCount())});

  if (!Opts.Trace) {
    Res.metric("events_per_s", rate(KeptEvents, KeptCpuNs), "events/s");
    Res.metric("latency_p50_us", percentile(KeptLat, 0.50), "us");
    Res.metric("latency_p99_us", percentile(KeptLat, 0.99), "us");
    Res.metric("peak_rss_mb", peakRssMb(), "MB");
    Res.metric("setup_s", SetupS, "s");
    return Res;
  }
  const double WallEventsPerS = rate(UntracedEvents, UntracedWallNs);

  auto Mean = [&](std::uint16_t N) {
    return Rec.count(N) ? Rec.selfNs(N) / static_cast<double>(Rec.count(N))
                        : 0.0;
  };
  const double Parse = Mean(NParse), Route = Mean(NRoute),
               Apply = Mean(NApply), Append = Mean(NAppend),
               Verd = Mean(NVerdict), Update = Mean(NUpdate);
  Res.metric("wire.parse_ns", Parse, "ns/event");
  Res.metric("service.route_ns", Route, "ns/event");
  Res.metric("service.apply_ns", Apply, "ns/event");
  Res.metric("service.overhead_ns", Apply - Append - Verd - Update,
             "ns/event");
  Res.metric("session.append_ns", Append, "ns/event");
  Res.metric("session.verdict_fast_ns", median(VerdictByKind[KFast].V), "ns");
  Res.metric("session.verdict_engine_ns", median(VerdictByKind[KEngine].V),
             "ns");
  Res.metric("session.drain_us",
             Drains ? DrainApplyNs * 1e-3 / static_cast<double>(Drains) : 0,
             "us/excursion");
  Res.metric("session.bounded_ns", median(VerdictByKind[KBounded].V), "ns");
  Res.metric("session.fast_path_ratio",
             Gen.responses() ? static_cast<double>(Agg.FastPathVerdicts) /
                                   static_cast<double>(Gen.responses())
                             : 0,
             "ratio");
  Res.metric("session.fold_per_event",
             static_cast<double>(Agg.RetiredObligations) /
                 static_cast<double>(S.Applied ? S.Applied : 1),
             "count");
  Res.metric("composition.update_ns", Update, "ns/event");
  Res.metric("shard.memory_bytes",
             static_cast<double>(Svc->memoryFootprintBytes()) /
                 static_cast<double>(Svc->shardCount() ? Svc->shardCount() : 1),
             "bytes");
  // Which kinds of event sit above the open loop's p99.
  // A queued event is also charged to the slowest event of its busy
  // period, which names the stall behind it.
  std::uint64_t Above[KindCount] = {}, Behind[KindCount] = {}, AboveTotal = 0;
  for (std::size_t I = 0; I != LatUs.size() && I != Kinds.size(); ++I)
    if (LatUs[I] > P99) {
      ++Above[Kinds[I]];
      ++Behind[Blockers[I]];
      ++AboveTotal;
    }
  auto Share = [&](std::uint64_t N) {
    return AboveTotal ? static_cast<double>(N) / static_cast<double>(AboveTotal)
                      : 0;
  };
  for (unsigned K = 0; K != KindCount; ++K)
    Res.metric(std::string("tail.p99_share.") + KindNames[K], Share(Above[K]),
               "ratio");
  for (unsigned K = 0; K != KQueued; ++K)
    Res.metric(std::string("tail.p99_blocker_share.") + KindNames[K],
               Share(Behind[K]), "ratio");
  Res.metric("openloop.lag_us", Res.OpenLoopLagUs, "us");
  Res.metric("search.memo_hit_ratio",
             Agg.Search.Nodes ? static_cast<double>(Agg.Search.MemoHits) /
                                    static_cast<double>(Agg.Search.Nodes)
                              : 0,
             "ratio");
  const double TracedPerS =
      TracedServiceNs > 0 ? static_cast<double>(TracedEvents) * 1e9 /
                                TracedServiceNs
                          : 0;
  // Spans are on the wall clock, so the base here is the untraced chunks'
  // wall-clock rate.
  Res.metric("trace.untraced_events_per_s", WallEventsPerS, "events/s");
  Res.metric("trace.overhead_ratio",
             TracedPerS > 0 ? WallEventsPerS / TracedPerS : 0, "ratio");
  // Stage self-times per event against the untraced per-event time.
  Res.metric("trace.stage_sum_ratio",
             (Parse + Route + Apply) * WallEventsPerS * 1e-9, "ratio");
  Res.Notes.push_back({"traced_events", std::to_string(TracedEvents)});
  if (!Opts.SpanDir.empty())
    Rec.write(Opts.SpanDir + "/" + Opts.Workload + ".spans.tsv");
  return Res;
}

//===- slinbench/src/CorpusGen.h - Seeded mixed corpus ----------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch checker's corpus: linearizable-by-construction lin traces over
/// a register, a queue and a key-value store (lin_yes), the same traces
/// with one response's output set to a value no state produces (lin_no),
/// and speculative-linearizable-by-construction consensus phase walks with
/// aborts (slin). Each family's expected verdict is fixed here.
///
//===----------------------------------------------------------------------===//

#ifndef SLINBENCH_CORPUSGEN_H
#define SLINBENCH_CORPUSGEN_H

#include "adt/Adt.h"
#include "slin/InitRelation.h"
#include "support/Rng.h"
#include "trace/Action.h"
#include "trace/Signature.h"

#include <memory>
#include <string>
#include <vector>

namespace slinbench {

struct CorpusSpec {
  /// One segment of the corpus: a run checks a fresh segment after
  /// another, so every batch it times holds traces it has not seen.
  unsigned LinPerAdt = 64;   ///< Positive lin traces per ADT and segment.
  unsigned SlinWalks = 64;   ///< Consensus phase walks per segment.
  unsigned Clients = 6;      ///< Register and key-value traces.
  unsigned Ops = 30;         ///< Register and key-value traces.
  /// Queue traces are smaller: a FIFO's refutations grow far faster with
  /// concurrency (at 6 clients and 24 operations some positive traces
  /// already take 10^5 nodes).
  unsigned QueueClients = 4;
  unsigned QueueOps = 16;
  double PendingFraction = 0.1;
  unsigned WalkClients = 6;
  unsigned WalkOpsPerClient = 3;
  double WalkAbortChance = 0.6;
  unsigned BatchTraces = 16; ///< Traces per CorpusDriver call.
  /// The timed loop checks inline on the benchmark thread (one
  /// CorpusDriver thread) so it can run on that thread's CPU clock; the
  /// traced run measures the speedup at ScaleThreads (clamped to nproc).
  unsigned Threads = 1;
  unsigned ScaleThreads = 2;
};

CorpusSpec corpusSpec(const std::string &Workload);

enum class Family : std::uint8_t { LinYes, LinNo, Slin };
inline constexpr unsigned FamilyCount = 3;
const char *familyName(Family F);

/// One CorpusDriver call's worth of traces of one ADT.
struct CorpusBatch {
  std::vector<slin::Trace> Traces;
  std::vector<Family> Families;
};

/// The traces of one ADT, cut into batches.
struct CorpusGroup {
  std::string Name;
  std::unique_ptr<slin::Adt> Type;
  bool Slin = false;
  std::vector<CorpusBatch> Batches;
};

/// The ADTs and the current segment's traces.
struct Corpus {
  explicit Corpus(std::uint64_t Seed) : R(Seed ^ 0xC0A9B05ULL) {}

  std::vector<CorpusGroup> Groups;
  slin::PhaseSignature Sig{1, 2};   ///< Slin walks: the first phase.
  slin::ConsensusInitRelation Rel;
  std::uint64_t EventsPerPass = 0;  ///< Actions over the segment's traces.
  std::uint64_t TracesPerPass = 0;
  slin::Rng R;                      ///< Continues across segments.
};

/// The ADTs plus the first segment.
Corpus makeCorpus(const CorpusSpec &Spec, std::uint64_t Seed);

/// Replaces every group's traces with the next segment's.
void nextSegment(Corpus &Cp, const CorpusSpec &Spec);

/// A consensus phase-(1, 2) walk: clients propose; the first response fixes
/// the winner every response decides; with \p AbortChance the phase aborts
/// part-way, every pending client switching out with the winner (or, before
/// any decision, one pending proposal) as switch value.
slin::Trace genSlinWalk(slin::Rng &R, unsigned Clients, unsigned OpsPerClient,
                        double AbortChance);

/// Sets one response's output to a value no state of the corpus ADTs
/// produces. Returns false when the trace has no response.
bool injectImpossibleOutput(slin::Trace &T, slin::Rng &R);

} // namespace slinbench

#endif // SLINBENCH_CORPUSGEN_H

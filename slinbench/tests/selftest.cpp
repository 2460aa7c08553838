//===- slinbench/tests/selftest.cpp - The benchmark's own tests -----------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Self-tests of the benchmark:
//   * every stream object's events replayed against the generator's
//     sequential model at the recorded linearization points (each
//     response, in emitted order), plus well-formedness and, on short
//     prefixes, the classical and batch checkers as independent oracles;
//   * injected violations carry an output that no reachable state of the
//     ADT produces on the generators' alphabets;
//   * every workload at small size, untraced and traced, with every check
//     on.
//
// Build and run:
//   cmake -S slinbench -B .bench_build/slinbench && \
//   cmake --build .bench_build/slinbench --target slinbench_selftest && \
//   .bench_build/slinbench/slinbench_selftest
//
//===----------------------------------------------------------------------===//

#include "CorpusGen.h"
#include "StreamGen.h"
#include "Workloads.h"

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "adt/Queue.h"
#include "adt/Register.h"
#include "lin/Classical.h"
#include "slin/SlinChecker.h"

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace slin;
using namespace slinbench;

namespace {

int Failures = 0;

#define CHECK(Cond, Msg)                                                      \
  do {                                                                        \
    if (!(Cond)) {                                                            \
      ++Failures;                                                             \
      std::fprintf(stderr, "%s:%d: %s: %s\n", __FILE__, __LINE__, #Cond,      \
                   std::string(Msg).c_str());                                 \
    }                                                                         \
  } while (0)

StreamSpec smallStream(const char *Workload) {
  StreamSpec S = streamSpec(Workload);
  S.Objects = 24;
  S.ViolatingObjects = 3;
  S.WarmEventsPerObject = 64;
  S.ChunkEvents = 2048;
  if (S.StragglerChance > 0)
    S.StragglerChance = 1.0 / 40;
  return S;
}

/// Replays each object's projection against a fresh sequential model at
/// the linearization points the generator recorded: every response takes
/// effect where it is emitted.
void testStreamReplay(const char *Workload) {
  StreamSpec Spec = smallStream(Workload);
  StreamGen Gen(Spec, 7);
  std::map<ObjectId, std::vector<StreamEvent>> ByObject;
  for (unsigned I = 0; I != 40000; ++I) {
    StreamEvent E = Gen.next();
    ByObject[E.Object].push_back(E);
  }
  StreamEvent E;
  while (Gen.nextClosing(E))
    ByObject[E.Object].push_back(E);
  const bool Slin = Spec.Kind == StreamKind::SlinConsensus;
  std::size_t Violations = 0, Checked = 0;
  for (const auto &[Obj, Events] : ByObject) {
    std::unique_ptr<AdtState> Model = Gen.adt().makeState();
    if (Slin)
      Model->apply(cons::propose(Gen.switchValue(Obj)));
    std::map<ClientId, Input> Open;
    std::set<ClientId> Entered;
    Trace Prefix;
    bool Violated = false;
    for (const StreamEvent &Ev : Events) {
      const Action &A = Ev.A;
      if (!Violated && Prefix.size() < 40)
        Prefix.push_back(A);
      if (isRespond(A)) {
        CHECK(Open.count(A.Client) && Open[A.Client] == A.In,
              "response without its invocation on object " +
                  std::to_string(Obj));
        Open.erase(A.Client);
        Output Want = Model->apply(A.In);
        if (Ev.Violation) {
          ++Violations;
          Violated = true;
          CHECK(A.Out.Val == ImpossibleValue && Want.Val != ImpossibleValue,
                "violation output");
          CHECK(Gen.violated(Obj), "violation on a clean object");
        } else {
          CHECK(A.Out == Want, "output differs from the sequential model on "
                               "object " + std::to_string(Obj));
        }
        continue;
      }
      CHECK(!Open.count(A.Client), "client invoked twice");
      Open[A.Client] = A.In;
      if (Slin) {
        bool First = Entered.insert(A.Client).second;
        CHECK(First == isSwitch(A), "a backup-phase client enters by switch");
        if (isSwitch(A))
          CHECK(A.Sv.Val == Gen.switchValue(Obj) && A.Phase == 2,
                "switch carries the phase's value");
      }
    }
    // A violating object goes quiet at its violation, open operations and
    // all; every other object is closed out.
    CHECK(Open.empty() || Violated, "the closing tail left an operation open");
    CHECK(Violated == Gen.violated(Obj), "violation bookkeeping");
    // Independent oracles on a short prefix of the projection.
    if (Checked++ < 8) {
      Verdict Want = Violated ? Verdict::No : Verdict::Yes;
      Verdict Got =
          Slin ? checkSlin(Prefix, Gen.signature(), Gen.adt(), Gen.relation())
                     .Outcome
               : checkLinearizableClassical(Prefix, Gen.adt()).Outcome;
      CHECK(Got == Want, "oracle verdict on object " + std::to_string(Obj));
    }
  }
  CHECK(Violations == Gen.violatedObjects() && Violations > 0,
        "every violator violates once");
  if (Slin)
    CHECK(Gen.excursions() > 0, "stragglers were injected");
}

/// Every output any state reachable within \p Depth steps produces on
/// \p Alphabet; states deduplicated by their canonical serialization.
std::set<std::int64_t> reachableOutputs(const Adt &Type,
                                        const std::vector<Input> &Alphabet,
                                        const std::vector<Input> &Prefix,
                                        unsigned Depth) {
  std::set<std::int64_t> Outputs;
  std::set<std::vector<std::int64_t>> Seen;
  std::vector<std::unique_ptr<AdtState>> Frontier;
  Frontier.push_back(Type.makeState());
  for (const Input &In : Prefix)
    Frontier.back()->apply(In);
  for (unsigned D = 0; D != Depth && !Frontier.empty(); ++D) {
    std::vector<std::unique_ptr<AdtState>> Next;
    for (const auto &S : Frontier)
      for (const Input &In : Alphabet) {
        std::unique_ptr<AdtState> C = S->clone();
        Outputs.insert(C->apply(In).Val);
        std::vector<std::int64_t> Key;
        C->serializeCanonical(Key);
        if (Seen.insert(Key).second)
          Next.push_back(std::move(C));
      }
    Frontier = std::move(Next);
  }
  return Outputs;
}

void testViolationsImpossible() {
  std::vector<Input> KvAlphabet;
  for (std::int64_t K = 0; K != 4; ++K) {
    KvAlphabet.push_back(kv::get(K));
    KvAlphabet.push_back(kv::del(K));
    for (std::int64_t V = 1; V <= MaxValue; ++V)
      KvAlphabet.push_back(kv::put(K, V));
  }
  KvStoreAdt Kv;
  CHECK(!reachableOutputs(Kv, KvAlphabet, {}, 6).count(ImpossibleValue),
        "a key-value state produces the injected output");
  ConsensusAdt Cons;
  std::vector<Input> Proposals;
  for (std::int64_t V = 1; V <= MaxValue + 2; ++V)
    Proposals.push_back(cons::proposeBy(V, 3));
  for (std::int64_t Sv = 1; Sv <= MaxValue; ++Sv) {
    auto Outs = reachableOutputs(Cons, Proposals, {cons::propose(Sv)}, 4);
    CHECK(Outs == std::set<std::int64_t>{Sv},
          "a backup phase decides only its switch value");
  }
  RegisterAdt Reg;
  CHECK(!reachableOutputs(Reg,
                          {reg::read(), reg::write(1), reg::write(2),
                           reg::write(3), reg::write(4)},
                          {}, 6)
             .count(ImpossibleValue),
        "a register state produces the injected output");
  QueueAdt Q;
  CHECK(!reachableOutputs(Q,
                          {queue::enq(1), queue::enq(2), queue::enq(3),
                           queue::enq(4), queue::deq()},
                          {}, 7)
             .count(ImpossibleValue),
        "a queue state produces the injected output");
  // The corpus's violating copies differ from their positive trace in
  // exactly one output, set to that value.
  CorpusSpec Spec;
  Spec.LinPerAdt = 6;
  Spec.SlinWalks = 6;
  Corpus Cp = makeCorpus(Spec, 3);
  std::size_t Bad = 0;
  for (const CorpusGroup &G : Cp.Groups)
    for (const CorpusBatch &B : G.Batches)
      for (std::size_t I = 0; I != B.Traces.size(); ++I) {
        std::size_t Impossible = 0;
        for (const Action &A : B.Traces[I])
          Impossible += isRespond(A) && A.Out.Val == ImpossibleValue;
        CHECK(Impossible == (B.Families[I] == Family::LinNo ? 1u : 0u),
              "injected outputs per trace");
        Bad += B.Families[I] == Family::LinNo;
      }
  CHECK(Bad == 3 * Spec.LinPerAdt, "one violating copy per positive trace");
}

/// The slin walks are speculatively linearizable by construction, aborts
/// included (a walk generator bug would show here before the benchmark).
void testSlinWalks() {
  Rng R(11);
  ConsensusAdt Cons;
  ConsensusInitRelation Rel;
  PhaseSignature Sig(1, 2);
  unsigned Aborting = 0;
  for (unsigned I = 0; I != 200; ++I) {
    Trace T = genSlinWalk(R, 6, 3, 0.6);
    for (const Action &A : T)
      if (isSwitch(A)) {
        ++Aborting;
        break;
      }
    SlinVerdict V = checkSlin(T, Sig, Cons, Rel);
    CHECK(V.Outcome == Verdict::Yes, "walk " + std::to_string(I) + ": " +
                                         V.Reason);
  }
  CHECK(Aborting > 50, "walks abort");
}

void testWorkloadsSmall() {
  RunOptions Opts;
  Opts.Seconds = 0.4;
  for (const char *W : {"stream-lin-wide", "stream-slin-stragglers"})
    for (bool Trace : {false, true}) {
      Opts.Workload = W;
      Opts.Trace = Trace;
      RunResult R = runStream(Opts, smallStream(W));
      CHECK(R.Correct, std::string(W) + (Trace ? " traced" : ""));
      CHECK(R.Attempted > 0 && R.Failed == 0, "accounting");
    }
  CorpusSpec Spec;
  Spec.LinPerAdt = 12;
  Spec.SlinWalks = 24;
  Spec.BatchTraces = 8;
  for (bool Trace : {false, true}) {
    Opts.Workload = "corpus-batch";
    Opts.Trace = Trace;
    RunResult R = runCorpus(Opts, Spec);
    CHECK(R.Correct, std::string("corpus-batch") + (Trace ? " traced" : ""));
    CHECK(R.Attempted > 0 && R.Failed == 0, "accounting");
  }
  // The full metric set of each mode, by name.
  Opts.Workload = "stream-slin-stragglers";
  Opts.Trace = false;
  Opts.Seconds = 0.2;
  RunResult R = runWorkload(Opts);
  CHECK(R.Metrics.size() == endToEndMetrics().size(), "end-to-end set");
  for (const Metric &M : R.Metrics)
    CHECK(M.Value > 0, "end-to-end metric " + M.Name + " reads 0");
}

} // namespace

int main() {
  testStreamReplay("stream-lin-wide");
  testStreamReplay("stream-slin-stragglers");
  testViolationsImpossible();
  testSlinWalks();
  testWorkloadsSmall();
  if (Failures) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", Failures);
    return 1;
  }
  std::printf("slinbench self-tests passed\n");
  return 0;
}

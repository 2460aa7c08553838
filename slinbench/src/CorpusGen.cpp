//===- slinbench/src/CorpusGen.cpp ----------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "CorpusGen.h"
#include "StreamGen.h"

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "adt/Queue.h"
#include "adt/Register.h"
#include "trace/Gen.h"

#include <stdexcept>

using namespace slin;
using namespace slinbench;

CorpusSpec slinbench::corpusSpec(const std::string &Workload) {
  if (Workload != "corpus-batch")
    throw std::invalid_argument("unknown corpus workload: " + Workload);
  return CorpusSpec();
}

const char *slinbench::familyName(Family F) {
  switch (F) {
  case Family::LinYes:
    return "lin_yes";
  case Family::LinNo:
    return "lin_no";
  case Family::Slin:
    return "slin";
  }
  return "?";
}

bool slinbench::injectImpossibleOutput(Trace &T, Rng &R) {
  std::vector<std::size_t> Responses;
  for (std::size_t I = 0; I != T.size(); ++I)
    if (isRespond(T[I]))
      Responses.push_back(I);
  if (Responses.empty())
    return false;
  T[Responses[R.nextBounded(Responses.size())]].Out = Output{ImpossibleValue};
  return true;
}

Trace slinbench::genSlinWalk(Rng &R, unsigned Clients, unsigned OpsPerClient,
                             double AbortChance) {
  struct Client {
    unsigned Left = 0;
    bool Pending = false;
    Input In;
  };
  std::vector<Client> Cs(Clients);
  for (Client &C : Cs)
    C.Left = OpsPerClient;
  Trace T;
  bool HaveWinner = false, Aborting = false;
  bool WillAbort = R.nextBool(AbortChance);
  std::int64_t Winner = 0, Sv = 0;
  for (;;) {
    std::vector<unsigned> Movable;
    bool AnyPending = false;
    for (unsigned C = 0; C != Clients; ++C) {
      AnyPending = AnyPending || Cs[C].Pending;
      if (Cs[C].Pending || (!Aborting && Cs[C].Left))
        Movable.push_back(C);
    }
    if (Movable.empty())
      return T;
    if (!Aborting && WillAbort && AnyPending && R.nextBool(0.08)) {
      // The phase gives up: from here on every pending client switches
      // out, carrying the decided value or, before any decision, one of
      // the proposals in flight.
      Aborting = true;
      std::vector<unsigned> Pending;
      for (unsigned C = 0; C != Clients; ++C)
        if (Cs[C].Pending)
          Pending.push_back(C);
      Sv = HaveWinner ? Winner
                      : Cs[Pending[R.nextBounded(Pending.size())]].In.A;
      continue;
    }
    unsigned C = Movable[R.nextBounded(Movable.size())];
    Client &Cl = Cs[C];
    if (!Cl.Pending) {
      Cl.In = cons::proposeBy(R.nextInRange(1, 4), C);
      Cl.Pending = true;
      --Cl.Left;
      T.push_back(makeInvoke(C, 1, Cl.In));
    } else if (Aborting) {
      Cl.Pending = false;
      Cl.Left = 0;
      T.push_back(makeSwitch(C, 2, Cl.In, SwitchValue{Sv}));
    } else {
      if (!HaveWinner) {
        HaveWinner = true;
        Winner = Cl.In.A;
      }
      Cl.Pending = false;
      T.push_back(makeRespond(C, 1, Cl.In, cons::decide(Winner)));
    }
  }
}

namespace {

/// Cuts \p Traces (with their families) into batches of \p Size, the
/// positive and violating copies shuffled together.
void addBatches(CorpusGroup &G, std::vector<Trace> Traces,
                std::vector<Family> Families, unsigned Size, Rng &R) {
  for (std::size_t I = Traces.size(); I > 1; --I) {
    std::size_t J = R.nextBounded(I);
    std::swap(Traces[I - 1], Traces[J]);
    std::swap(Families[I - 1], Families[J]);
  }
  for (std::size_t I = 0; I < Traces.size(); I += Size) {
    CorpusBatch B;
    for (std::size_t K = I; K < Traces.size() && K < I + Size; ++K) {
      B.Traces.push_back(std::move(Traces[K]));
      B.Families.push_back(Families[K]);
    }
    G.Batches.push_back(std::move(B));
  }
}

} // namespace

Corpus slinbench::makeCorpus(const CorpusSpec &Spec, std::uint64_t Seed) {
  Corpus Cp(Seed);
  for (const char *Name : {"register", "queue", "kvstore", "consensus"}) {
    CorpusGroup G;
    G.Name = Name;
    std::string N = Name;
    if (N == "register")
      G.Type = std::make_unique<RegisterAdt>();
    else if (N == "queue")
      G.Type = std::make_unique<QueueAdt>();
    else if (N == "kvstore")
      G.Type = std::make_unique<KvStoreAdt>();
    else
      G.Type = std::make_unique<ConsensusAdt>();
    G.Slin = N == "consensus";
    Cp.Groups.push_back(std::move(G));
  }
  nextSegment(Cp, Spec);
  return Cp;
}

void slinbench::nextSegment(Corpus &Cp, const CorpusSpec &Spec) {
  Rng &R = Cp.R;
  auto FillLin = [&](CorpusGroup &G, std::vector<Input> Alphabet,
                     unsigned Clients, unsigned Ops) {
    GenOptions Gen;
    Gen.NumClients = Clients;
    Gen.NumOps = Ops;
    Gen.Alphabet = std::move(Alphabet);
    Gen.PendingFraction = Spec.PendingFraction;
    std::vector<Trace> Traces;
    std::vector<Family> Families;
    for (unsigned I = 0; I != Spec.LinPerAdt; ++I) {
      Trace T = genLinearizableTrace(*G.Type, Gen, R);
      Trace Bad = T;
      Traces.push_back(std::move(T));
      Families.push_back(Family::LinYes);
      if (injectImpossibleOutput(Bad, R)) {
        Traces.push_back(std::move(Bad));
        Families.push_back(Family::LinNo);
      }
    }
    addBatches(G, std::move(Traces), std::move(Families), Spec.BatchTraces, R);
  };
  for (CorpusGroup &G : Cp.Groups)
    G.Batches.clear();
  FillLin(Cp.Groups[0],
          {reg::read(), reg::write(1), reg::write(2), reg::write(3),
           reg::write(4)},
          Spec.Clients, Spec.Ops);
  FillLin(Cp.Groups[1],
          {queue::enq(1), queue::enq(2), queue::enq(3), queue::enq(4),
           queue::deq(), queue::deq()},
          Spec.QueueClients, Spec.QueueOps);
  FillLin(Cp.Groups[2],
          {kv::get(0), kv::get(1), kv::get(2), kv::put(0, 1), kv::put(1, 2),
           kv::put(2, 3), kv::put(0, 4), kv::del(1)},
          Spec.Clients, Spec.Ops);
  std::vector<Trace> Walks;
  for (unsigned I = 0; I != Spec.SlinWalks; ++I)
    Walks.push_back(genSlinWalk(R, Spec.WalkClients, Spec.WalkOpsPerClient,
                                Spec.WalkAbortChance));
  std::vector<Family> Families(Walks.size(), Family::Slin);
  addBatches(Cp.Groups[3], std::move(Walks), std::move(Families),
             Spec.BatchTraces, R);

  Cp.EventsPerPass = Cp.TracesPerPass = 0;
  for (const CorpusGroup &G : Cp.Groups)
    for (const CorpusBatch &B : G.Batches)
      for (const Trace &T : B.Traces) {
        Cp.EventsPerPass += T.size();
        ++Cp.TracesPerPass;
      }
}

//===- slinbench/src/StreamGen.cpp ----------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "StreamGen.h"

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "engine/Incremental.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

using namespace slin;
using namespace slinbench;

StreamSpec slinbench::streamSpec(const std::string &Workload) {
  StreamSpec S;
  if (Workload == "stream-lin-wide") {
    S.Kind = StreamKind::LinKv;
    S.Objects = 1024;
    S.ClientsPerObject = 8;
    S.ViolatingObjects = 4;
    S.StragglerChance = 0;
    S.WarmEventsPerObject = 256;
    S.OfferedRate = 20000;
    return S;
  }
  if (Workload == "stream-slin-stragglers") {
    S.Kind = StreamKind::SlinConsensus;
    S.Objects = 64;
    S.ClientsPerObject = 8;
    S.ViolatingObjects = 2;
    S.StragglerChance = 1.0 / 100;
    S.WarmEventsPerObject = 2048;
    S.OfferedRate = 150000;
    return S;
  }
  throw std::invalid_argument("unknown stream workload: " + Workload);
}

namespace {

struct ClientState {
  bool Entered = false; ///< Slin: switched into the backup phase.
  bool Open = false;
  Input In;
  std::uint64_t InvokedAt = 0; ///< Object completions at the invocation.
};

} // namespace

struct StreamGen::ObjectState {
  ObjectId Id = 0;
  unsigned Index = 0;
  std::unique_ptr<AdtState> Model;
  std::vector<ClientState> Clients;
  std::uint64_t Completions = 0;
  /// Key-value: the object's first invocations walk the whole input
  /// alphabet, so the warm-up prefix takes the shard past every first-use
  /// growth (interner, availability stride) before measurement.
  unsigned AlphabetCursor = 0;
  int Straggler = -1;           ///< Local client holding the straggler.
  std::uint64_t StragglerTarget = 0; ///< Completion count it waits for.
  std::uint64_t NextStragglerAt = 0;
  std::int64_t SwitchValue = 0; ///< Slin: the backup phase's value.
  bool Violator = false;
  bool Violated = false;
  bool Seen = false;
  std::size_t FirstSeenRank = 0;
};

StreamGen::StreamGen(const StreamSpec &Spec, std::uint64_t Seed)
    : Spec(Spec), R(Seed ^ 0x51EB0C4ULL) {
  if (Spec.Kind == StreamKind::LinKv) {
    Type = std::make_unique<KvStoreAdt>();
  } else {
    Type = std::make_unique<ConsensusAdt>();
    Sig = PhaseSignature(2, 3);
    Rel = std::make_unique<ConsensusInitRelation>();
  }
  // Sparse object ids, as a deployment would assign them.
  std::unordered_set<ObjectId> Used;
  for (unsigned K = 0; K != Spec.Objects; ++K) {
    auto O = std::make_unique<ObjectState>();
    do
      O->Id = static_cast<ObjectId>(R.nextBounded(MaxObjectId));
    while (!Used.insert(O->Id).second);
    O->Index = K;
    O->Model = Type->makeState();
    O->Clients.resize(Spec.ClientsPerObject);
    if (Spec.Kind == StreamKind::SlinConsensus) {
      O->SwitchValue = R.nextInRange(1, MaxValue);
      // The sequential model starts from the canonical init history.
      O->Model->apply(cons::propose(O->SwitchValue));
    }
    Objects.push_back(std::move(O));
    Active.push_back(K);
  }
  for (unsigned K = 0; K != Spec.ViolatingObjects && K != Spec.Objects; ++K) {
    unsigned Pick;
    do
      Pick = static_cast<unsigned>(R.nextBounded(Spec.Objects));
    while (Objects[Pick]->Violator);
    Objects[Pick]->Violator = true;
  }
}

StreamGen::~StreamGen() = default;

StreamEvent StreamGen::next() {
  if (Active.empty())
    throw std::logic_error("every object has gone quiet");
  std::size_t Slot = R.nextBounded(Active.size());
  ObjectState &O = *Objects[Active[Slot]];
  StreamEvent E = step(O, /*Closing=*/false);
  if (O.Violated) {
    // A violating object goes quiet after its violation: a shard holding a
    // No never retires, so feeding it further would only grow its window.
    Active[Slot] = Active.back();
    Active.pop_back();
  }
  return E;
}

bool StreamGen::nextClosing(StreamEvent &E) {
  while (CloseCursor < Active.size()) {
    ObjectState &O = *Objects[Active[CloseCursor]];
    bool AnyOpen = false;
    for (const ClientState &C : O.Clients)
      AnyOpen = AnyOpen || C.Open;
    if (!AnyOpen) {
      ++CloseCursor;
      continue;
    }
    E = step(O, /*Closing=*/true);
    return true;
  }
  return false;
}

StreamEvent StreamGen::step(ObjectState &O, bool Closing) {
  if (!O.Seen) {
    O.Seen = true;
    O.FirstSeenRank = Seen++;
  }
  ++Events;
  // A straggler that reached its target responds now.
  if (O.Straggler >= 0 && O.Completions >= O.StragglerTarget)
    return respond(O, static_cast<unsigned>(O.Straggler));
  // An ordinary operation at its lifetime cap responds now (oldest first).
  int Oldest = -1;
  unsigned OpenOrdinary = 0, Idle = 0;
  for (unsigned C = 0; C != O.Clients.size(); ++C) {
    const ClientState &S = O.Clients[C];
    if (!S.Open) {
      ++Idle;
      continue;
    }
    if (static_cast<int>(C) == O.Straggler)
      continue;
    ++OpenOrdinary;
    if (Oldest < 0 || S.InvokedAt < O.Clients[Oldest].InvokedAt)
      Oldest = static_cast<int>(C);
  }
  if (Oldest >= 0 &&
      O.Completions - O.Clients[Oldest].InvokedAt >= Spec.LifetimeCap)
    return respond(O, static_cast<unsigned>(Oldest));
  // Closing: no new work once the straggler (if any) is gone.
  bool MayInvoke = Idle != 0 && (!Closing || O.Straggler >= 0);
  if (MayInvoke && (OpenOrdinary == 0 || R.nextBool(0.5))) {
    // Unentered clients first (slin: every client enters by a switch).
    for (unsigned C = 0; C != O.Clients.size(); ++C)
      if (!O.Clients[C].Open && !O.Clients[C].Entered &&
          Spec.Kind == StreamKind::SlinConsensus)
        return invoke(O, C);
    unsigned Pick = static_cast<unsigned>(R.nextBounded(Idle));
    for (unsigned C = 0; C != O.Clients.size(); ++C)
      if (!O.Clients[C].Open && Pick-- == 0)
        return invoke(O, C);
  }
  unsigned Pick = static_cast<unsigned>(R.nextBounded(OpenOrdinary));
  for (unsigned C = 0; C != O.Clients.size(); ++C)
    if (O.Clients[C].Open && static_cast<int>(C) != O.Straggler &&
        Pick-- == 0)
      return respond(O, C);
  throw std::logic_error("stream generator found no move");
}

StreamEvent StreamGen::invoke(ObjectState &O, unsigned C) {
  ClientState &S = O.Clients[C];
  ClientId Wire = O.Index * Spec.ClientsPerObject + C;
  StreamEvent E;
  E.Object = O.Id;
  if (Spec.Kind == StreamKind::LinKv) {
    constexpr unsigned Keys = 4, PerKey = 2 + MaxValue;
    if (O.AlphabetCursor < Keys * PerKey) {
      std::int64_t Key = O.AlphabetCursor / PerKey;
      unsigned Which = O.AlphabetCursor++ % PerKey;
      S.In = Which == 0   ? kv::get(Key)
             : Which == 1 ? kv::del(Key)
                          : kv::put(Key, static_cast<std::int64_t>(Which - 1));
    } else {
      std::int64_t Key = R.nextInRange(0, Keys - 1);
      std::uint64_t Roll = R.nextBounded(10);
      S.In = Roll < 5   ? kv::get(Key)
             : Roll < 9 ? kv::put(Key, R.nextInRange(1, MaxValue))
                        : kv::del(Key);
    }
    E.A = makeInvoke(Wire, 1, S.In);
  } else {
    // The object's first entrant proposes the largest value, so the
    // relation's fresh bound is fixed from the first event on.
    bool First = true;
    for (const ClientState &Other : O.Clients)
      First = First && !Other.Entered;
    std::int64_t V = First ? MaxValue : R.nextInRange(1, MaxValue);
    S.In = cons::proposeBy(V, Wire);
    if (!S.Entered) {
      S.Entered = true;
      E.A = makeSwitch(Wire, 2, S.In, SwitchValue{O.SwitchValue});
    } else {
      E.A = makeInvoke(Wire, 2, S.In);
    }
  }
  S.Open = true;
  S.InvokedAt = O.Completions;
  if (Spec.StragglerChance > 0 && O.Straggler < 0 && !O.Violator &&
      O.Completions >= O.NextStragglerAt && R.nextBool(Spec.StragglerChance)) {
    O.Straggler = static_cast<int>(C);
    O.StragglerTarget =
        O.Completions + IncrementalWindowLimit +
        static_cast<std::uint64_t>(
            R.nextInRange(Spec.StragglerOverMin, Spec.StragglerOverMax));
  }
  if (O.Straggler >= 0)
    E.Check = EventCheck::NotNo;
  return E;
}

StreamEvent StreamGen::respond(ObjectState &O, unsigned C) {
  ClientState &S = O.Clients[C];
  ClientId Wire = O.Index * Spec.ClientsPerObject + C;
  StreamEvent E;
  E.Object = O.Id;
  // The operation takes effect here, in response order.
  Output Out = O.Model->apply(S.In);
  if (O.Violator && !O.Violated) {
    Out = Output{ImpossibleValue};
    O.Violated = true;
    E.Violation = true;
    E.Check = EventCheck::No;
  }
  E.A = makeRespond(Wire, Spec.Kind == StreamKind::LinKv ? 1 : 2, S.In, Out);
  S.Open = false;
  ++O.Completions;
  ++Responses;
  if (static_cast<int>(C) == O.Straggler) {
    O.Straggler = -1;
    O.NextStragglerAt = O.Completions + Spec.StragglerGap;
    ++Excursions;
    E.Check = EventCheck::Yes;
  } else if (O.Straggler >= 0) {
    E.Check = EventCheck::NotNo;
  }
  return E;
}

StreamGen::ObjectState &StreamGen::byId(ObjectId Obj) const {
  for (const auto &O : Objects)
    if (O->Id == Obj)
      return *O;
  throw std::invalid_argument("unknown object id");
}

bool StreamGen::violated(ObjectId Obj) const { return byId(Obj).Violated; }

std::size_t StreamGen::violatedObjects() const {
  std::size_t N = 0;
  for (const auto &O : Objects)
    N += O->Violated;
  return N;
}

ObjectId StreamGen::expectedCulprit() const {
  const ObjectState *Best = nullptr;
  for (const auto &O : Objects)
    if (O->Violated && (!Best || O->FirstSeenRank < Best->FirstSeenRank))
      Best = O.get();
  return Best ? Best->Id : 0;
}

std::vector<ObjectId> StreamGen::objectIds() const {
  std::vector<ObjectId> Ids;
  for (const auto &O : Objects)
    Ids.push_back(O->Id);
  return Ids;
}

std::int64_t StreamGen::switchValue(ObjectId Obj) const {
  return byId(Obj).SwitchValue;
}

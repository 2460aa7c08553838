//===- slinbench/src/StreamGen.h - Seeded multi-object streams --*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generator behind both stream workloads. It simulates a replicated
/// service: every object's operations take effect in the order their
/// responses are emitted (SMR-shaped), the generator applies each one to
/// its own sequential model at that instant, and objects are interleaved
/// per event at random, as in a merged log. The expectations every check
/// compares against are fixed here, apart from the program under test:
/// which objects violate (their first response carries an output no state
/// produces), where stragglers pin a window, and which object the
/// composed verdict must blame.
///
//===----------------------------------------------------------------------===//

#ifndef SLINBENCH_STREAMGEN_H
#define SLINBENCH_STREAMGEN_H

#include "adt/Adt.h"
#include "service/Wire.h"
#include "slin/InitRelation.h"
#include "support/Rng.h"
#include "trace/Signature.h"

#include <memory>
#include <string>
#include <vector>

namespace slinbench {

using slin::Action;
using slin::ObjectId;

enum class StreamKind : std::uint8_t {
  LinKv,         ///< Lin-mode service over key-value objects.
  SlinConsensus, ///< Slin-mode service over consensus objects in (2, 3).
};

/// One stream workload's shape. The defaults of each workload live in
/// streamSpec(); tests shrink them.
struct StreamSpec {
  StreamKind Kind = StreamKind::LinKv;
  unsigned Objects = 1024;
  unsigned ClientsPerObject = 8;
  /// An ordinary operation responds within this many completions of its
  /// object, so only stragglers ever pin a 64-slot window.
  unsigned LifetimeCap = 24;
  unsigned ViolatingObjects = 4;
  /// Chance that an eligible invocation becomes a straggler.
  double StragglerChance = 0;
  /// A straggler stays open until this many completions past the 64-slot
  /// window have happened on its object (drawn uniformly per straggler).
  unsigned StragglerOverMin = 8, StragglerOverMax = 14;
  /// Completions after a straggler responds before the next may start.
  unsigned StragglerGap = 128;
  /// Warm-up events per object streamed before any measurement.
  unsigned WarmEventsPerObject = 256;
  /// Open-loop offered rate, events per second.
  double OfferedRate = 250000;
  /// Events rendered per chunk (the benchmark's bounded stream buffer).
  std::size_t ChunkEvents = 16384;
};

/// The two stream workloads' specs ("stream-lin-wide",
/// "stream-slin-stragglers").
StreamSpec streamSpec(const std::string &Workload);

/// What the benchmark checks right after an event is applied.
enum class EventCheck : std::uint8_t {
  None,
  NotNo, ///< A straggler is open on this object: grade is never No.
  Yes,   ///< A straggler just responded: the shard is back at Yes.
  No,    ///< The object's injected violation: the shard is No.
};

struct StreamEvent {
  ObjectId Object = 0;
  Action A;
  EventCheck Check = EventCheck::None;
  /// This response was given the output no state produces.
  bool Violation = false;
};

/// Output value no state of either ADT produces on these alphabets: every
/// written, proposed or decided value is drawn from 1..MaxValue.
inline constexpr std::int64_t ImpossibleValue = 1000003;
inline constexpr std::int64_t MaxValue = 8;

class StreamGen {
public:
  StreamGen(const StreamSpec &Spec, std::uint64_t Seed);
  ~StreamGen();

  const StreamSpec &spec() const { return Spec; }
  const slin::Adt &adt() const { return *Type; }
  /// Slin mode only.
  const slin::PhaseSignature &signature() const { return Sig; }
  const slin::InitRelation &relation() const { return *Rel; }

  /// The next event of the merged log.
  StreamEvent next();

  /// The closing tail: finishes every open operation (stragglers after
  /// their excursion) so every clean object can be expected at Yes.
  /// Returns false once nothing is open.
  bool nextClosing(StreamEvent &E);

  std::uint64_t events() const { return Events; }
  std::uint64_t responses() const { return Responses; }
  /// Stragglers whose excursion has completed (each pinned the window
  /// exactly once).
  std::uint64_t excursions() const { return Excursions; }
  /// Whether \p Obj has emitted its injected violation.
  bool violated(ObjectId Obj) const;
  std::size_t violatedObjects() const;
  /// The culprit the composed verdict must name: the violated object seen
  /// first (shards are indexed in first-seen order). Valid iff
  /// violatedObjects() > 0.
  ObjectId expectedCulprit() const;
  /// Every object id the stream may use.
  std::vector<ObjectId> objectIds() const;
  /// The switch value of \p Obj's backup phase (slin mode).
  std::int64_t switchValue(ObjectId Obj) const;

private:
  struct ObjectState;
  StreamEvent step(ObjectState &O, bool Closing);
  StreamEvent invoke(ObjectState &O, unsigned C);
  StreamEvent respond(ObjectState &O, unsigned C);
  ObjectState &byId(ObjectId Obj) const;

  StreamSpec Spec;
  std::unique_ptr<slin::Adt> Type;
  slin::PhaseSignature Sig;
  std::unique_ptr<slin::InitRelation> Rel;
  slin::Rng R;
  std::vector<std::unique_ptr<ObjectState>> Objects;
  std::vector<unsigned> Active; ///< Objects still emitting events.
  std::size_t CloseCursor = 0;
  std::uint64_t Events = 0;
  std::uint64_t Responses = 0;
  std::uint64_t Excursions = 0;
  std::size_t Seen = 0;
};

} // namespace slinbench

#endif // SLINBENCH_STREAMGEN_H

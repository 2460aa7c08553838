//===- slinbench/src/Spans.cpp --------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdio>

using namespace slinbench;

SpanRecorder::SpanRecorder(std::vector<std::string> Names,
                           std::size_t RingCapacity)
    : Names(std::move(Names)), Self(this->Names.size()),
      Total(this->Names.size()), Count(this->Names.size()),
      Ring(RingCapacity) {
  Current.reserve(64);
}

void SpanRecorder::endEvent() {
  // Self time: duration minus the children's durations. Children are
  // recorded after their parent, so one backward pass settles them.
  thread_local std::vector<std::int64_t> ChildNs;
  ChildNs.assign(Current.size(), 0);
  for (std::size_t I = Current.size(); I-- > 0;) {
    const Span &S = Current[I];
    std::int64_t Dur = S.End - S.Start;
    Self[S.Name] += static_cast<double>(Dur - ChildNs[I]);
    Total[S.Name] += static_cast<double>(Dur);
    ++Count[S.Name];
    if (S.Parent >= 0)
      ChildNs[static_cast<std::size_t>(S.Parent)] += Dur;
  }
  if (Ring.empty())
    return;
  for (const Span &S : Current) {
    Ring[RingNext] = S;
    if (++RingNext == Ring.size()) {
      RingNext = 0;
      RingFull = true;
    }
  }
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "event\tspan\tparent\tname\tstart_ns\tend_ns\n");
  std::size_t N = RingFull ? Ring.size() : RingNext;
  std::size_t First = RingFull ? RingNext : 0;
  // Span indices restart per event; recover them from the event runs.
  std::uint64_t PrevEvent = ~0ull;
  std::int32_t Index = 0;
  for (std::size_t K = 0; K != N; ++K) {
    const Span &S = Ring[(First + K) % Ring.size()];
    Index = S.Event == PrevEvent ? Index + 1 : 0;
    PrevEvent = S.Event;
    std::fprintf(F, "%llu\t%d\t%d\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(S.Event), Index, S.Parent,
                 Names[S.Name].c_str(), static_cast<long long>(S.Start),
                 static_cast<long long>(S.End));
  }
  return std::fclose(F) == 0;
}

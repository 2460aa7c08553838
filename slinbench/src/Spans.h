//===- slinbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Spans are taken in the benchmark's own code
/// around each call into a public function of the program: name, start,
/// end, parent and the id of the event (or trace) they belong to. Each
/// event's spans are kept in memory until the event closes, when every
/// span's self time (its duration minus the part its children cover) is
/// folded into per-name totals; the most recent spans stay in a bounded
/// ring that is written out when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef SLINBENCH_SPANS_H
#define SLINBENCH_SPANS_H

#include "Common.h"

#include <cstdint>
#include <string>
#include <vector>

namespace slinbench {

struct Span {
  std::uint64_t Event = 0;
  std::int64_t Start = 0;
  std::int64_t End = 0;
  std::int32_t Parent = -1; ///< Index within the event's spans; -1: root.
  std::uint16_t Name = 0;
};

class SpanRecorder {
public:
  /// \p Names are the span names, indexed by the ids begin() takes.
  /// \p RingCapacity bounds the spans kept for the written-out file.
  SpanRecorder(std::vector<std::string> Names, std::size_t RingCapacity);

  void beginEvent(std::uint64_t Id) {
    CurrentEvent = Id;
    Current.clear();
  }
  /// Opens a span; returns its index within the current event.
  std::int32_t begin(std::uint16_t Name, std::int32_t Parent = -1) {
    Current.push_back({CurrentEvent, nowNs(), 0, Parent, Name});
    return static_cast<std::int32_t>(Current.size() - 1);
  }
  void end(std::int32_t Index) { Current[Index].End = nowNs(); }
  /// Closes the current event: derives self times from its spans.
  void endEvent();

  /// Summed self time and span count of \p Name over closed events.
  double selfNs(std::uint16_t Name) const { return Self[Name]; }
  double totalNs(std::uint16_t Name) const { return Total[Name]; }
  std::uint64_t count(std::uint16_t Name) const { return Count[Name]; }
  /// Duration of span \p Index of the current (or just closed) event.
  std::int64_t duration(std::int32_t Index) const {
    return Current[Index].End - Current[Index].Start;
  }

  /// Writes the ring (oldest first) as tab-separated lines: event, span
  /// index, parent, name, start, end. Returns false on an I/O error.
  bool write(const std::string &Path) const;

private:
  std::vector<std::string> Names;
  std::vector<Span> Current;
  std::uint64_t CurrentEvent = 0;
  std::vector<double> Self, Total;
  std::vector<std::uint64_t> Count;
  std::vector<Span> Ring;
  std::size_t RingNext = 0;
  bool RingFull = false;
};

} // namespace slinbench

#endif // SLINBENCH_SPANS_H

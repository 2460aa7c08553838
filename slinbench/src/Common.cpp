//===- slinbench/src/Common.cpp -------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/resource.h>
#include <time.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef SLINBENCH_COMPILER
#define SLINBENCH_COMPILER "unknown"
#endif
#ifndef SLINBENCH_FLAGS
#define SLINBENCH_FLAGS "unknown"
#endif

using namespace slinbench;

template <typename T> static double nearestRank(std::vector<T> &V, double P) {
  if (V.empty())
    return 0;
  std::size_t K = static_cast<std::size_t>(
      std::ceil(P * static_cast<double>(V.size())));
  K = K == 0 ? 0 : K - 1;
  K = std::min(K, V.size() - 1);
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(K),
                   V.end());
  return static_cast<double>(V[K]);
}

double slinbench::percentile(std::vector<double> &V, double P) {
  return nearestRank(V, P);
}

double slinbench::percentile(std::vector<float> &V, double P) {
  return nearestRank(V, P);
}

std::vector<std::size_t> slinbench::highest(const std::vector<double> &Score,
                                            std::size_t Count) {
  std::vector<std::size_t> Order(Score.size());
  for (std::size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](std::size_t A, std::size_t B) { return Score[A] > Score[B]; });
  Order.resize(std::min(Order.size(), Count));
  return Order;
}

static std::int64_t clockNs(clockid_t Clock) {
  timespec T{};
  clock_gettime(Clock, &T);
  return static_cast<std::int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

std::int64_t slinbench::threadCpuNs() {
  return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t slinbench::processCpuNs() {
  return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double slinbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

void RunResult::fail(std::string Why) {
  if (Errors.size() < 32)
    std::fprintf(stderr, "check failed: %s\n", Why.c_str());
  Correct = false;
  Errors.push_back(std::move(Why));
}

/// CPU brand string from cpuid (no file read needed).
static std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    while (!S.empty() && S.front() == ' ')
      S.erase(S.begin());
    return S;
  }
#endif
  return "unknown";
}

/// Escapes the characters JSON strings cannot hold verbatim.
static std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// A finite JSON number with every digit the double holds.
static std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void slinbench::printStamp(const RunOptions &Opts, const RunResult &R) {
  std::string Line = "{\"stamp\":{\"cpu\":";
  Line += jsonString(cpuModel());
  Line += ",\"nproc\":";
  Line += std::to_string(std::thread::hardware_concurrency());
  Line += ",\"compiler\":";
  Line += jsonString(SLINBENCH_COMPILER);
  Line += ",\"flags\":";
  Line += jsonString(SLINBENCH_FLAGS);
  Line += ",\"source\":";
  Line += jsonString(Opts.SourceId);
  Line += ",\"workload\":";
  Line += jsonString(Opts.Workload);
  Line += ",\"seed\":";
  Line += std::to_string(Opts.Seed);
  Line += ",\"seconds\":";
  Line += jsonNumber(Opts.Seconds);
  Line += ",\"trace\":";
  Line += Opts.Trace ? "1" : "0";
  Line += ",\"attempted\":";
  Line += std::to_string(R.Attempted);
  Line += ",\"failed\":";
  Line += std::to_string(R.Failed);
  Line += ",\"openloop_lag_p99_us\":";
  Line += jsonNumber(R.OpenLoopLagUs);
  for (const auto &[K, V] : R.Notes) {
    Line += ",";
    Line += jsonString(K);
    Line += ":";
    Line += jsonString(V);
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

void slinbench::printResult(const RunResult &R) {
  std::string Line = std::string("{\"correct\": ") +
                     (R.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : R.Metrics) {
    if (!First)
      Line += ", ";
    First = false;
    Line += jsonString(M.Name) + ": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

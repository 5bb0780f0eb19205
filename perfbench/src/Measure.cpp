//===- perfbench/src/Measure.cpp ------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <sys/resource.h>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point Epoch =
    std::chrono::steady_clock::now();

double seconds(const timeval &T) {
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
}

/// Small stable thread numbers for the viewer's rows.
int threadNumber() {
  static std::atomic<int> Next{1};
  thread_local int Mine = Next.fetch_add(1);
  return Mine;
}

/// Open spans of the calling thread, innermost last (parent lookup).
thread_local std::vector<int> OpenSpans;

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

} // namespace

double wallS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

double processCpuS() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return seconds(U.ru_utime) + seconds(U.ru_stime);
}

double threadCpuS() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

void Interval::close(RoundStats &R) const {
  R.ProfileS += wallS() - Wall0;
  R.CpuS += processCpuS() - Cpu0;
  R.LoadCpuS += threadCpuS() - Thread0;
}

int Spans::begin(const std::string &Name, std::uint64_t Run, int Parent) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.StartUs = wallS() * 1e6;
  S.Parent = Parent >= 0 ? Parent
                         : (OpenSpans.empty() ? -1 : OpenSpans.back());
  S.Run = Run;
  S.Tid = threadNumber();
  int Id;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Id = static_cast<int>(All.size());
    All.push_back(std::move(S));
  }
  OpenSpans.push_back(Id);
  return Id;
}

void Spans::end(int Id) {
  if (Id < 0)
    return;
  double Now = wallS() * 1e6;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    All[static_cast<std::size_t>(Id)].EndUs = Now;
  }
  auto It = std::find(OpenSpans.rbegin(), OpenSpans.rend(), Id);
  if (It != OpenSpans.rend())
    OpenSpans.erase(std::next(It).base());
}

void Spans::arg(int Id, const std::string &Key, double Value) {
  if (Id < 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  All[static_cast<std::size_t>(Id)].Args.emplace_back(Key, Value);
}

bool Spans::write(const std::string &Path,
                  const std::map<std::string, std::string> &Meta) const {
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"otherData\": {";
  bool First = true;
  for (const auto &[Key, Value] : Meta) {
    Out += First ? "" : ", ";
    First = false;
    appendJsonString(Out, Key);
    Out += ": ";
    appendJsonString(Out, Value);
  }
  Out += "},\n\"traceEvents\": [\n";
  std::lock_guard<std::mutex> Lock(Mu);
  char Buf[160];
  for (std::size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    Out += "{\"name\": ";
    appendJsonString(Out, S.Name);
    double End = S.EndUs < 0 ? S.StartUs : S.EndUs;
    std::snprintf(Buf, sizeof(Buf),
                  ", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                  "\"run\": %llu",
                  S.Tid, S.StartUs, End - S.StartUs, I, S.Parent,
                  static_cast<unsigned long long>(S.Run));
    Out += Buf;
    for (const auto &[Key, Value] : S.Args) {
      Out += ", ";
      appendJsonString(Out, Key);
      std::snprintf(Buf, sizeof(Buf), ": %.9g", Value);
      Out += Buf;
    }
    Out += I + 1 < All.size() ? "}},\n" : "}}\n";
  }
  Out += "]}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace perfbench

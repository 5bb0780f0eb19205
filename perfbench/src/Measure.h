//===- perfbench/src/Measure.h - Clocks, spans and round stats --*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring side of the end-to-end benchmark: wall and CPU clocks,
/// the per-round accumulator every workload fills, and the span recorder
/// behind the traced run. Spans are kept in memory and written once, at
/// the end, as a Chrome-trace JSON file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in the process.
double wallS();
/// User + system CPU of the whole process, dead threads included.
double processCpuS();
/// CPU of the calling thread.
double threadCpuS();
/// Peak resident set of the process so far, in MB.
double peakRssMb();

double median(std::vector<double> Values);

/// What one round of a workload measured. End-to-end fields come from
/// untraced rounds; Layer holds the per-layer sums of the same round.
struct RoundStats {
  double SetupS = 0;
  double ProfileS = 0;
  double CpuS = 0;
  /// CPU the load-generating threads (main thread, fleet clients) spent
  /// inside the profiled intervals; workers.cpu_s = CpuS - LoadCpuS.
  double LoadCpuS = 0;
  std::map<std::string, double> Layer;

  void add(const std::string &Key, double Value) { Layer[Key] += Value; }
};

/// One profiled interval on the calling thread: wall, process CPU and
/// the thread's own CPU, added to a RoundStats when it closes.
class Interval {
public:
  Interval() : Wall0(wallS()), Cpu0(processCpuS()), Thread0(threadCpuS()) {}
  /// Adds the interval to \p R's profiled phase.
  void close(RoundStats &R) const;

private:
  double Wall0;
  double Cpu0;
  double Thread0;
};

/// In-memory span recorder. Disabled recorders cost one branch per call.
class Spans {
public:
  explicit Spans(bool Enabled) : Enabled(Enabled) {}

  /// Toggled between rounds only, while no workload thread runs.
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span; \p Parent < 0 means the calling thread's innermost
  /// open span. Returns the span id (-1 when disabled).
  int begin(const std::string &Name, std::uint64_t Run, int Parent = -1);
  void end(int Id);
  /// Attaches a numeric argument shown in the viewer's detail pane.
  void arg(int Id, const std::string &Key, double Value);

  /// Writes every span as Chrome-trace JSON ("X" complete events) with
  /// \p Meta as the top-level otherData object.
  bool write(const std::string &Path,
             const std::map<std::string, std::string> &Meta) const;

  /// RAII scope over begin/end.
  class Scope {
  public:
    Scope(Spans &S, const std::string &Name, std::uint64_t Run,
          int Parent = -1)
        : S(S), Id(S.begin(Name, Run, Parent)) {}
    ~Scope() { S.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int id() const { return Id; }

  private:
    Spans &S;
    int Id;
  };

private:
  struct Span {
    std::string Name;
    double StartUs = 0;
    double EndUs = -1;
    int Parent = -1;
    std::uint64_t Run = 0;
    int Tid = 0;
    std::vector<std::pair<std::string, double>> Args;
  };

  bool Enabled;
  mutable std::mutex Mu;
  std::vector<Span> All;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H

//===- perfbench/src/Probe.h - Device-boundary and report probes -*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Probes the benchmark puts between the program's layers, all through
/// public hooks:
///  - DeviceProbe is a forwarding sim::TraceSink installed with
///    Device::setTraceSink in front of the backend's own sink. It always
///    tallies launches and records (the correctness checks compare the
///    tools' totals with them) and, in traced rounds only, times each
///    delivery into the record path and records a span per launch.
///  - ReportRecord is a ReportSink that keeps every report section as
///    key/value strings (and chosen sections' text) for the checks.
///  - SectionFilter forwards a report to another sink minus the named
///    sections (live reports without the capture tool's section, to
///    compare byte for byte with replayed ones).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include "Measure.h"

#include "sim/Trace.h"
#include "support/ReportSink.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

class DeviceProbe : public pasta::sim::TraceSink {
public:
  /// \p Trace non-null: time every hook and record one "sim.launch"
  /// span per launch.
  DeviceProbe(pasta::sim::TraceSink &Inner, Spans *Trace, std::uint64_t Run)
      : Inner(Inner), Trace(Trace), Run(Run) {}

  void onKernelBegin(const pasta::sim::LaunchInfo &Info) override;
  void onAccessBatch(const pasta::sim::LaunchInfo &Info,
                     const pasta::sim::MemAccessRecord *Records,
                     std::size_t Count) override;
  void onInstrMix(const pasta::sim::LaunchInfo &Info,
                  const pasta::sim::InstrMix &Mix) override;
  void onKernelEnd(const pasta::sim::LaunchInfo &Info,
                   const pasta::sim::TraceTimeBreakdown &Breakdown) override;

  std::uint64_t Launches = 0;
  std::uint64_t Batches = 0;
  std::uint64_t Records = 0;
  /// Sum of MemAccessRecord::Multiplicity: the real accesses the
  /// records stand for.
  std::uint64_t WeightedRecords = 0;
  /// Traced run only: seconds inside the inner sink's hooks, and the
  /// rest of each launch between its begin and end hooks (the
  /// simulator generating records).
  double BeginS = 0;
  double DeliverS = 0;
  double EndS = 0;
  double GenerateS = 0;

private:
  pasta::sim::TraceSink &Inner;
  Spans *Trace;
  std::uint64_t Run;
  int LaunchSpan = -1;
  double LaunchOpen = 0;
  double LaunchDeliver = 0;
};

class ReportRecord : public pasta::ReportSink {
public:
  struct Section {
    std::string Tool;
    std::map<std::string, std::string> Metrics;
    std::string Text;
  };

  /// Keeps the free text of the sections named in \p TextOf only.
  explicit ReportRecord(std::set<std::string> TextOf = {})
      : TextOf(std::move(TextOf)) {}

  void beginReport(const std::string &ToolName) override;
  void metric(const std::string &Key, std::uint64_t Value) override;
  void metric(const std::string &Key, double Value) override;
  void metric(const std::string &Key, const std::string &Value) override;
  void text(const std::string &Body) override;
  void endReport() override {}

  /// First section of \p Tool, null when absent.
  const Section *find(const std::string &Tool) const;
  /// Numeric metric of \p Tool's section; \p Fallback when absent.
  double number(const std::string &Tool, const std::string &Key,
                double Fallback = 0) const;

  std::vector<Section> Sections;

private:
  std::set<std::string> TextOf;
};

class SectionFilter : public pasta::ReportSink {
public:
  SectionFilter(pasta::ReportSink &Inner, std::set<std::string> Skip)
      : Inner(Inner), Skip(std::move(Skip)) {}

  void beginReport(const std::string &ToolName) override;
  void metric(const std::string &Key, std::uint64_t Value) override;
  void metric(const std::string &Key, double Value) override;
  void metric(const std::string &Key, const std::string &Value) override;
  void text(const std::string &Body) override;
  void endReport() override;
  void close() override { Inner.close(); }

private:
  pasta::ReportSink &Inner;
  std::set<std::string> Skip;
  bool Skipping = false;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_H

//===- perfbench/src/Probe.cpp --------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include "Measure.h"

#include <cstdio>
#include <cstdlib>

using namespace pasta;

namespace perfbench {

void DeviceProbe::onKernelBegin(const sim::LaunchInfo &Info) {
  ++Launches;
  if (!Trace) {
    Inner.onKernelBegin(Info);
    return;
  }
  LaunchSpan = Trace->begin("sim.launch", Run);
  double T0 = wallS();
  Inner.onKernelBegin(Info);
  LaunchOpen = wallS();
  BeginS += LaunchOpen - T0;
  LaunchDeliver = 0;
}

void DeviceProbe::onAccessBatch(const sim::LaunchInfo &Info,
                                const sim::MemAccessRecord *Records,
                                std::size_t Count) {
  ++Batches;
  this->Records += Count;
  for (std::size_t I = 0; I < Count; ++I)
    WeightedRecords += Records[I].Multiplicity;
  if (!Trace) {
    Inner.onAccessBatch(Info, Records, Count);
    return;
  }
  double T0 = wallS();
  Inner.onAccessBatch(Info, Records, Count);
  double Dt = wallS() - T0;
  DeliverS += Dt;
  LaunchDeliver += Dt;
}

void DeviceProbe::onInstrMix(const sim::LaunchInfo &Info,
                             const sim::InstrMix &Mix) {
  if (!Trace) {
    Inner.onInstrMix(Info, Mix);
    return;
  }
  double T0 = wallS();
  Inner.onInstrMix(Info, Mix);
  double Dt = wallS() - T0;
  DeliverS += Dt;
  LaunchDeliver += Dt;
}

void DeviceProbe::onKernelEnd(const sim::LaunchInfo &Info,
                              const sim::TraceTimeBreakdown &Breakdown) {
  if (!Trace) {
    Inner.onKernelEnd(Info, Breakdown);
    return;
  }
  double T0 = wallS();
  GenerateS += T0 - LaunchOpen - LaunchDeliver;
  Inner.onKernelEnd(Info, Breakdown);
  EndS += wallS() - T0;
  Trace->arg(LaunchSpan, "grid_id", static_cast<double>(Info.GridId));
  Trace->arg(LaunchSpan, "deliver_s", LaunchDeliver);
  Trace->end(LaunchSpan);
}

void ReportRecord::beginReport(const std::string &ToolName) {
  Sections.push_back(Section{ToolName, {}, {}});
}

void ReportRecord::metric(const std::string &Key, std::uint64_t Value) {
  Sections.back().Metrics[Key] = std::to_string(Value);
}

void ReportRecord::metric(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Sections.back().Metrics[Key] = Buf;
}

void ReportRecord::metric(const std::string &Key, const std::string &Value) {
  Sections.back().Metrics[Key] = Value;
}

void ReportRecord::text(const std::string &Body) {
  if (TextOf.count(Sections.back().Tool))
    Sections.back().Text += Body;
}

const ReportRecord::Section *ReportRecord::find(const std::string &Tool) const {
  for (const Section &S : Sections)
    if (S.Tool == Tool)
      return &S;
  return nullptr;
}

double ReportRecord::number(const std::string &Tool, const std::string &Key,
                            double Fallback) const {
  const Section *S = find(Tool);
  if (!S)
    return Fallback;
  auto It = S->Metrics.find(Key);
  return It == S->Metrics.end() ? Fallback
                                : std::strtod(It->second.c_str(), nullptr);
}

void SectionFilter::beginReport(const std::string &ToolName) {
  Skipping = Skip.count(ToolName) != 0;
  if (!Skipping)
    Inner.beginReport(ToolName);
}

void SectionFilter::metric(const std::string &Key, std::uint64_t Value) {
  if (!Skipping)
    Inner.metric(Key, Value);
}

void SectionFilter::metric(const std::string &Key, double Value) {
  if (!Skipping)
    Inner.metric(Key, Value);
}

void SectionFilter::metric(const std::string &Key, const std::string &Value) {
  if (!Skipping)
    Inner.metric(Key, Value);
}

void SectionFilter::text(const std::string &Body) {
  if (!Skipping)
    Inner.text(Body);
}

void SectionFilter::endReport() {
  if (!Skipping)
    Inner.endReport();
  Skipping = false;
}

} // namespace perfbench

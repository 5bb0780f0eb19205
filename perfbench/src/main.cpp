//===- perfbench/src/main.cpp - End-to-end benchmark main -----------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
///
/// Repeats the workload's round until S seconds are used and prints, as
/// the last stdout line, one JSON object: whether the outputs were
/// correct, the operations attempted and failed, and the metrics. With
/// --trace 0 the metrics are the end-to-end ones, medians over rounds.
/// With --trace 1 rounds alternate between untraced and traced; the
/// per-layer metrics are medians over the traced rounds, and the spans
/// are written as Chrome-trace JSON.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Metric {
  const char *Name;
  const char *Unit;
};

const Metric EndToEnd[] = {{"setup_s", "s"},
                           {"profile_s", "s"},
                           {"cpu_s", "s"},
                           {"peak_rss_mb", "MB"}};

/// Per-layer metrics; a workload that does not exercise a layer reports
/// 0 for it.
const Metric PerLayer[] = {
    {"dl.build_s", "s"},
    {"dl.kernels", "count"},
    {"session.build_s", "s"},
    {"session.run_s", "s"},
    {"session.finish_s", "s"},
    {"report.write_s", "s"},
    {"report.bytes", "bytes"},
    {"native.run_s", "s"},
    {"sim.generate_s", "s"},
    {"sim.records", "count"},
    {"sim.batches", "count"},
    {"records.begin_s", "s"},
    {"records.deliver_s", "s"},
    {"records.end_s", "s"},
    {"records.per_s", "1/s"},
    {"workers.cpu_s", "s"},
    {"pipeline.events_processed", "count"},
    {"pipeline.flush_count", "count"},
    {"pipeline.max_queue_depth", "count"},
    {"pipeline.queue_parks", "count"},
    {"pipeline.arena_hits", "count"},
    {"pipeline.arena_bytes", "bytes"},
    {"capture.bytes", "bytes"},
    {"replay.run_s", "s"},
    {"replay.events_per_s", "1/s"},
    {"fleet.client_run_s", "s"},
    {"fleet.client_run_max_s", "s"},
    {"fleet.client_finish_s", "s"},
    {"fleet.drain_s", "s"},
    {"fleet.events_admitted", "count"},
    {"fleet.capture_run_max_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\nworkloads:",
               Why);
  for (const std::string &Name : workloadNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

template <typename Fn>
double medianOf(const std::vector<RoundStats> &Rounds, Fn &&Get) {
  std::vector<double> Values;
  for (const RoundStats &R : Rounds)
    Values.push_back(Get(R));
  return median(std::move(Values));
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, SpansPath;
  std::uint64_t Seed = 0;
  double Seconds = 0;
  int TraceMode = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      TraceMode = std::atoi(Value);
    else if (Flag == "--spans")
      SpansPath = Value;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (!(Seconds > 0) || (TraceMode != 0 && TraceMode != 1))
    usage("--seconds must be positive and --trace 0 or 1");

  Context C;
  C.Rng.seed(Seed);
  std::unique_ptr<Workload> W = makeWorkload(WorkloadName, C);
  if (!W)
    usage(("unknown workload '" + WorkloadName + "'").c_str());

  // Whole rounds until the next one would overrun the run's time; a
  // traced run needs at least one round of each kind.
  std::vector<RoundStats> Untraced, Traced;
  double Start = wallS();
  for (;;) {
    C.Traced = TraceMode == 1 && C.Round % 2 == 1;
    C.Trace.setEnabled(C.Traced);
    RoundStats R;
    {
      Spans::Scope Top(C.Trace, "round", C.Round);
      W->round(C, R);
    }
    std::fprintf(stderr,
                 "perfbench: round %llu%s setup %.4fs profile %.4fs cpu "
                 "%.4fs peak rss %.1fMB\n",
                 static_cast<unsigned long long>(C.Round),
                 C.Traced ? " (traced)" : "", R.SetupS, R.ProfileS, R.CpuS,
                 peakRssMb());
    (C.Traced ? Traced : Untraced).push_back(std::move(R));
    ++C.Round;
    double Elapsed = wallS() - Start;
    std::uint64_t MinRounds = TraceMode == 1 ? 2 : 1;
    if (C.Round >= MinRounds && Elapsed + Elapsed / C.Round > Seconds)
      break;
  }
  double PeakRss = peakRssMb();
  C.Trace.setEnabled(false);
  W->finalize(C);

  unsigned Threads = std::thread::hardware_concurrency();
  std::printf("perfbench workload=%s seed=%llu hardware_threads=%u "
              "build_type=%s rounds=%llu traced_rounds=%zu seconds=%.3f\n",
              WorkloadName.c_str(), static_cast<unsigned long long>(Seed),
              Threads, PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(C.Round), Traced.size(),
              wallS() - Start);

  std::vector<std::pair<const Metric *, double>> Out;
  if (TraceMode == 0) {
    Out = {{&EndToEnd[0], medianOf(Untraced, [](auto &R) { return R.SetupS; })},
           {&EndToEnd[1],
            medianOf(Untraced, [](auto &R) { return R.ProfileS; })},
           {&EndToEnd[2], medianOf(Untraced, [](auto &R) { return R.CpuS; })},
           {&EndToEnd[3], PeakRss}};
  } else {
    for (const Metric &M : PerLayer) {
      std::string Key = M.Name;
      double V;
      if (Key == "workers.cpu_s")
        V = medianOf(Traced, [](auto &R) { return R.CpuS - R.LoadCpuS; });
      else if (Key == "trace.overhead_s")
        V = medianOf(Traced, [](auto &R) { return R.ProfileS; }) -
            medianOf(Untraced, [](auto &R) { return R.ProfileS; });
      else
        V = medianOf(Traced, [&](const RoundStats &R) {
          auto It = R.Layer.find(Key);
          return It == R.Layer.end() ? 0.0 : It->second;
        });
      Out.emplace_back(&M, V);
    }
    if (SpansPath.empty())
      SpansPath = "spans-" + WorkloadName + "-" + std::to_string(Seed) + ".json";
    if (!C.Trace.write(SpansPath, {{"workload", WorkloadName},
                                   {"seed", std::to_string(Seed)},
                                   {"hardware_threads", std::to_string(Threads)},
                                   {"build_type", PERFBENCH_BUILD_TYPE}}))
      C.broken("cannot write the span file " + SpansPath);
    else
      std::fprintf(stderr, "perfbench: spans written to %s\n",
                   SpansPath.c_str());
  }

  std::string Json = "{\"correct\": ";
  Json += C.Broken ? "false" : "true";
  Json += ", \"attempted\": " + std::to_string(C.Attempted);
  Json += ", \"failed\": " + std::to_string(C.Failed) + ", \"metrics\": {";
  for (std::size_t I = 0; I < Out.size(); ++I) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Out[I].first->Name, Out[I].second,
                  Out[I].first->Unit);
    Json += Buf;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}

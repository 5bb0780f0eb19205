//===- perfbench/src/Workloads.cpp ----------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Probe.h"

#include "dl/Models.h"
#include "pasta/Session.h"
#include "serve/Aggregator.h"
#include "sim/System.h"
#include "support/ReportSink.h"
#include "tools/StreamForwardTool.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace pasta;

namespace perfbench {

void Context::settle(const std::string &What,
                     const std::vector<std::string> &Problems) {
  ++Attempted;
  if (Problems.empty())
    return;
  ++Failed;
  // A failing check repeats every round; report each kind once.
  if (Failed <= 8)
    for (const std::string &P : Problems)
      std::fprintf(stderr, "perfbench: FAILED %s: %s\n", What.c_str(),
                   P.c_str());
}

void Context::broken(const std::string &Why) {
  Broken = true;
  std::fprintf(stderr, "perfbench: cannot check outputs: %s\n", Why.c_str());
}

Workload::~Workload() = default;

namespace {

//===----------------------------------------------------------------------===//
// Plans
//===----------------------------------------------------------------------===//

/// One session's slice of a model run.
struct Cell {
  std::string Model;
  bool Training = false;
  int Iterations = 1;

  std::string label() const {
    return Model + (Training ? "/train/" : "/infer/") +
           std::to_string(Iterations);
  }
};

/// Splits each fixed iteration total into two sessions at a seeded
/// point in its middle half (totals of 1 stay one session), then
/// shuffles the session order. The number of sessions and the total
/// work do not depend on the seed, and the middle half keeps the
/// largest session, which sets the peak memory, within 3/4 of the
/// total.
std::vector<Cell> seededPlan(std::mt19937_64 &Rng,
                             const std::vector<Cell> &Totals) {
  std::vector<Cell> Plan;
  for (const Cell &T : Totals) {
    if (T.Iterations < 2) {
      Plan.push_back(T);
      continue;
    }
    std::uniform_int_distribution<int> Split(
        std::max(1, T.Iterations / 4),
        std::min(T.Iterations - 1, T.Iterations * 3 / 4));
    int First = Split(Rng);
    Plan.push_back({T.Model, T.Training, First});
    Plan.push_back({T.Model, T.Training, T.Iterations - First});
  }
  std::shuffle(Plan.begin(), Plan.end(), Rng);
  return Plan;
}

/// Kernel launches per kernel name, counted from the program itself.
std::map<std::string, std::uint64_t> kernelCounts(const dl::Program &P) {
  std::map<std::string, std::uint64_t> Counts;
  for (const dl::Step &S : P.Steps)
    if (S.Kind == dl::StepKind::Kernel)
      ++Counts[S.Kernel.Name];
  return Counts;
}

/// Size of the file at \p Path, 0 when it cannot be read.
double fileBytes(const std::string &Path) {
  std::error_code Ec;
  std::uintmax_t Size = std::filesystem::file_size(Path, Ec);
  return Ec ? 0.0 : static_cast<double>(Size);
}

std::uint64_t fnv1a(const char *Data, std::size_t Size) {
  std::uint64_t H = 1469598103934665603ull;
  for (std::size_t I = 0; I < Size; ++I)
    H = (H ^ static_cast<unsigned char>(Data[I])) * 1099511628211ull;
  return H;
}

/// One JSON report document as the checks see it.
struct ReportDigest {
  std::uint64_t Hash = 0;
  std::size_t Bytes = 0;
  /// False when the document did not fit the report buffer.
  bool Complete = false;
};

/// Writes reports through the FILE-backed JsonReportSink, as accelprof
/// does, into one in-memory stream over a buffer allocated once. Only a
/// digest is kept: the benchmark's own memory for reports then depends
/// on the largest report rather than on allocation history, and it adds
/// no copies of multi-megabyte reports to the peak measured. Main
/// thread only: the buffer is shared.
template <typename Fn> ReportDigest writeJson(Fn &&Write) {
  static constexpr std::size_t Capacity = 64u << 20;
  // Uninitialized: only the pages a report touches become resident.
  static const std::unique_ptr<char[]> Buffer(new char[Capacity]);
  ReportDigest D;
  std::FILE *F = fmemopen(Buffer.get(), Capacity, "w");
  if (!F)
    return D;
  {
    JsonReportSink Sink(F);
    Write(Sink);
  }
  std::fflush(F);
  long End = std::ftell(F);
  std::fclose(F);
  if (End < 0 || static_cast<std::size_t>(End) + 1 >= Capacity)
    return D;
  D.Bytes = static_cast<std::size_t>(End);
  D.Hash = fnv1a(Buffer.get(), D.Bytes);
  D.Complete = true;
  return D;
}

//===----------------------------------------------------------------------===//
// Session steps, each timed into its layer and wrapped in a span
//===----------------------------------------------------------------------===//

/// Runs \p Body as layer \p Key: adds its wall time to the round's
/// per-layer sum and records a span of the same name.
template <typename Fn>
double timed(Context &C, RoundStats &R, const std::string &Key, Fn &&Body) {
  Spans::Scope Span(C.Trace, Key, C.Round);
  double T0 = wallS();
  Body();
  double Dt = wallS() - T0;
  R.add(Key + "_s", Dt);
  return Dt;
}

/// The program a session will run, built the way Session::run builds
/// it for an NVIDIA preset (every session here simulates an A100).
dl::Program buildProgram(Context &C, RoundStats &R, const Cell &Spec) {
  dl::Program P;
  dl::ScheduleBuilder::Options Opts;
  Opts.Flavor = dl::KernelFlavor::Cudnn;
  Opts.Training = Spec.Training;
  Opts.Iterations = Spec.Iterations;
  R.SetupS += timed(C, R, "dl.build",
                    [&] { P = dl::buildModelProgram(Spec.Model, Opts); });
  R.add("dl.kernels", static_cast<double>(P.numKernels()));
  return P;
}

std::unique_ptr<Session> buildSession(Context &C, RoundStats &R,
                                      SessionBuilder &B,
                                      std::vector<std::string> &Problems) {
  std::unique_ptr<Session> S;
  SessionError Err;
  R.SetupS += timed(C, R, "session.build", [&] { S = B.build(Err); });
  if (!S)
    Problems.push_back("SessionBuilder::build: " + Err.message());
  return S;
}

/// One profiled session from program to checked report.
struct Op {
  Cell Spec;
  dl::Program Program;
  std::unique_ptr<Session> S;
  /// Key/values of every section; free text only of the sections a
  /// check reads (chrome_trace's text runs to megabytes).
  ReportRecord Reports{{"hotness"}};
  std::vector<std::string> Problems;
};

/// Accumulates the pipeline counters of one session's event_pipeline
/// section.
void addPipeline(RoundStats &R, Session &S) {
  ReportRecord Pipe;
  S.writePipelineReport(Pipe);
  const char *Summed[][2] = {{"events_processed", "pipeline.events_processed"},
                             {"flush_count", "pipeline.flush_count"},
                             {"queue.parks", "pipeline.queue_parks"},
                             {"arena.hits", "pipeline.arena_hits"},
                             {"arena.bytes", "pipeline.arena_bytes"}};
  for (const auto &[Key, Layer] : Summed)
    R.add(Layer, Pipe.number("event_pipeline", Key));
  double &Depth = R.Layer["pipeline.max_queue_depth"];
  Depth = std::max(Depth, Pipe.number("event_pipeline", "max_queue_depth"));
}

/// Writes \p S's reports as one JSON document, timed as report.write.
ReportDigest writeReport(Context &C, RoundStats &R, Session &S,
                         std::vector<std::string> &Problems) {
  ReportDigest D;
  timed(C, R, "report.write", [&] {
    D = writeJson([&](ReportSink &Sink) { S.writeReports(Sink); });
  });
  R.add("report.bytes", static_cast<double>(D.Bytes));
  if (!D.Complete)
    Problems.push_back("the JSON report did not fit the report buffer");
  return D;
}

/// The profiled half of a live session: run the program, finish, write
/// the reports. Then, untimed, the same reports again as key/values for
/// the checks.
void runToReport(Context &C, RoundStats &R, Op &O) {
  Interval Profiled;
  timed(C, R, "session.run", [&] { O.S->runProgram(O.Program); });
  timed(C, R, "session.finish", [&] { O.S->finish(); });
  writeReport(C, R, *O.S, O.Problems);
  Profiled.close(R);
  O.S->writeReports(O.Reports);
  addPipeline(R, *O.S);
}

/// kernel_frequency must count exactly the kernels of the programs the
/// benchmark built, and its per-kernel counts must sum to its total.
void checkKernelFrequency(const ReportRecord &Reports,
                          const std::map<std::string, std::uint64_t> &Expected,
                          std::vector<std::string> &Problems) {
  const ReportRecord::Section *KF = Reports.find("kernel_frequency");
  if (!KF) {
    Problems.push_back("no kernel_frequency report");
    return;
  }
  std::uint64_t ExpectedTotal = 0;
  for (const auto &[Name, Count] : Expected)
    ExpectedTotal += Count;
  std::uint64_t Total = static_cast<std::uint64_t>(
      Reports.number("kernel_frequency", "total_launches"));
  std::uint64_t Summed = 0;
  std::map<std::string, std::uint64_t> Seen;
  for (const auto &[Key, Value] : KF->Metrics)
    if (Key.rfind("launches.", 0) == 0) {
      Seen[Key.substr(9)] = std::stoull(Value);
      Summed += std::stoull(Value);
    }
  if (Total != ExpectedTotal)
    Problems.push_back("kernel_frequency total " + std::to_string(Total) +
                       " != " + std::to_string(ExpectedTotal) +
                       " kernels in the programs");
  if (Summed != Total)
    Problems.push_back("kernel_frequency per-kernel counts sum to " +
                       std::to_string(Summed) + ", total says " +
                       std::to_string(Total));
  if (Seen != Expected)
    Problems.push_back("kernel_frequency per-kernel counts differ from the "
                       "programs' kernels");
}

/// Bare-session floor: the same programs with backend none and no
/// tools. Traced rounds only; not part of the profiled phase.
void nativeLeg(Context &C, RoundStats &R,
               const std::vector<const dl::Program *> &Programs) {
  Spans::Scope Leg(C.Trace, "leg.native", C.Round);
  for (const dl::Program *P : Programs) {
    SessionBuilder B;
    B.backend("none");
    SessionError Err;
    std::unique_ptr<Session> S = B.build(Err);
    if (!S) {
      C.broken("bare session: " + Err.message());
      return;
    }
    timed(C, R, "native.run", [&] { S->runProgram(*P); });
  }
}

//===----------------------------------------------------------------------===//
// records_device / records_host
//===----------------------------------------------------------------------===//

/// The record plane: working-set analysis at the default 4096 B record
/// granularity over a CNN and a transformer in training mode, on the
/// GPU-resident path (cs-gpu + working_set + hotness) or the host path
/// (nvbit-cpu + working_set_host + instruction_mix).
class RecordsWorkload : public Workload {
public:
  RecordsWorkload(Context &C, bool DevicePath) : DevicePath(DevicePath) {
    Plan = seededPlan(C.Rng, {{"resnet18", true, 3}, {"bert", true, 1}});
  }

  void round(Context &C, RoundStats &R) override {
    std::vector<Op> Ops(Plan.size());
    for (std::size_t I = 0; I < Plan.size(); ++I) {
      Op &O = Ops[I];
      O.Spec = Plan[I];
      Spans::Scope Span(C.Trace, "op " + O.Spec.label(), C.Round);
      O.Program = buildProgram(C, R, O.Spec);
      SessionBuilder B = builder(DevicePath, O.Spec);
      O.S = buildSession(C, R, B, O.Problems);
      if (!O.S) {
        C.settle(O.Spec.label(), O.Problems);
        continue;
      }
      sim::Device &Dev = O.S->system().device(0);
      if (!Dev.traceSink()) {
        O.Problems.push_back("backend installed no device trace sink");
        C.settle(O.Spec.label(), O.Problems);
        continue;
      }
      DeviceProbe Probe(*Dev.traceSink(), C.Traced ? &C.Trace : nullptr,
                        C.Round);
      Dev.setTraceSink(&Probe);
      runToReport(C, R, O);
      R.add("sim.records", static_cast<double>(Probe.Records));
      R.add("sim.batches", static_cast<double>(Probe.Batches));
      R.add("sim.generate_s", Probe.GenerateS);
      R.add("records.begin_s", Probe.BeginS);
      R.add("records.deliver_s", Probe.DeliverS);
      R.add("records.end_s", Probe.EndS);
      check(O, Probe);
      O.S.reset();
      C.settle(O.Spec.label(), O.Problems);
    }
    double Deliver = R.Layer["records.deliver_s"];
    if (Deliver > 0)
      R.Layer["records.per_s"] = R.Layer["sim.records"] / Deliver;
    if (C.Traced) {
      std::vector<const dl::Program *> Programs;
      for (const Op &O : Ops)
        Programs.push_back(&O.Program);
      nativeLeg(C, R, Programs);
    }
  }

  /// The same summaries from the other analysis model must match what
  /// every round reported: the analysis model changes simulated cost,
  /// not the result. Run after the rounds, so the reference sessions
  /// stay out of the workload's peak memory.
  void finalize(Context &C) override {
    std::map<std::string, std::string> Reference;
    for (const auto &[Label, Spec] : Distinct) {
      SessionBuilder B = builder(!DevicePath, Spec);
      SessionError Err;
      std::unique_ptr<Session> S = B.build(Err);
      if (!S) {
        C.broken("reference session " + Label + ": " + Err.message());
        return;
      }
      S->run();
      ReportRecord Reports;
      S->writeReports(Reports);
      Reference[Label] = summary(Reports);
    }
    for (const auto &[Label, Summary] : Summaries)
      if (Summary != Reference[Label]) {
        ++C.Failed;
        if (C.Failed <= 8)
          std::fprintf(stderr,
                       "perfbench: FAILED %s: working_set summary differs "
                       "between analysis models:\n  %s\n  %s\n",
                       Label.c_str(), Summary.c_str(),
                       Reference[Label].c_str());
      }
  }

private:
  static SessionBuilder builder(bool Device, const Cell &Spec) {
    SessionBuilder B;
    if (Device)
      B.backend("cs-gpu").tool("working_set").tool("hotness");
    else
      B.backend("nvbit-cpu").tool("working_set_host").tool("instruction_mix");
    B.model(Spec.Model).training(Spec.Training).iterations(Spec.Iterations);
    B.recordGranularity(4096);
    return B;
  }

  /// working_set's summary without the analysis_mode label.
  static std::string summary(const ReportRecord &Reports) {
    const ReportRecord::Section *WS = Reports.find("working_set");
    if (!WS)
      return "(no working_set report)";
    std::string Out;
    for (const auto &[Key, Value] : WS->Metrics)
      if (Key != "analysis_mode")
        Out += Key + "=" + Value + " ";
    return Out;
  }

  /// Sum of hotness's "Total Accesses" column.
  static std::uint64_t hotnessTotal(const ReportRecord &Reports) {
    const ReportRecord::Section *H = Reports.find("hotness");
    std::uint64_t Total = 0;
    if (!H)
      return Total;
    std::istringstream Lines(H->Text);
    std::string Line;
    while (std::getline(Lines, Line)) {
      if (Line.rfind("0x", 0) != 0)
        continue;
      std::istringstream Fields(Line);
      std::string Block;
      std::uint64_t Windows = 0, Accesses = 0;
      if (Fields >> Block >> Windows >> Accesses)
        Total += Accesses;
    }
    return Total;
  }

  void check(Op &O, const DeviceProbe &Probe) {
    auto Num = [&](const char *Key) {
      return O.Reports.number("working_set", Key, -1);
    };
    double Kernels = Num("kernel_count");
    double Min = Num("min_ws_bytes"), Median = Num("median_ws_bytes");
    double P90 = Num("p90_ws_bytes"), WS = Num("working_set_bytes");
    double Footprint = Num("memory_footprint_bytes");
    if (!O.Reports.find("working_set"))
      O.Problems.push_back("no working_set report");
    else if (!(0 <= Min && Min <= Median && Median <= P90 && P90 <= WS &&
               WS <= Footprint))
      O.Problems.push_back("working_set order min <= median <= p90 <= "
                           "working set <= footprint does not hold");
    if (Kernels != static_cast<double>(Probe.Launches))
      O.Problems.push_back("working_set kernel_count " +
                           std::to_string(Kernels) + " != " +
                           std::to_string(Probe.Launches) +
                           " launches at the device");
    if (Probe.Launches != O.Program.numKernels())
      O.Problems.push_back("device saw " + std::to_string(Probe.Launches) +
                           " launches, the program has " +
                           std::to_string(O.Program.numKernels()));
    if (DevicePath && hotnessTotal(O.Reports) != Probe.WeightedRecords)
      O.Problems.push_back("hotness total accesses " +
                           std::to_string(hotnessTotal(O.Reports)) + " != " +
                           std::to_string(Probe.WeightedRecords) +
                           " multiplicity-weighted records at the device");
    if (!DevicePath && !O.Reports.find("instruction_mix"))
      O.Problems.push_back("no instruction_mix report");
    if (O.Problems.empty()) {
      Summaries.emplace_back(O.Spec.label(), summary(O.Reports));
      Distinct.emplace(O.Spec.label(), O.Spec);
    }
  }

  bool DevicePath;
  std::vector<Cell> Plan;
  /// Every passing operation's summary, judged in finalize().
  std::vector<std::pair<std::string, std::string>> Summaries;
  std::map<std::string, Cell> Distinct;
};

//===----------------------------------------------------------------------===//
// coarse_async
//===----------------------------------------------------------------------===//

/// Coarse events only: the whole zoo in both modes through six coarse
/// tools on the async pipeline, each session captured and the capture
/// replayed.
class CoarseWorkload : public Workload {
public:
  /// Dispatch lanes: more than one, and with the producing thread no
  /// more active threads than the host has.
  static constexpr std::size_t Lanes = 2;

  explicit CoarseWorkload(Context &C) {
    std::vector<Cell> Totals;
    for (const dl::ModelConfig &M : dl::modelZoo()) {
      Totals.push_back({M.Name, false, M.InferenceIterations});
      Totals.push_back({M.Name, true, M.TrainingIterations});
    }
    Plan = seededPlan(C.Rng, Totals);
    Hashes.resize(Plan.size());
  }

  void round(Context &C, RoundStats &R) override {
    std::vector<const dl::Program *> Programs;
    std::vector<dl::Program> Kept(C.Traced ? Plan.size() : 0);
    for (std::size_t I = 0; I < Plan.size(); ++I) {
      Op O;
      O.Spec = Plan[I];
      std::uint64_t Live = 0;
      std::string Capture = "capture-" + std::to_string(I) + ".trace";
      {
        Spans::Scope Span(C.Trace, "op " + O.Spec.label(), C.Round);
        O.Program = buildProgram(C, R, O.Spec);
        SessionBuilder B = tools(SessionBuilder());
        B.backend("none").asyncEvents(true).dispatchThreads(Lanes);
        B.capture(Capture);
        O.S = buildSession(C, R, B, O.Problems);
        if (O.S) {
          runToReport(C, R, O);
          checkKernelFrequency(O.Reports, kernelCounts(O.Program),
                               O.Problems);
          Live = liveJson(*O.S);
          O.S.reset();
          R.add("capture.bytes", fileBytes(Capture));
        }
      }
      if (O.Problems.empty())
        Hashes[I].push_back(Live);
      C.settle(O.Spec.label(), O.Problems);
      replay(C, R, O.Spec, Capture, Live);
      if (C.Traced) {
        Kept[I] = std::move(O.Program);
        Programs.push_back(&Kept[I]);
      }
    }
    double ReplayS = R.Layer["replay.run_s"];
    if (ReplayS > 0)
      R.Layer["replay.events_per_s"] = R.Layer["replay.events"] / ReplayS;
    if (C.Traced)
      nativeLeg(C, R, Programs);
  }

  /// Async reports must equal sync reports of the same cell. The sync
  /// references run after the rounds; every round's live reports are
  /// compared through their hashes.
  void finalize(Context &C) override {
    for (std::size_t I = 0; I < Plan.size(); ++I) {
      SessionBuilder B = tools(SessionBuilder());
      B.backend("none")
          .model(Plan[I].Model)
          .training(Plan[I].Training)
          .iterations(Plan[I].Iterations);
      SessionError Err;
      std::unique_ptr<Session> S = B.build(Err);
      if (!S) {
        C.broken("sync reference " + Plan[I].label() + ": " + Err.message());
        return;
      }
      S->run();
      std::uint64_t Sync =
          writeJson([&](ReportSink &Sink) { S->writeReports(Sink); }).Hash;
      for (std::uint64_t Live : Hashes[I])
        if (Live != Sync && ++C.Failed <= 8)
          std::fprintf(stderr,
                       "perfbench: FAILED %s: async reports differ from "
                       "sync reports\n",
                       Plan[I].label().c_str());
    }
  }

private:
  static SessionBuilder tools(SessionBuilder B) {
    for (const char *Name : {"kernel_frequency", "op_kernel_map",
                             "mem_usage_timeline", "barrier_stall",
                             "chrome_trace"})
      B.tool(Name);
    return B;
  }

  /// The live reports minus the capture tool's own section: what a
  /// replay of the capture and a sync run must reproduce byte for byte.
  static std::uint64_t liveJson(Session &S) {
    return writeJson([&](ReportSink &Sink) {
             SectionFilter Filter(Sink, {"trace_capture"});
             S.writeReports(Filter);
           })
        .Hash;
  }

  void replay(Context &C, RoundStats &R, const Cell &Spec,
              const std::string &Capture, std::uint64_t Live) {
    std::vector<std::string> Problems;
    Spans::Scope Span(C.Trace, "op replay " + Spec.label(), C.Round);
    SessionBuilder B = tools(SessionBuilder());
    B.backend("replay").trace(Capture);
    std::unique_ptr<Session> S = buildSession(C, R, B, Problems);
    if (S) {
      Interval Profiled;
      timed(C, R, "replay.run", [&] { S->run(); });
      std::uint64_t Replayed = writeReport(C, R, *S, Problems).Hash;
      Profiled.close(R);
      R.add("replay.events",
            static_cast<double>(S->processor().stats().EventsProcessed));
      if (Replayed != Live)
        Problems.push_back("replayed reports differ from the live reports");
    }
    C.settle("replay " + Spec.label(), Problems);
  }

  std::vector<Cell> Plan;
  /// Per plan cell, the hash of each passing round's live reports.
  std::vector<std::vector<std::uint64_t>> Hashes;
};

//===----------------------------------------------------------------------===//
// fleet_stream
//===----------------------------------------------------------------------===//

/// The fleet daemon: an in-process Aggregator merging concurrent
/// forwarding clients into one tenant. Closed loop: each client streams
/// as fast as its run produces.
class FleetWorkload : public Workload {
public:
  explicit FleetWorkload(Context &C) {
    // Three zoo models of similar coarse-event cost, so that which
    // client gets which model (the seeded part) does not change the
    // round's length. At most hardware_threads - 1 clients.
    std::vector<std::string> Models = {"alexnet", "resnet34", "whisper"};
    unsigned Threads = std::max(2u, std::thread::hardware_concurrency());
    Models.resize(std::min<std::size_t>(Models.size(), Threads - 1));
    std::shuffle(Models.begin(), Models.end(), C.Rng);
    for (const std::string &M : Models)
      Plan.push_back({M, true, dl::modelConfigByName(M).TrainingIterations});
    std::filesystem::create_directories(ReportDir);
  }

  void round(Context &C, RoundStats &R) override {
    std::string Socket = "fleet-" + std::to_string(::getpid()) + "-" +
                         std::to_string(C.Round) + ".sock";
    serve::ServeOptions Opts;
    Opts.SocketPath = Socket;
    Opts.ToolNames = {"kernel_frequency", "op_kernel_map"};
    Opts.ReportDir = ReportDir;
    Opts.Format = "json";
    serve::Aggregator Agg(Opts);
    std::vector<std::string> Shared;
    SessionError Err;
    bool Started = false;
    R.SetupS += timed(C, R, "serve.start", [&] { Started = Agg.start(Err); });
    if (!Started) {
      Shared.push_back("Aggregator::start: " + Err.message());
      for (const Cell &Spec : Plan)
        C.settle("stream " + Spec.label(), Shared);
      return;
    }

    std::vector<Client> Clients(Plan.size());
    for (std::size_t I = 0; I < Plan.size(); ++I) {
      Client &Cl = Clients[I];
      Cl.Spec = Plan[I];
      Spans::Scope Span(C.Trace, "dial " + Cl.Spec.label(), C.Round);
      Cl.Program = buildProgram(C, R, Cl.Spec);
      SessionBuilder B;
      B.backend("none")
          .model(Cl.Spec.Model)
          .training(true)
          .iterations(Cl.Spec.Iterations)
          .connect(Socket)
          .tenant(Tenant);
      Cl.S = buildSession(C, R, B, Cl.Problems);
    }

    {
      Spans::Scope Phase(C.Trace, "fleet.profile", C.Round);
      Interval Profiled;
      runConcurrently(C, Clients, Phase.id());
      double LastEnd = 0;
      for (const Client &Cl : Clients)
        LastEnd = std::max(LastEnd, Cl.EndAt);
      timed(C, R, "serve.wait", [&] {
        Agg.requestStop();
        Agg.wait();
      });
      R.add("fleet.drain_s", wallS() - LastEnd);
      Profiled.close(R);
    }

    std::vector<double> Runs, Finishes;
    std::uint64_t Sent = 0;
    std::map<std::string, std::uint64_t> Expected;
    for (Client &Cl : Clients) {
      R.LoadCpuS += Cl.CpuS;
      R.add("session.run_s", Cl.RunS);
      R.add("session.finish_s", Cl.FinishS);
      Runs.push_back(Cl.RunS);
      Finishes.push_back(Cl.FinishS);
      for (const auto &[Name, Count] : kernelCounts(Cl.Program))
        Expected[Name] += Count;
      if (!Cl.S)
        continue;
      addPipeline(R, *Cl.S);
      auto *Forward =
          Cl.S->toolAs<tools::StreamForwardTool>("stream_forward");
      if (Forward)
        Sent += Forward->writerStats().Events;
      else
        Cl.Problems.push_back("no stream_forward tool on the client");
    }
    R.add("fleet.client_run_s", median(Runs));
    R.add("fleet.client_run_max_s", *std::max_element(Runs.begin(), Runs.end()));
    R.add("fleet.client_finish_s", median(Finishes));
    R.add("report.bytes", fileBytes(ReportDir + "/" + Tenant + ".json"));

    checkTenant(Agg, Clients.size(), Sent, Expected, R, Shared);
    for (Client &Cl : Clients) {
      std::vector<std::string> Problems = Cl.Problems;
      Problems.insert(Problems.end(), Shared.begin(), Shared.end());
      C.settle("stream " + Cl.Spec.label(), Problems);
    }

    if (C.Traced) {
      captureLeg(C, R, Clients);
      std::vector<const dl::Program *> Programs;
      for (const Client &Cl : Clients)
        Programs.push_back(&Cl.Program);
      nativeLeg(C, R, Programs);
    }
  }

private:
  struct Client {
    Cell Spec;
    dl::Program Program;
    std::unique_ptr<Session> S;
    std::vector<std::string> Problems;
    double RunS = 0;
    double FinishS = 0;
    double EndAt = 0;
    double CpuS = 0;
  };

  /// One thread per client: run, then finish (the forwarder's last frame
  /// and EOF). Times land in the Client; nothing shared is written.
  static void runConcurrently(Context &C, std::vector<Client> &Clients,
                              int Parent) {
    std::vector<std::thread> Threads;
    for (Client &Cl : Clients) {
      if (!Cl.S)
        continue;
      Threads.emplace_back([&C, &Cl, Parent] {
        Spans::Scope Span(C.Trace, "client " + Cl.Spec.label(), C.Round,
                          Parent);
        double Cpu0 = threadCpuS();
        double T0 = wallS();
        {
          Spans::Scope Run(C.Trace, "session.run", C.Round);
          Cl.S->runProgram(Cl.Program);
        }
        double T1 = wallS();
        {
          Spans::Scope Finish(C.Trace, "session.finish", C.Round);
          Cl.S->finish();
        }
        Cl.EndAt = wallS();
        Cl.RunS = T1 - T0;
        Cl.FinishS = Cl.EndAt - T1;
        Cl.CpuS = threadCpuS() - Cpu0;
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }

  /// The merged tenant must hold exactly the sum of the clients: every
  /// stream clean, every forwarded event admitted once, and per-kernel
  /// counts equal to the kernels of the clients' programs.
  void checkTenant(serve::Aggregator &Agg, std::size_t Streams,
                   std::uint64_t Sent,
                   const std::map<std::string, std::uint64_t> &Expected,
                   RoundStats &R, std::vector<std::string> &Problems) {
    serve::Tenant *T = Agg.registry().find(Tenant);
    if (!T) {
      Problems.push_back("no tenant '" + Tenant + "' on the aggregator");
      return;
    }
    serve::TenantStats Stats;
    {
      std::lock_guard<std::mutex> Lock(T->mutex());
      Stats = T->stats();
    }
    R.add("fleet.events_admitted", static_cast<double>(Stats.EventsAdmitted));
    if (Stats.CleanStreams != Streams || Stats.CorruptStreams != 0 ||
        Agg.stats().CleanStreams != Streams)
      Problems.push_back(std::to_string(Stats.CleanStreams) + " of " +
                         std::to_string(Streams) + " streams judged clean");
    if (Stats.EventsAdmitted != Sent)
      Problems.push_back("tenant admitted " +
                         std::to_string(Stats.EventsAdmitted) +
                         " events, clients forwarded " + std::to_string(Sent));
    ReportRecord Reports;
    Agg.registry().writeTenantReport(*T, Reports, /*Final=*/false);
    checkKernelFrequency(Reports, Expected, Problems);
    if (!Reports.find("op_kernel_map"))
      Problems.push_back("no op_kernel_map report for the tenant");
  }

  /// The same clients, concurrently, capturing locally instead of
  /// forwarding. Traced rounds only.
  static void captureLeg(Context &C, RoundStats &R,
                         const std::vector<Client> &Streamed) {
    Spans::Scope Leg(C.Trace, "leg.capture", C.Round);
    std::vector<Client> Clients(Streamed.size());
    for (std::size_t I = 0; I < Streamed.size(); ++I) {
      Clients[I].Spec = Streamed[I].Spec;
      Clients[I].Program = Streamed[I].Program;
      SessionBuilder B;
      B.backend("none").capture("local-" + std::to_string(I) + ".trace");
      SessionError Err;
      Clients[I].S = B.build(Err);
      if (!Clients[I].S) {
        C.broken("local capture session: " + Err.message());
        return;
      }
    }
    runConcurrently(C, Clients, Leg.id());
    double Max = 0;
    for (const Client &Cl : Clients)
      Max = std::max(Max, Cl.RunS);
    R.add("fleet.capture_run_max_s", Max);
  }

  const std::string Tenant = "fleet";
  const std::string ReportDir = "fleet-reports";
  std::vector<Cell> Plan;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "records_device", "records_host", "coarse_async", "fleet_stream"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name, Context &C) {
  if (Name == "records_device")
    return std::make_unique<RecordsWorkload>(C, /*DevicePath=*/true);
  if (Name == "records_host")
    return std::make_unique<RecordsWorkload>(C, /*DevicePath=*/false);
  if (Name == "coarse_async")
    return std::make_unique<CoarseWorkload>(C);
  if (Name == "fleet_stream")
    return std::make_unique<FleetWorkload>(C);
  return nullptr;
}

} // namespace perfbench

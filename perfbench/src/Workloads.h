//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a fixed set of operations (profiled sessions or client
/// streams, each run to its report) repeated in rounds until the run's
/// time is used. The seed fixes the set: which sessions, in which
/// order, how a fixed iteration total is split between sessions, and
/// which fleet client runs which model. Every operation's outputs are
/// checked; a failed check counts the operation as failed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// State shared by the round loop and the workloads.
struct Context {
  std::mt19937_64 Rng;
  Spans Trace{false};
  /// True while the current round is a traced one: spans on, device
  /// deliveries timed, the comparison legs (bare session, local
  /// capture) run after the profiled phase.
  bool Traced = false;
  std::uint64_t Round = 0;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Set when the benchmark itself could not judge the outputs (a
  /// reference leg would not build); the run is then not correct.
  bool Broken = false;

  /// Counts one operation; \p Problems empty means it passed.
  void settle(const std::string &What, const std::vector<std::string> &Problems);
  void broken(const std::string &Why);
};

class Workload {
public:
  virtual ~Workload();
  /// Runs one round, filling \p R.
  virtual void round(Context &C, RoundStats &R) = 0;
  /// After the last round: checks that need every round's outputs or a
  /// reference leg, counted against the rounds' operations.
  virtual void finalize(Context &C) { (void)C; }
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();
/// Null for an unknown name. \p C.Rng is already seeded.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, Context &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

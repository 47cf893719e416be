#pragma once
// Outside-in replay of recorded flushes through the layers' public
// functions, timed call by call.
//
// Each flush is re-planned with FleetScheduler::plan on a fresh fleet of
// the same devices; every planned batch then runs, in dispatch order with
// its members in canonical (fingerprint, name, submission) order, the
// stages of the service's batch pipeline one public call at a time:
// Partitioner::allocate, CalibrationEpoch::transpile per job,
// CalibrationEpoch::execute with the batch's service seed,
// ideal_distribution over the epoch's compiled program, jsd/pst, and
// schedule_circuit under the RuntimeModel. Every replayed batch must
// reproduce the service's results bit for bit (plan membership, partitions,
// distributions, counts, scores); the first difference fails the replay.

#include <cstdint>
#include <string>
#include <vector>

#include "gate.hpp"
#include "service/backend.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Names of the leaf spans the replay records, one per layer call.
inline constexpr const char* kLayerSpans[] = {
    "order", "plan", "allocate", "transpile", "execute",
    "ideal", "score", "schedule", "verify"};

struct ReplayOutcome {
  bool identical = true;
  std::string mismatch;  ///< first difference found, when !identical
  std::size_t flushes = 0;  ///< replayed, warm-up included
  double wall_s = 0.0;      ///< replay wall over every replayed flush

  // Over the replayed timed flushes only.
  std::size_t timed_flushes = 0;
  std::uint64_t jobs = 0;
  std::uint64_t batches = 0;
  std::uint64_t spill_events = 0;
  std::uint64_t cross_device_spills = 0;
  double efs_sum = 0.0;
  double swaps_sum = 0.0;
  double crosstalk_events_sum = 0.0;
  double state_bytes_sum = 0.0;  ///< computed: sum over programs of 16 * 4^w
  /// Replay transpile-cache counters (all backends) after every replayed
  /// flush, cumulative from the fresh fleet.
  std::vector<qucp::TranspileCacheStats> cache_after;
};

/// Replays `flushes` in order until `budget_s` of replay wall has passed
/// and at least one timed flush was replayed (warm-up flushes always are).
[[nodiscard]] ReplayOutcome replay(const Workload& w,
                                   const std::vector<qucp::Device>& devices,
                                   const std::vector<FlushRecord>& flushes,
                                   double budget_s, Tracer& tracer);

/// Runs the first `count` recorded flushes through a fresh one-worker
/// service, returning each flush's wall seconds. The results must match the
/// recorded ones bit for bit; `mismatch` reports the first difference.
[[nodiscard]] std::vector<double> run_one_worker(
    const Workload& w, const std::vector<qucp::Device>& devices,
    const std::vector<FlushRecord>& flushes, std::size_t count,
    std::string& mismatch);

[[nodiscard]] qucp::TranspileCacheStats cache_totals(
    const std::vector<qucp::BackendStats>& backends);

}  // namespace perfbench

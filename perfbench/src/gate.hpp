#pragma once
// Correctness gate, run on every flush of every run, and the fidelity
// accumulators the end-to-end quality metrics are computed from.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/device.hpp"
#include "service/job.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One submit -> flush -> results round trip, as the client saw it.
struct FlushRecord {
  std::int64_t ordinal = 0;  ///< flush number within the service's life
  bool timed = false;        ///< false for warm-up flushes
  std::vector<qucp::Circuit> circuits;  ///< submission order
  std::vector<qucp::JobHandle> handles;  ///< parallel to circuits
  double wall_s = 0.0;    ///< the whole round trip
  double submit_s = 0.0;  ///< inside submit()/submit_all()
  double flush_s = 0.0;   ///< inside flush()
};

struct GateTally {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;        ///< jobs that ended Failed
  std::uint64_t ideal_checks = 0;  ///< sampled unfused ideal cross-checks
  std::vector<std::string> problems;  ///< wrong outputs (first few kept)
  std::vector<std::string> failures;  ///< failed-job messages (first few)

  [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
  void problem(std::string what);
};

/// Checks every job of `flush`: it finished; counts sum to shots;
/// distributions are normalized; PST/JSD lie in [0, 1]; partitions are
/// on-device, connected and disjoint within each batch, and every batch's
/// reported size matches its members; a sample of ideal references agrees
/// with the unfused ideal_distribution(const Circuit&) to 1e-10.
void check_flush(const FlushRecord& flush,
                 const std::vector<qucp::Device>& devices, int shots,
                 GateTally& tally);

/// Quality accumulators over the warm-up flushes (deterministic per seed).
struct Fidelity {
  double pst_det_sum = 0.0;  ///< deterministic-ideal jobs
  std::uint64_t det_jobs = 0;
  double pst_all_sum = 0.0;  ///< mode mass relative to the ideal's
  double jsd_sum = 0.0;
  std::uint64_t jobs = 0;
  /// (backend, batch index) -> (qubit utilization, modeled speedup)
  std::map<std::pair<int, std::uint64_t>, std::pair<double, double>> batches;
  std::vector<qucp::JobHandle> handles;  ///< for modeled_fleet_drain_s
  std::uint64_t digest = 0xcbf29ce484222325ull;  ///< FNV-1a over counts

  void add(const FlushRecord& flush, const Client& client);
  /// Mean PST over deterministic-ideal jobs when the workload has any
  /// (Table II's PST rows), else over every job, where a job's PST is the
  /// noisy mass on the ideal mode relative to the ideal mass there.
  [[nodiscard]] double mean_pst() const;
  [[nodiscard]] double mean_jsd() const;
  [[nodiscard]] double hw_throughput() const;
  [[nodiscard]] double runtime_reduction() const;
};

}  // namespace perfbench

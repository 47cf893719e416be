#pragma once
// The benchmark's four workloads: service configuration plus a client that
// generates each flush's circuits from the workload seed.
//
// A flush is one submit -> flush() -> read-every-result round trip. The
// batch workloads (table2_tau, sweep8, ghz_fleet) send one cycle of jobs
// per flush; vqe_loop is a closed loop whose every SPSA iteration is one
// flush of four measurement circuits. The library only ever sees the
// generated circuits; the seed never reaches it.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/device.hpp"
#include "service/service.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<std::string> devices;  ///< fleet, by make_named_device name
  qucp::ServiceOptions options;
  bool submit_all = false;  ///< submit_all() per flush; else a submit() loop
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name);

[[nodiscard]] std::vector<qucp::Device> make_devices(const Workload& w);

/// The workload's service over `devices` with `num_workers` per lane.
[[nodiscard]] std::unique_ptr<qucp::ExecutionService> make_service(
    const Workload& w, const std::vector<qucp::Device>& devices,
    int num_workers);

/// Submits one flush's circuits the way the workload's client does.
[[nodiscard]] std::vector<qucp::JobHandle> submit(
    qucp::ExecutionService& service, const Workload& w,
    std::vector<qucp::Circuit> circuits);

/// Produces the circuits of each flush and consumes its results.
class Client {
 public:
  virtual ~Client() = default;
  /// Circuits of the next flush, in submission order.
  virtual std::vector<qucp::Circuit> next() = 0;
  /// Observe the finished flush (VQE: energies and the parameter update).
  virtual void consume(std::span<const qucp::JobHandle> handles) {
    (void)handles;
  }
  /// True when building the next flush is part of the timed round trip
  /// (a closed loop builds from the previous results; batch workloads
  /// submit inputs generated beforehand).
  [[nodiscard]] virtual bool builds_in_iteration() const noexcept {
    return false;
  }
  /// Flushes in the untimed warm-up (one cycle, four on sweep8, four
  /// episodes on vqe_loop).
  [[nodiscard]] virtual int warmup_flushes() const noexcept { return 1; }
  /// Whether a job's ideal output is a single outcome (PST-scored).
  [[nodiscard]] virtual bool deterministic(const std::string& job_name) const {
    (void)job_name;
    return false;
  }
  /// vqe_loop: |E_final - E_exact| / |E_exact| in percent, averaged over
  /// the warm-up episodes; 0 for the batch workloads.
  [[nodiscard]] virtual double warmup_delta_e_pct() const { return 0.0; }
};

/// `tiny` shrinks the per-flush sizes (jobs per cycle, iterations per
/// episode) for the benchmark's own tests.
[[nodiscard]] std::unique_ptr<Client> make_client(const Workload& w,
                                                  std::uint64_t seed,
                                                  bool tiny);

}  // namespace perfbench

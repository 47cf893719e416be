#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "partition/partitioners.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

namespace {

constexpr double kNormTol = 1e-9;
constexpr double kIdealTol = 1e-10;
constexpr std::size_t kIdealSamplesPerFlush = 4;
constexpr std::size_t kKeptMessages = 8;

double total(const qucp::Distribution& d) {
  double s = 0.0;
  for (const auto& [outcome, p] : d.probs()) s += p;
  return s;
}

bool probabilities_valid(const qucp::Distribution& d, int num_bits) {
  const std::uint64_t limit = num_bits >= 64 ? ~0ull : (1ull << num_bits);
  for (const auto& [outcome, p] : d.probs()) {
    if (!(p >= 0.0 && p <= 1.0 + kNormTol) || outcome >= limit) return false;
  }
  return std::abs(total(d) - 1.0) <= kNormTol;
}

/// Largest per-outcome difference over the union of both supports.
double max_abs_diff(const qucp::Distribution& a, const qucp::Distribution& b) {
  double worst = 0.0;
  for (const auto& [outcome, p] : a.probs()) {
    worst = std::max(worst, std::abs(p - b.prob(outcome)));
  }
  for (const auto& [outcome, p] : b.probs()) {
    worst = std::max(worst, std::abs(p - a.prob(outcome)));
  }
  return worst;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void GateTally::problem(std::string what) {
  if (problems.size() < kKeptMessages) problems.push_back(std::move(what));
}

void check_flush(const FlushRecord& flush,
                 const std::vector<qucp::Device>& devices, int shots,
                 GateTally& tally) {
  const std::size_t n = flush.handles.size();
  const std::size_t stride = std::max<std::size_t>(1, n / kIdealSamplesPerFlush);
  const std::string where = "flush " + std::to_string(flush.ordinal) + " job ";
  // (backend, batch index) -> member positions
  std::map<std::pair<int, std::uint64_t>, std::vector<std::size_t>> batches;
  tally.attempted += n;
  for (std::size_t i = 0; i < n; ++i) {
    const qucp::JobHandle& h = flush.handles[i];
    if (h.status() == qucp::JobStatus::Failed) {
      ++tally.failed;
      if (tally.failures.size() < kKeptMessages) {
        tally.failures.push_back(where + std::to_string(i) + ": " + h.error());
      }
      continue;
    }
    if (h.status() != qucp::JobStatus::Done) {
      tally.problem(where + std::to_string(i) + " unfinished after flush()");
      continue;
    }
    ++tally.succeeded;
    const qucp::JobResult& r = h.result();
    const qucp::ProgramReport& rep = r.report;
    const qucp::Circuit& c = flush.circuits[i];
    const std::string job = where + std::to_string(i) + " (" + rep.name + ")";
    if (rep.counts.total() != shots) {
      tally.problem(job + ": counts sum to " +
                    std::to_string(rep.counts.total()) + ", not " +
                    std::to_string(shots));
    }
    if (!probabilities_valid(rep.noisy, c.num_clbits()) ||
        !probabilities_valid(rep.ideal, c.num_clbits()) ||
        rep.noisy.num_bits() != c.num_clbits()) {
      tally.problem(job + ": distribution not normalized or out of range");
    }
    if (!(rep.jsd_value >= 0.0 && rep.jsd_value <= 1.0) ||
        !(rep.pst_value >= 0.0 && rep.pst_value <= 1.0)) {
      tally.problem(job + ": PST/JSD outside [0, 1]");
    }
    const auto backend = static_cast<std::size_t>(r.batch.backend_id);
    if (backend >= devices.size() ||
        devices[backend].name() != r.batch.backend_device) {
      tally.problem(job + ": unknown backend");
      continue;
    }
    const qucp::Device& device = devices[backend];
    const std::vector<int>& part = rep.partition;
    const bool on_device =
        !part.empty() &&
        std::all_of(part.begin(), part.end(),
                    [&](int q) { return q >= 0 && q < device.num_qubits(); }) &&
        std::set<int>(part.begin(), part.end()).size() == part.size() &&
        static_cast<int>(part.size()) >= qucp::shape_of(c).num_qubits &&
        device.topology().is_connected_subset(part);
    if (!on_device) tally.problem(job + ": partition not a connected on-device region");
    batches[{r.batch.backend_id, r.batch.batch_index}].push_back(i);
    if (i % stride == 0) {
      ++tally.ideal_checks;
      const double diff = max_abs_diff(rep.ideal, qucp::ideal_distribution(c));
      if (!(diff <= kIdealTol)) {
        tally.problem(job + ": ideal reference differs from the unfused "
                      "simulator by " + std::to_string(diff));
      }
    }
  }
  for (const auto& [key, members] : batches) {
    std::set<int> used;
    std::size_t qubits = 0;
    for (std::size_t i : members) {
      const qucp::JobResult& r = flush.handles[i].result();
      if (r.batch.batch_size != members.size()) {
        tally.problem("flush " + std::to_string(flush.ordinal) + " batch " +
                      std::to_string(key.second) + ": size " +
                      std::to_string(r.batch.batch_size) + " but " +
                      std::to_string(members.size()) + " members");
      }
      used.insert(r.report.partition.begin(), r.report.partition.end());
      qubits += r.report.partition.size();
    }
    if (used.size() != qubits) {
      tally.problem("flush " + std::to_string(flush.ordinal) + " batch " +
                    std::to_string(key.second) + ": overlapping partitions");
    }
  }
}

void Fidelity::add(const FlushRecord& flush, const Client& client) {
  for (const qucp::JobHandle& h : flush.handles) {
    if (h.status() != qucp::JobStatus::Done) continue;
    const qucp::JobResult& r = h.result();
    if (client.deterministic(r.report.name)) {
      pst_det_sum += r.report.pst_value;
      ++det_jobs;
    }
    // Mass the noisy output keeps on the ideal mode, relative to the ideal
    // mass there: PST for a single-outcome circuit, and comparable across
    // circuits whose ideal output is spread out.
    const std::uint64_t mode = r.report.ideal.most_likely();
    pst_all_sum += r.report.pst_value / r.report.ideal.prob(mode);
    jsd_sum += r.report.jsd_value;
    ++jobs;
    batches[{r.batch.backend_id, r.batch.batch_index}] = {
        r.batch.throughput, r.batch.runtime_reduction};
    handles.push_back(h);
    for (const auto& [outcome, count] : r.report.counts.data()) {
      digest = fnv(fnv(digest, outcome), static_cast<std::uint64_t>(count));
    }
  }
}

double Fidelity::mean_pst() const {
  if (det_jobs > 0) return pst_det_sum / static_cast<double>(det_jobs);
  return jobs > 0 ? pst_all_sum / static_cast<double>(jobs) : 0.0;
}

double Fidelity::mean_jsd() const {
  return jobs > 0 ? jsd_sum / static_cast<double>(jobs) : 0.0;
}

double Fidelity::hw_throughput() const {
  double s = 0.0;
  for (const auto& [key, b] : batches) s += b.first;
  return batches.empty() ? 0.0 : s / static_cast<double>(batches.size());
}

double Fidelity::runtime_reduction() const {
  double s = 0.0;
  for (const auto& [key, b] : batches) s += b.second;
  return batches.empty() ? 0.0 : s / static_cast<double>(batches.size());
}

}  // namespace perfbench

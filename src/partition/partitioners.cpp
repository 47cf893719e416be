#include "partition/partitioners.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <stdexcept>

#include "partition/candidate_index.hpp"
#include "partition/candidates.hpp"

namespace qucp {

ProgramShape shape_of(const Circuit& circuit) {
  ProgramShape shape;
  shape.num_qubits = static_cast<int>(circuit.active_qubits().size());
  shape.num_2q = circuit.two_qubit_count();
  shape.num_1q = circuit.gate_count() - circuit.two_qubit_count();
  return shape;
}

std::vector<std::size_t> allocation_order(
    std::span<const ProgramShape> programs) {
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (programs[a].num_qubits != programs[b].num_qubits) {
                       return programs[a].num_qubits > programs[b].num_qubits;
                     }
                     return programs[a].num_2q > programs[b].num_2q;
                   });
  return order;
}

std::optional<std::vector<PartitionAssignment>> allocate_batch(
    const Device& device, const Partitioner& partitioner,
    std::span<const ProgramShape> programs, const CandidateIndex* index) {
  const std::vector<std::size_t> order = allocation_order(programs);
  std::vector<ProgramShape> ordered;
  ordered.reserve(order.size());
  for (std::size_t idx : order) ordered.push_back(programs[idx]);
  auto alloc = partitioner.allocate(device, ordered, index);
  if (!alloc) return std::nullopt;
  std::vector<PartitionAssignment> assignments(programs.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    assignments[order[pos]] = std::move((*alloc)[pos]);
  }
  return assignments;
}

std::optional<double> solo_efs_score(const Device& device,
                                     const Partitioner& partitioner,
                                     const ProgramShape& shape,
                                     const CandidateIndex* index) {
  const ProgramShape shapes[] = {shape};
  const auto alloc = partitioner.allocate(device, shapes, index);
  if (!alloc) return std::nullopt;
  return (*alloc)[0].efs.score;
}

namespace {

/// One grow step of the EFS-greedy allocation against a session: pick the
/// lowest-EFS candidate in the current allocation context, without
/// committing. The indexed allocate loop and Partitioner::grow_one both
/// call this, so the incremental admission path replays the exact
/// decision (and floating-point) stream of a fresh allocate by
/// construction.
std::optional<PartitionAssignment> efs_greedy_grow_one(
    AllocationSession& session, const ProgramShape& shape,
    const CrosstalkPolicy& policy) {
  const auto& candidates = session.candidates(shape.num_qubits);
  bool found = false;
  PartitionAssignment current;
  double best_score = 0.0;
  for (const AllocationSession::Candidate& cand : candidates) {
    EfsBreakdown efs = session.score(cand, shape, policy);
    if (!found || efs.score < best_score) {
      current = {*cand.part, std::move(efs)};
      found = true;
      best_score = current.efs.score;
    }
  }
  if (!found) return std::nullopt;
  return current;
}

/// Shared EFS-greedy allocation used by QuCP and QuMC. The reference
/// (index == nullptr) path regenerates candidates and rescores everything
/// per program; the indexed path replays the identical decisions through
/// an AllocationSession, touching only the fringe of the allocation.
std::optional<std::vector<PartitionAssignment>> efs_greedy_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CrosstalkPolicy& policy, const CandidateIndex* index) {
  std::vector<PartitionAssignment> result(programs.size());

  if (index != nullptr) {
    AllocationSession session(*index);
    for (std::size_t idx = 0; idx < programs.size(); ++idx) {
      auto current = efs_greedy_grow_one(session, programs[idx], policy);
      if (!current) return std::nullopt;
      session.commit(current->qubits);
      result[idx] = std::move(*current);
    }
    return result;
  }

  std::vector<int> allocated;
  for (std::size_t idx = 0; idx < programs.size(); ++idx) {
    const ProgramShape& shape = programs[idx];
    const auto candidates =
        partition_candidates(device, shape.num_qubits, allocated);
    const PartitionAssignment* best = nullptr;
    PartitionAssignment current;
    double best_score = 0.0;
    for (const auto& cand : candidates) {
      EfsBreakdown efs = efs_score(device, cand, shape, allocated, policy);
      if (best == nullptr || efs.score < best_score) {
        current = {cand, std::move(efs)};
        best = &current;
        best_score = current.efs.score;
      }
    }
    if (best == nullptr) return std::nullopt;
    allocated.insert(allocated.end(), current.qubits.begin(),
                     current.qubits.end());
    result[idx] = std::move(current);
  }
  return result;
}

/// Score-based allocation for calibration-aware, crosstalk-blind baselines.
/// The index accelerates candidate generation only; each method's own
/// ranking runs unchanged, and the chosen region's EFS breakdown comes
/// from the reference efs_score either way.
/// One grow step of the score-based allocation (QuCloud/MultiQC) against
/// a session, without committing — shared with Partitioner::grow_one like
/// efs_greedy_grow_one above.
template <typename ScoreFn>
std::optional<PartitionAssignment> score_greedy_grow_one(
    AllocationSession& session, const ProgramShape& shape, ScoreFn score) {
  const NoCrosstalkPolicy no_xtalk;
  const Device& device = session.index().device();
  const auto& candidates = session.candidates(shape.num_qubits);
  bool found = false;
  std::vector<int> best_cand;
  double best_score = 0.0;
  for (const AllocationSession::Candidate& cand : candidates) {
    const double s = score(device, *cand.part);
    if (!found || s > best_score) {
      best_cand = *cand.part;
      best_score = s;
      found = true;
    }
  }
  if (!found) return std::nullopt;
  PartitionAssignment assignment;
  assignment.qubits = best_cand;
  assignment.efs =
      efs_score(device, best_cand, shape, session.allocated(), no_xtalk);
  return assignment;
}

template <typename ScoreFn>
std::optional<std::vector<PartitionAssignment>> score_greedy_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    ScoreFn score /* higher is better */, const CandidateIndex* index) {
  const NoCrosstalkPolicy no_xtalk;
  std::vector<PartitionAssignment> result(programs.size());

  if (index != nullptr) {
    AllocationSession session(*index);
    for (std::size_t idx = 0; idx < programs.size(); ++idx) {
      auto assignment = score_greedy_grow_one(session, programs[idx], score);
      if (!assignment) return std::nullopt;
      session.commit(assignment->qubits);
      result[idx] = std::move(*assignment);
    }
    return result;
  }

  std::vector<int> allocated;
  for (std::size_t idx = 0; idx < programs.size(); ++idx) {
    const ProgramShape& shape = programs[idx];
    const auto candidates =
        partition_candidates(device, shape.num_qubits, allocated);
    bool found = false;
    std::vector<int> best_cand;
    double best_score = 0.0;
    for (const auto& cand : candidates) {
      const double s = score(device, cand);
      if (!found || s > best_score) {
        best_cand = cand;
        best_score = s;
        found = true;
      }
    }
    if (!found) return std::nullopt;
    PartitionAssignment assignment;
    assignment.qubits = best_cand;
    assignment.efs =
        efs_score(device, best_cand, shape, allocated, no_xtalk);
    allocated.insert(allocated.end(), best_cand.begin(), best_cand.end());
    result[idx] = std::move(assignment);
  }
  return result;
}

/// Fidelity degree of qubit q: sum over incident edges of (1 - cx error),
/// penalized by readout error — QuCloud's CMR-style heuristic. Candidates
/// arrive sorted, so membership is a binary search, not a per-call set.
double qucloud_score(const Device& dev, const std::vector<int>& cand) {
  double total = 0.0;
  for (int q : cand) {
    double fd = 0.0;
    for (int nb : dev.topology().neighbors(q)) {
      if (std::binary_search(cand.begin(), cand.end(), nb)) {
        fd += 1.0 - dev.cx_error(q, nb);
      }
    }
    total += fd - dev.readout_error(q);
  }
  return total;
}

/// Region utility: product of edge and readout survival probabilities
/// (log-sum for numeric stability) — Das et al.'s reliability ranking.
double multiqc_score(const Device& dev, const std::vector<int>& cand) {
  double log_survival = 0.0;
  for (int e : dev.topology().induced_edges(cand)) {
    log_survival += std::log1p(-dev.calibration().cx_error[e]);
  }
  for (int q : cand) {
    log_survival += std::log1p(-dev.readout_error(q));
  }
  return log_survival;
}

}  // namespace

std::optional<PartitionAssignment> Partitioner::grow_one(
    AllocationSession& session, const ProgramShape& shape) const {
  (void)session;
  (void)shape;
  throw std::logic_error("Partitioner::grow_one: " + name() +
                         " does not support incremental allocation");
}

std::optional<std::vector<PartitionAssignment>> QucpPartitioner::do_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CandidateIndex* index) const {
  return efs_greedy_allocate(device, programs, policy_, index);
}

std::optional<PartitionAssignment> QucpPartitioner::grow_one(
    AllocationSession& session, const ProgramShape& shape) const {
  return efs_greedy_grow_one(session, shape, policy_);
}

std::optional<std::vector<PartitionAssignment>> QumcPartitioner::do_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CandidateIndex* index) const {
  return efs_greedy_allocate(device, programs, policy_, index);
}

std::optional<PartitionAssignment> QumcPartitioner::grow_one(
    AllocationSession& session, const ProgramShape& shape) const {
  return efs_greedy_grow_one(session, shape, policy_);
}

std::optional<std::vector<PartitionAssignment>> QucloudPartitioner::do_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CandidateIndex* index) const {
  return score_greedy_allocate(device, programs, qucloud_score, index);
}

std::optional<PartitionAssignment> QucloudPartitioner::grow_one(
    AllocationSession& session, const ProgramShape& shape) const {
  return score_greedy_grow_one(session, shape, qucloud_score);
}

std::optional<std::vector<PartitionAssignment>> MultiqcPartitioner::do_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CandidateIndex* index) const {
  return score_greedy_allocate(device, programs, multiqc_score, index);
}

std::optional<PartitionAssignment> MultiqcPartitioner::grow_one(
    AllocationSession& session, const ProgramShape& shape) const {
  return score_greedy_grow_one(session, shape, multiqc_score);
}

std::optional<std::vector<PartitionAssignment>> NaivePartitioner::do_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CandidateIndex* /*index*/) const {
  // First-fit BFS needs no candidate enumeration, so the index is unused.
  const Topology& topo = device.topology();
  const NoCrosstalkPolicy no_xtalk;
  std::vector<PartitionAssignment> result(programs.size());
  std::set<int> blocked;
  for (std::size_t idx = 0; idx < programs.size(); ++idx) {
    const ProgramShape& shape = programs[idx];
    std::vector<int> region;
    for (int start = 0; start < topo.num_qubits(); ++start) {
      if (blocked.count(start)) continue;
      // BFS region of the requested size.
      std::vector<int> part;
      std::set<int> visited;
      std::deque<int> queue{start};
      visited.insert(start);
      while (!queue.empty() &&
             static_cast<int>(part.size()) < shape.num_qubits) {
        const int u = queue.front();
        queue.pop_front();
        part.push_back(u);
        for (int nb : topo.neighbors(u)) {
          if (!visited.count(nb) && !blocked.count(nb)) {
            visited.insert(nb);
            queue.push_back(nb);
          }
        }
      }
      if (static_cast<int>(part.size()) == shape.num_qubits) {
        std::sort(part.begin(), part.end());
        region = std::move(part);
        break;
      }
    }
    if (region.empty()) return std::nullopt;
    PartitionAssignment assignment;
    assignment.qubits = region;
    const std::vector<int> allocated(blocked.begin(), blocked.end());
    assignment.efs = efs_score(device, region, shape, allocated, no_xtalk);
    blocked.insert(region.begin(), region.end());
    result[idx] = std::move(assignment);
  }
  return result;
}

}  // namespace qucp

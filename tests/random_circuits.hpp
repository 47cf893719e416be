#pragma once
// Shared randomized-circuit helpers for the simulator golden suites
// (test_fusion.cpp, test_noisy_golden.cpp, test_executor.cpp): the bundled
// topologies, a distribution distance, seeded random physical circuits on
// connected device regions, and hand-built noisy channel lists. Every
// helper draws from the caller's Rng in a fixed order, so a seed pins the
// circuit exactly.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "sim/counts.hpp"
#include "sim/fusion.hpp"
#include "sim/noisy_stream.hpp"

namespace qucp::testutil {

inline std::vector<Device> bundled_devices() {
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  devices.push_back(make_line_device(9));
  devices.push_back(make_grid_device(4, 5));
  return devices;
}

/// Largest per-outcome probability difference between two distributions.
inline double dist_diff(const Distribution& a, const Distribution& b) {
  double worst = 0.0;
  for (const auto& [k, p] : a.probs()) {
    worst = std::max(worst, std::abs(p - b.prob(k)));
  }
  for (const auto& [k, p] : b.probs()) {
    worst = std::max(worst, std::abs(p - a.prob(k)));
  }
  return worst;
}

inline Gate random_1q_gate(Rng& rng, int qubit) {
  static const GateKind kinds[] = {GateKind::H,  GateKind::X,  GateKind::Y,
                                   GateKind::Z,  GateKind::S,  GateKind::T,
                                   GateKind::SX, GateKind::RX, GateKind::RY,
                                   GateKind::RZ, GateKind::U2, GateKind::U3};
  Gate g;
  g.kind = kinds[rng.index(std::size(kinds))];
  g.qubits = {qubit};
  for (int i = 0; i < gate_param_count(g.kind); ++i) {
    g.params.push_back(rng.uniform(-3.0, 3.0));
  }
  return g;
}

/// Grow a random connected region of `want` qubits on the device topology.
/// With `exclude` non-empty the region avoids those qubits and starts next
/// to them (a one-hop neighbor), so co-running programs can crosstalk.
inline std::vector<int> random_region(const Device& device, Rng& rng, int want,
                                      const std::vector<int>& exclude = {}) {
  const Topology& topo = device.topology();
  auto taken = [&](const std::vector<int>& set, int q) {
    return std::count(set.begin(), set.end(), q) > 0;
  };
  auto frontier_of = [&](const std::vector<int>& set,
                         const std::vector<int>& avoid) {
    std::vector<int> frontier;
    for (const Edge& e : topo.edges()) {
      const bool has_a = taken(set, e.a);
      const bool has_b = taken(set, e.b);
      const int outside = has_a ? e.b : e.a;
      if (has_a != has_b && !taken(avoid, outside)) frontier.push_back(outside);
    }
    return frontier;
  };
  std::vector<int> region;
  if (exclude.empty()) {
    region.push_back(static_cast<int>(
        rng.index(static_cast<std::size_t>(device.num_qubits()))));
  } else {
    const std::vector<int> start = frontier_of(exclude, {});
    if (start.empty()) return region;
    region.push_back(start[rng.index(start.size())]);
  }
  while (static_cast<int>(region.size()) < want) {
    const std::vector<int> frontier = frontier_of(region, exclude);
    if (frontier.empty()) break;
    region.push_back(frontier[rng.index(frontier.size())]);
  }
  return region;
}

/// A randomized physical circuit on `region`: parameterized rotations,
/// CX/CZ/SWAP-heavy stretches, occasional barriers and mid-circuit
/// measurements, measurement-suffixed. The last `idle_qubits` region qubits
/// receive no gate but are still measured.
inline Circuit random_physical_circuit_on(const Device& device, Rng& rng,
                                          const std::vector<int>& region,
                                          int steps, int idle_qubits = 0) {
  const std::vector<int> busy(
      region.begin(),
      region.end() - std::min<std::ptrdiff_t>(
                         idle_qubits, static_cast<std::ptrdiff_t>(region.size())));
  std::vector<std::pair<int, int>> pairs;
  for (const Edge& e : device.topology().edges()) {
    if (std::count(busy.begin(), busy.end(), e.a) > 0 &&
        std::count(busy.begin(), busy.end(), e.b) > 0) {
      pairs.emplace_back(e.a, e.b);
    }
  }
  Circuit c(device.num_qubits(), static_cast<int>(region.size()));
  int next_clbit = 0;
  for (int s = 0; s < steps && !busy.empty(); ++s) {
    const double roll = rng.uniform(0.0, 1.0);
    if (!pairs.empty() && roll < 0.45) {
      auto [a, b] = pairs[rng.index(pairs.size())];
      if (rng.bernoulli(0.5)) std::swap(a, b);
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.6) {
        c.cx(a, b);
      } else if (kind < 0.8) {
        c.cz(a, b);
      } else {
        c.swap(a, b);
      }
    } else if (roll < 0.9) {
      c.append(random_1q_gate(rng, busy[rng.index(busy.size())]));
    } else if (roll < 0.95) {
      c.barrier(region);  // region-scoped, like transpiled programs emit
    } else if (next_clbit < static_cast<int>(region.size())) {
      // Mid-circuit measurement: fusion must not merge across it.
      c.measure(region[static_cast<std::size_t>(next_clbit)], next_clbit);
      ++next_clbit;
    }
  }
  for (; next_clbit < static_cast<int>(region.size()); ++next_clbit) {
    c.measure(region[static_cast<std::size_t>(next_clbit)], next_clbit);
  }
  return c;
}

/// random_physical_circuit_on a freshly grown region of `region_size`.
inline Circuit random_physical_circuit(const Device& device, Rng& rng,
                                       int region_size, int steps) {
  const std::vector<int> region = random_region(device, rng, region_size);
  return random_physical_circuit_on(device, rng, region, steps);
}

/// The noisy channel list the executor would emit for `low` (lowered to
/// CX, compiled to `kernels`, which must outlive the list) without a
/// schedule, on qubits shifted by `offset`: with `relax_first` relaxation
/// on every qubit before any gate, each gate followed by its depolarizing
/// channel, and relaxation after every one-qubit gate. With `noisy` unset
/// only the gate unitaries are emitted.
inline std::vector<NoisyChannel> hand_built_channels(
    const Circuit& low, const std::vector<FusedOp>& kernels,
    bool relax_first, bool noisy = true, int offset = 0) {
  std::vector<NoisyChannel> channels;
  auto relax = [&](int q) {
    if (!noisy) return;
    NoisyChannel ch;
    ch.kind = NoisyChannel::Kind::kRelaxation;
    ch.q[0] = q + offset;
    ch.param = 250.0;
    ch.t1_us = 80.0;
    ch.t2_us = 60.0;
    channels.push_back(ch);
  };
  if (relax_first) {
    for (int q = 0; q < low.num_qubits(); ++q) relax(q);
  }
  for (std::size_t i = 0; i < low.size(); ++i) {
    const Gate& g = low.ops()[i];
    if (g.kind == GateKind::Measure || g.kind == GateKind::Barrier) continue;
    NoisyChannel gate;
    gate.op = &kernels[i];
    for (std::size_t k = 0; k < g.qubits.size(); ++k) {
      gate.q[k] = g.qubits[k] + offset;
    }
    channels.push_back(gate);
    if (!noisy) continue;
    NoisyChannel depol = gate;
    depol.kind = NoisyChannel::Kind::kDepolarizing;
    depol.op = nullptr;
    depol.param = g.qubits.size() == 2 ? 0.02 : 0.004;
    channels.push_back(depol);
    if (g.qubits.size() == 1) relax(g.qubits[0]);
  }
  return channels;
}

}  // namespace qucp::testutil

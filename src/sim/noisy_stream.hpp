#pragma once
// Noisy channel streams for the density executor.
//
// Once the executor has scheduled a batch (ALAP alignment, crosstalk gamma
// per CX, idle gaps), each program's noise is a static sequence of
// channels on its local qubits: gate unitaries, the depolarizing channel
// after every gate, and thermal relaxation over every idle gap. That
// NoisyChannel list has two consumers:
//
//   - replay_channels() applies every channel as its own density sweep —
//     the per-op reference the fused path is tested against;
//   - NoisyStream::build() fuses the list into far fewer sweeps:
//       * each qubit's run of one-qubit channels (relaxation, unitaries,
//         depolarizing) between two-qubit gates folds into one 4x4
//         superoperator;
//       * a CX, its depolarizing channel, and any directly following CX
//         gates on the same pair (a lowered SWAP) fold into one
//         kern::PairChannel block pass; pending superoperators of X shape
//         (kern::XShape: relaxation, depolarizing, diagonal unitaries) ride
//         along as its pre-channels, anything else gets one dense 4x4 pass;
//       * relaxation on a qubit no gate has touched yet is dropped: on
//         |0><0| (x) rho it is exactly the identity;
//       * a superoperator still pending after a qubit's last gate that
//         maps populations to populations acts on the final probability
//         vector as a 2x2 stochastic map instead of sweeping rho.
//
// The fused stream is rebuilt per program per batch (gamma and gaps depend
// on the co-runners); building is O(channels) with 4x4 products only.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/kernels.hpp"

namespace qucp {

struct FusedOp;  // sim/fusion.hpp

/// One channel of a program's static noisy sequence, on local qubits, in
/// schedule order.
struct NoisyChannel {
  enum class Kind : std::uint8_t { kUnitary, kDepolarizing, kRelaxation };
  Kind kind = Kind::kUnitary;
  int q[2] = {-1, -1};          ///< operands; q[1] >= 0 for two-qubit channels
  const FusedOp* op = nullptr;  ///< kUnitary: the gate's precompiled kernels
  double param = 0.0;           ///< kDepolarizing: p; kRelaxation: idle ns
  double t1_us = 0.0;           ///< kRelaxation
  double t2_us = 0.0;           ///< kRelaxation

  [[nodiscard]] int width() const noexcept { return q[1] >= 0 ? 2 : 1; }
};

/// Per-op replay of `channels` on |0..0><0..0| over `num_qubits`: one
/// DensityMatrix call per channel. Returns the final populations.
[[nodiscard]] std::vector<double> replay_channels(
    int num_qubits, std::span<const NoisyChannel> channels);

/// A fused noisy channel stream (see the file comment).
class NoisyStream {
 public:
  /// Fuse `channels`. Two-qubit unitaries must be CX gates (the executor
  /// lowers everything else first); throws std::invalid_argument on
  /// channel parameters the per-op replay would also reject.
  [[nodiscard]] static NoisyStream build(
      int num_qubits, std::span<const NoisyChannel> channels);

  /// Replay on |0..0><0..0| and return the final populations.
  [[nodiscard]] std::vector<double> run() const;

  /// Sweeps over rho: dense one-qubit superoperator passes and fused pair
  /// passes; and the 2x2 maps applied to the probability vector instead.
  [[nodiscard]] std::size_t dense_passes() const noexcept;
  [[nodiscard]] std::size_t pair_passes() const noexcept;
  [[nodiscard]] std::size_t population_maps() const noexcept {
    return maps_.size();
  }

 private:
  struct Op {
    bool pair = false;
    int q[2] = {-1, -1};            ///< pair: (hi, lo); else q[0]
    kern::CompiledUnitary superop;  ///< !pair: 4x4 on (q + n, q)
    kern::PairChannel channel;      ///< pair
  };
  struct PopulationMap {
    int q = 0;
    double m00 = 1.0, m01 = 0.0, m10 = 0.0, m11 = 1.0;
  };

  int num_qubits_ = 0;
  std::vector<Op> ops_;
  std::vector<PopulationMap> maps_;
};

}  // namespace qucp

#pragma once
// Noisy channel streams for the density executor.
//
// Once the executor has scheduled a batch (ALAP alignment, crosstalk gamma
// per CX, idle gaps), each program's noise is a static sequence of
// channels on its local qubits: gate unitaries, the depolarizing channel
// after every gate, and thermal relaxation over every idle gap. That
// NoisyChannel list has two consumers:
//
//   - replay_channels() applies every channel as its own sweep over the
//     full 4^n density matrix — the per-op reference the stream is tested
//     against;
//   - NoisyStream::build() fuses the list into far fewer sweeps, each over
//     the program's live qubits only:
//       * each qubit's run of one-qubit channels (relaxation, unitaries,
//         depolarizing) between two-qubit gates folds into one 4x4
//         superoperator;
//       * a CX, its depolarizing channel, and any directly following CX
//         gates on the same pair (a lowered SWAP) fold into one
//         kern::PairChannel block pass; pending superoperators of X shape
//         (kern::XShape: relaxation, depolarizing, diagonal unitaries) ride
//         along as its pre-channels, anything else gets one dense 4x4 pass;
//       * a qubit is a product factor until its first CX, so it joins the
//         state there (birth) as the 2x2 density matrix its pending
//         superoperator makes of |0><0|;
//       * after its last CX a qubit only contributes its populations: its
//         trailing superoperator is applied once, the two population
//         entries of each 2x2 block are kept and its row bit is dropped
//         (retirement); its column bit stays on as a classical bit;
//       * a qubit with no CX joins only as that classical bit, at the end.
//
// The state is the superket of the live qubits, compressed: of the full
// layout's bit ids (column bit q, row bit q + n) only those present at
// that moment are stored, a bit's position being the number of present
// ids below it. build() resolves every op's positions and the peak state
// size (at most the 2n bits of a full rho); run() allocates 2^peak
// elements once and walks the ops. Once every qubit has retired or joined,
// only the n column bits remain, in order, so the buffer is the
// probability vector.
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

/// A fused noisy channel stream over live qubits (see the file comment).
class NoisyStream {
 public:
  /// Largest accepted width, and largest state a stream may peak at
  /// (2^24 elements, 256 MiB: a 12-qubit density matrix).
  static constexpr int kMaxQubits = 24;
  static constexpr int kMaxStateBits = 24;

  /// Fuse `channels`. Two-qubit unitaries must be CX gates (the executor
  /// lowers everything else first). Throws std::invalid_argument on
  /// channel parameters the per-op replay would also reject, on widths
  /// above kMaxQubits, and — before any state is allocated — on streams
  /// whose live state would exceed kMaxStateBits bits; std::out_of_range
  /// on an operand outside [0, num_qubits).
  [[nodiscard]] static NoisyStream build(
      int num_qubits, std::span<const NoisyChannel> channels);

  /// Replay on |0..0><0..0| and return the final populations.
  [[nodiscard]] std::vector<double> run() const;

  /// Sweeps over the state: dense one-qubit superoperator passes and
  /// fused pair passes (births, retirements and joins not counted).
  [[nodiscard]] std::size_t dense_passes() const noexcept;
  [[nodiscard]] std::size_t pair_passes() const noexcept;
  /// Largest number of superket bits held at once (2n for a full rho).
  [[nodiscard]] int peak_state_bits() const noexcept { return peak_bits_; }

 private:
  struct Op {
    enum class Kind : std::uint8_t { kBirth, kDense, kPair, kRetire, kJoin };
    Kind kind = Kind::kPair;
    int q[2] = {-1, -1};  ///< operands (qubit ids); kPair: (hi, lo)
    int bits = 0;         ///< state bits before the op
    int col = 0;          ///< the qubit's column bit position (not kPair)
    int row = 0;          ///< its row bit position (kBirth/kDense/kRetire)
    /// kBirth: the qubit's 2x2 rho, local index (row << 1) | column;
    /// kRetire: rows 0 and 3 of its trailing superoperator;
    /// kJoin: its populations (p0, p1).
    cx coef[8] = {};
    /// kBirth/kRetire: the coefficients couple populations only, through
    /// real values (a 2x2 rho with zero coherences; rows 0 and 3 reading
    /// entries 0 and 3 alone), so run() takes its real-only path.
    bool populations = false;
    kern::CompiledUnitary superop;            ///< kDense: 4x4 on (row, col)
    kern::PairChannel channel;                ///< kPair
    kern::PairGeometry geometry{0, 1, 2, 3};  ///< kPair
  };

  int num_qubits_ = 0;
  int peak_bits_ = 0;
  std::vector<Op> ops_;
};

}  // namespace qucp

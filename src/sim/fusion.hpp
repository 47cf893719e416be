#pragma once
// Program-level gate fusion and per-program kernel compilation.
//
// A CompiledProgram walks a Circuit once and fuses maximal runs of
// adjacent gates into single dense kernels:
//
//   - consecutive 1q gates on the same qubit collapse into one 2x2, so a
//     rotation ladder pays one kernel sweep instead of one per gate;
//   - 1q gates adjacent to a 2q gate on a shared qubit are absorbed into
//     that gate's 4x4, as are consecutive 2q gates on the same qubit pair
//     (in either operand order).
//
// The existing compiled-gate classification (kern::compile_unitary:
// diag / antidiag / CX / SWAP / generalized-permutation / dense) is then
// re-applied to each fused product, so fusion that lands back on a
// structured matrix (e.g. an RZ ladder fusing to a diagonal) still takes
// the cheap kernel path. Fusion never reorders across barriers or
// measurements: a barrier or measure closes every block it touches, and
// blocks only absorb gates on their own qubits, so any two non-commuting
// ops keep their program order. Fused replay therefore agrees with
// gate-by-gate replay to simulation accuracy (pinned at <= 1e-10 by
// tests/test_fusion.cpp).
//
// Fusion itself is split in two. A FusionPlan is the *structural* half:
// which gates land in which blocks, the exact order of matrix products,
// and what gets emitted — everything the fusion state machine decides,
// none of which depends on parameter values (adjacency and operand
// overlap are pure structure). CompiledProgram::materialize() replays a
// plan against a concrete circuit's gate matrices, performing the same
// multiplications in the same order the from-scratch path would, so the
// result is bit-identical to CompiledProgram::compile() — which is now
// literally materialize(FusionPlan::build(c), c). Plans are cached per
// structural_fingerprint in CompiledProgramCache, so a parameter sweep
// over one ansatz re-runs only the cheap matrix products per iteration,
// never the fusion walk.
//
// CompiledExecutable is the unfused sibling for the noisy executor: the
// CX-lowered circuit plus per-op precompiled kernels (including the
// superket forms DensityMatrix needs), which the executor's per-program
// noisy channel lists point at (sim/noisy_stream.hpp) — arithmetic
// identical to the uncompiled path bit for bit when replayed per op.
// CompiledProgramCache memoizes both per circuit fingerprint and lives on
// a Backend next to GateMatrixCache and CandidateIndex.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/counts.hpp"
#include "sim/kernels.hpp"

namespace qucp {

class GateMatrixCache;  // circuit/gate_cache.hpp

/// One fused (or per-op compiled) unitary with every kernel form the
/// simulators need, precompiled:
///   - `sv`: the k-qubit unitary itself (statevector replay; for k == 2 it
///     doubles as the density row pass over the superket's row bits);
///   - `dm`: the superket companion for density replay — k == 1: the
///     compiled 4x4 U (x) conj(U) gate, k == 2: the compiled conj(U)
///     column pass.
struct FusedOp {
  kern::CompiledUnitary sv;
  kern::CompiledUnitary dm;
  int q[2] = {-1, -1};  ///< qubit operands; q[0] = high local bit for k == 2

  [[nodiscard]] int k() const noexcept { return sv.k; }
  /// False for the placeholder entries a CompiledExecutable keeps at
  /// barrier/measure positions.
  [[nodiscard]] bool is_unitary() const noexcept { return q[0] >= 0; }
};

/// The structural half of fusion: the block layout and the exact ordered
/// sequence of matrix operations the fusion state machine performs on a
/// circuit of a given structure. Built once per structural_fingerprint
/// and replayed against any circuit sharing that structure (same kinds,
/// operands, order — parameter values free).
class FusionPlan {
 public:
  enum class Op : std::uint8_t {
    kNew1,      ///< open 1q block `block` from gate `gate`'s 2x2
    kMul1,      ///< block.m = gate * block.m (2x2)
    kLift1Mul,  ///< block.m = lift1(gate, flag=high) * block.m (4x4)
    kNew2,      ///< open 2q block `block` from gate `gate`'s 4x4
    kMul2,      ///< block.m = gate * block.m (4x4; flag = operand-swapped)
    kAbsorb,    ///< block.m = block.m * lift1(block `src`, flag=high)
    kEmit,      ///< classify + emit block `block` as the next FusedOp
  };
  struct Step {
    Op op = Op::kEmit;
    std::uint32_t block = 0;  ///< target block id
    std::uint32_t gate = 0;   ///< source op index (matrix-consuming steps)
    std::uint32_t src = 0;    ///< kAbsorb: absorbed 1q block id
    bool flag = false;        ///< high-operand lift / operand-swapped mul
  };
  struct BlockInfo {
    std::uint8_t k = 0;
    int q0 = -1;
    int q1 = -1;
  };

  /// Run the fusion state machine over `circuit`, recording structure only.
  [[nodiscard]] static FusionPlan build(const Circuit& circuit);

  [[nodiscard]] const std::vector<Step>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] const std::vector<BlockInfo>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] const std::vector<std::pair<int, int>>& measurements()
      const noexcept {
    return measurements_;
  }
  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] int num_clbits() const noexcept { return num_clbits_; }
  [[nodiscard]] std::size_t source_gate_count() const noexcept {
    return source_gates_;
  }
  /// Op count of the circuit the plan was built from (materialize guard).
  [[nodiscard]] std::size_t source_size() const noexcept {
    return source_size_;
  }
  /// FusedOps an emit pass produces (kEmit step count).
  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }

 private:
  int num_qubits_ = 0;
  int num_clbits_ = 0;
  std::vector<Step> steps_;
  std::vector<BlockInfo> blocks_;
  std::vector<std::pair<int, int>> measurements_;
  std::size_t source_gates_ = 0;
  std::size_t source_size_ = 0;
  std::size_t emitted_ = 0;
};

/// A circuit compiled to a fused kernel stream plus its measurement map.
class CompiledProgram {
 public:
  /// Fuse and compile `circuit`. Accepts any simulable circuit (unitary
  /// gates, barriers, measurements). Equivalent to (and implemented as)
  /// materialize(FusionPlan::build(circuit), circuit).
  [[nodiscard]] static CompiledProgram compile(const Circuit& circuit);

  /// Replay `plan` against `circuit`'s gate matrices. `circuit` must have
  /// the structure the plan was built from (same structural_fingerprint);
  /// throws std::invalid_argument on an op-count/qubit-count mismatch.
  /// Bit-identical to compile(circuit): same products, same order.
  [[nodiscard]] static CompiledProgram materialize(const FusionPlan& plan,
                                                   const Circuit& circuit);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] int num_clbits() const noexcept { return num_clbits_; }
  /// Fused unitary stream, in a program-order-compatible interleaving.
  [[nodiscard]] const std::vector<FusedOp>& ops() const noexcept {
    return ops_;
  }
  /// (qubit, clbit) pairs in program order.
  [[nodiscard]] const std::vector<std::pair<int, int>>& measurements()
      const noexcept {
    return measurements_;
  }
  /// Unitary gates in the source circuit (what fusion started from).
  [[nodiscard]] std::size_t source_gate_count() const noexcept {
    return source_gates_;
  }

 private:
  int num_qubits_ = 0;
  int num_clbits_ = 0;
  std::vector<FusedOp> ops_;
  std::vector<std::pair<int, int>> measurements_;
  std::size_t source_gates_ = 0;
};

/// A physical program compiled for the noisy executor: lowered to the CX
/// basis once, with per-op kernels precompiled and aligned 1:1 with
/// `lowered.ops()` (non-unitary positions hold placeholder entries). The
/// executor's noisy channel lists reference these per-op kernels; the
/// fused compilation of the compacted lowered circuit rides along for
/// noiseless runs (gate_noise and idle_noise both off), so a cached
/// executable answers both without per-call recompaction.
class CompiledExecutable {
 public:
  [[nodiscard]] static CompiledExecutable compile(
      const Circuit& physical, GateMatrixCache* matrices = nullptr);

  [[nodiscard]] const Circuit& lowered() const noexcept { return lowered_; }
  [[nodiscard]] const std::vector<FusedOp>& channels() const noexcept {
    return channels_;
  }
  /// Fused kernel stream of lowered().compacted() — active qubit i of the
  /// lowered circuit is local bit i, the executor's partition mapping.
  [[nodiscard]] const CompiledProgram& fused_compacted() const noexcept {
    return *fused_compacted_;
  }

 private:
  friend class CompiledProgramCache;  // assembles executables against its
                                      // plan-aware fused() path
  Circuit lowered_;
  std::vector<FusedOp> channels_;
  std::shared_ptr<const CompiledProgram> fused_compacted_;
};

/// Per-op (unfused) kernel compilation for an arbitrary circuit: entry i
/// corresponds to circuit.ops()[i]; barrier/measure positions are
/// placeholders with is_unitary() == false.
[[nodiscard]] std::vector<FusedOp> compile_ops(const Circuit& circuit,
                                               GateMatrixCache* matrices =
                                                   nullptr);

/// Exact outcome distribution of a compiled (fused) program under ideal
/// execution — the cached-program fast path of
/// ideal_distribution(const Circuit&).
[[nodiscard]] Distribution ideal_distribution(const CompiledProgram& program);

/// Thread-safe per-Backend memo of compiled programs, keyed by circuit
/// fingerprint like the transpile cache. Entries are returned as
/// shared_ptr so FIFO eviction can never invalidate a program a simulation
/// is replaying. Bounded: an endless stream of distinct circuits evicts
/// oldest-first instead of growing without limit.
///
/// A program enters the exact-fingerprint memo on its second sighting.
/// The first sighting records only the fingerprint (and a weak reference,
/// so a repeat while the first program is still in use returns that same
/// object). A circuit that recurs is served from the memo from then on; a
/// parameter sweep's fresh-angle programs are never seen twice and are
/// never held, while their fusion walk is still shared through the
/// structural plan cache.
class CompiledProgramCache {
 public:
  static constexpr std::size_t kMaxEntries = 1 << 10;

  /// Fused compilation of `circuit` (ideal pipeline).
  [[nodiscard]] std::shared_ptr<const CompiledProgram> fused(
      const Circuit& circuit) const;

  /// Lowered + per-op compilation of `physical` (noisy pipeline).
  /// `matrices` (optional) memoizes the gate unitaries built during
  /// compilation.
  [[nodiscard]] std::shared_ptr<const CompiledExecutable> executable(
      const Circuit& physical, GateMatrixCache* matrices = nullptr) const;

  /// Distinct programs currently held (fused + executable).
  [[nodiscard]] std::size_t entries() const;

  /// Fusion walks actually performed / avoided via the plan cache.
  [[nodiscard]] std::uint64_t plan_builds() const;
  [[nodiscard]] std::uint64_t plan_hits() const;

 private:
  /// Fusion plan for `circuit`'s structure, memoized per
  /// structural_fingerprint (`structural_key`). Exact-fingerprint misses
  /// in fused() and executable() go through here, so a parameter sweep
  /// over one ansatz runs the fusion walk once and only re-materializes
  /// matrices.
  [[nodiscard]] std::shared_ptr<const FusionPlan> plan_for(
      std::uint64_t structural_key, const Circuit& circuit) const;

  /// FIFO-bounded map from fingerprint to entry.
  template <class T>
  struct FifoMap {
    std::unordered_map<std::uint64_t, T> map;
    std::deque<std::uint64_t> order;

    /// Inserts `value` unless `key` is held; returns the held entry.
    T& put(const std::uint64_t key, T value) {
      auto [it, inserted] = map.emplace(key, std::move(value));
      if (inserted) {
        order.push_back(key);
        if (map.size() > kMaxEntries) {
          map.erase(order.front());
          order.pop_front();
        }
      }
      return it->second;
    }
  };

  /// Exact-fingerprint memo with second-sighting admission (see the class
  /// comment). Both members are called under `mutex_`.
  template <class T>
  struct ExactMemo {
    FifoMap<std::shared_ptr<const T>> held;
    FifoMap<std::weak_ptr<const T>> seen;  ///< first sightings

    /// Held entry for `key`, or a seen one still alive elsewhere (which
    /// is admitted); nullptr on a miss.
    std::shared_ptr<const T> find(const std::uint64_t key) {
      if (auto it = held.map.find(key); it != held.map.end()) return it->second;
      if (auto it = seen.map.find(key); it != seen.map.end()) {
        if (auto live = it->second.lock()) {
          return held.put(key, std::move(live));
        }
      }
      return nullptr;
    }

    /// Records `built` after a miss: admitted if `key` was seen before,
    /// else remembered as a first sighting. Returns the entry to use.
    std::shared_ptr<const T> admit(const std::uint64_t key,
                                   std::shared_ptr<const T> built) {
      if (auto it = held.map.find(key); it != held.map.end()) return it->second;
      if (seen.map.count(key) != 0) return held.put(key, std::move(built));
      seen.put(key, built);
      return built;
    }
  };

  mutable std::mutex mutex_;
  mutable ExactMemo<CompiledProgram> fused_;
  mutable ExactMemo<CompiledExecutable> executables_;
  mutable FifoMap<std::shared_ptr<const FusionPlan>>
      plans_;  ///< keyed by structural_fingerprint, admitted on first build
  mutable std::uint64_t plan_builds_ = 0;
  mutable std::uint64_t plan_hits_ = 0;
};

}  // namespace qucp

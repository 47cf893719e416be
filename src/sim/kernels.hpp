#pragma once
// Statevector-style update kernels shared by Statevector and DensityMatrix.
//
// A k-qubit unitary on an n-qubit amplitude vector touches each amplitude
// once: the 2^(n-k) "base" indices (target bits clear) are enumerated
// directly by bit-insertion — spread a dense counter across the non-target
// bit positions — instead of skip-scanning all 2^n indices and discarding
// the ones with a target bit set. The k = 1 and k = 2 cases (the only
// sizes the executor ever emits) are hand-specialized with the amplitudes
// held in registers; larger k falls back to a gather/apply/scatter loop
// over a caller-owned scratch buffer, so no kernel allocates.
//
// DensityMatrix reuses these kernels by treating rho as a superket of
// length dim^2: rho -> U rho U^dag is (U (x) conj(U)) |rho>, i.e. one
// statevector pass with U on the row bits (q + n) and one with conj(U) on
// the column bits (q).
//
// Kernels whose base loop is large are split into disjoint index ranges
// that run as tasks on the process-wide simulation pool
// (sim/task_pool.hpp), unless the caller is already a pool task: a batch's
// programs are simulated one per pool task, and their kernels stay on that
// task's thread. Small states — everything the paper's <= 5-qubit
// programs produce — stay single-threaded.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "sim/task_pool.hpp"

namespace qucp::kern {

/// Base loops at least this large are split across pool threads.
inline constexpr std::size_t kParallelGrain = std::size_t{1} << 16;

/// CPU SIMD capabilities relevant to the dense kernels, probed via cpuid.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// Probe the executing CPU (not the compile target) for AVX2/FMA.
[[nodiscard]] CpuFeatures detect_cpu_features() noexcept;

/// True when this binary carries the AVX2/FMA kernel variants: every
/// x86-64 build whose compiler accepts -march=x86-64-v3.
[[nodiscard]] bool native_kernels_compiled() noexcept;

/// True when dense 1q/2q kernels currently dispatch to the AVX2/FMA
/// variants: compiled in, CPU supports avx2+fma, and not disabled via
/// set_native_kernels(false) or QUCP_NATIVE_KERNELS=0 in the environment.
[[nodiscard]] bool native_kernels_active() noexcept;

/// Enable/disable the native dense kernels at runtime (process-wide).
/// A no-op beyond bookkeeping when they are not compiled in or the CPU
/// lacks the features; used by benches and golden tests to compare the
/// scalar and SIMD paths within one binary.
void set_native_kernels(bool enable) noexcept;

/// Worker-thread cap resolution rule for parallel_for, exposed as a pure
/// function so the edge cases are testable: an explicit override (> 0)
/// wins, then a positive integer in `env_value` (the QUCP_KERNEL_THREADS
/// variable), then `hardware` — where 0, which the standard allows
/// hardware_concurrency() to report when the core count is unknown, maps
/// to 1 instead of poisoning the chunk math. Always returns >= 1.
[[nodiscard]] int resolve_parallel_threads(int override_threads,
                                           const char* env_value,
                                           unsigned hardware) noexcept;

/// The cap of a thread without an override: QUCP_KERNEL_THREADS, else the
/// hardware concurrency (resolved once; glibc re-reads sysfs per call).
/// Also the simulation pool's width. >= 1.
[[nodiscard]] int ambient_parallel_threads() noexcept;

/// Effective cap for the calling thread — how many tasks one run_tasks()
/// or parallel_for() call may run at once: the thread-local override when
/// set, else ambient_parallel_threads(). >= 1.
[[nodiscard]] int parallel_threads() noexcept;

/// Set (n > 0) or clear (n <= 0) the calling thread's cap.
void set_parallel_threads(int n) noexcept;

/// Scoped thread cap: applies `n` for the guard's lifetime when n > 0, a
/// no-op otherwise. Restores the previous override either way.
class ParallelThreadsGuard {
 public:
  explicit ParallelThreadsGuard(int n) noexcept;
  ~ParallelThreadsGuard();
  ParallelThreadsGuard(const ParallelThreadsGuard&) = delete;
  ParallelThreadsGuard& operator=(const ParallelThreadsGuard&) = delete;

 private:
  int previous_;
};

/// Run fn(begin, end) over [0, count), split into up to
/// parallel_threads() chunks that run as pool tasks when count is at least
/// 2 * grain (kernels whose iterations are heavier than one element pass a
/// smaller grain) and the caller is not itself a pool task. fn must be
/// race-free on disjoint ranges. Every chunk has finished on return.
template <typename F>
void parallel_for(std::size_t count, F&& fn,
                  std::size_t grain = kParallelGrain) {
  const auto max_workers = static_cast<std::size_t>(parallel_threads());
  if (count < 2 * grain || max_workers <= 1 || in_pool_task()) {
    fn(std::size_t{0}, count);
    return;
  }
  // Both operands are >= 2 here (count >= 2 * grain and max_workers >= 2),
  // so the chunk math below never divides by zero or strands elements.
  const std::size_t num_chunks =
      std::min<std::size_t>(max_workers, count / grain);
  const std::size_t chunk = (count + num_chunks - 1) / num_chunks;
  run_tasks((count + chunk - 1) / chunk, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    fn(begin, std::min(count, begin + chunk));
  });
}

/// Insert a zero bit at position `bit`: the counter's bits at and above
/// `bit` shift up one, producing the base index with that bit clear.
[[nodiscard]] inline std::size_t insert_bit(std::size_t counter,
                                            int bit) noexcept {
  const std::size_t low = (std::size_t{1} << bit) - 1;
  return ((counter & ~low) << 1) | (counter & low);
}

/// A 1- or 2-qubit unitary pre-classified for the fast paths below:
/// the structure tag (diagonal / antidiagonal / CX / SWAP / generalized
/// permutation / dense) and the unpacked real/imaginary coefficients are
/// computed once, so replayed gates skip per-call detection entirely.
struct CompiledUnitary {
  enum class Tag : std::uint8_t {
    kDiag1,   ///< diag(v0, v1): Z, S, T, RZ, U1
    kAnti1,   ///< antidiag(v0, v1): X, Y
    kDense1,  ///< general 2x2
    kCxPerm,  ///< CX pattern: swap the hi=1 pair
    kSwapPerm,///< SWAP pattern: exchange the mixed pair
    kDiag2,   ///< diagonal 4x4: CZ, controlled phases
    kPerm2,   ///< generalized permutation 4x4
    kDense2,  ///< general 4x4
  };
  Tag tag = Tag::kDense1;
  int k = 1;           ///< operand count (1 or 2)
  int src[4] = {};     ///< kPerm2: source local index per row
  double re[16] = {};  ///< coefficients (dense: row-major; perm/diag: per row)
  double im[16] = {};
};

/// Classify and unpack a 1q (u.size() == 4) or 2q (u.size() == 16)
/// row-major unitary.
[[nodiscard]] CompiledUnitary compile_unitary(std::span<const cx> u);

/// Apply a compiled 1q/2q unitary; targets follows gate_matrix's operand
/// order (targets[0] = high local bit).
void apply_compiled(std::span<cx> amps, int n, std::span<const int> targets,
                    const CompiledUnitary& cu);

/// Apply the 1-qubit matrix u (row-major, u[0]=u00 u[1]=u01 ...) to bit
/// `target` of `amps` (size 2^n).
void apply1(std::span<cx> amps, int n, int target, const cx u[4]);

/// Apply the 2-qubit matrix u (row-major 4x4; local basis index is
/// (bit_hi << 1) | bit_lo) to bits `bit_hi`/`bit_lo` of `amps`.
void apply2(std::span<cx> amps, int n, int bit_hi, int bit_lo,
            const cx u[16]);

/// Generic k-qubit kernel. `targets` lists bit positions with targets[0]
/// the HIGH local bit (gate_matrix convention); u is row-major 2^k x 2^k.
/// `scratch` is resized to 2^k + k bookkeeping slots and reused.
void apply_generic(std::span<cx> amps, int n, std::span<const int> targets,
                   const cx* u, std::vector<cx>& scratch);

/// Dispatch on targets.size(): specialized k=1/k=2 kernels, generic
/// fallback otherwise. `u` must be a 2^k x 2^k row-major matrix given as a
/// flat span (Matrix::data()). When `conjugate` is set the complex
/// conjugate of u is applied (used for the superket column pass) without
/// materializing a conjugated matrix for k <= 2.
void apply_unitary(std::span<cx> amps, int n, std::span<const int> targets,
                   std::span<const cx> u, bool conjugate,
                   std::vector<cx>& scratch);

/// A one-qubit density superoperator of "X shape" on superket bits
/// (q + n, q): the populations mix only with each other through real
/// coefficients and each coherence is scaled on its own,
///   p00' = a00 p00 + a03 p11,   p01' = z01 p01,
///   p11' = a30 p00 + a33 p11,   p10' = z10 p10.
/// Thermal relaxation, depolarizing and diagonal unitaries all have this
/// shape, and it is closed under composition.
struct XShape {
  double a00 = 1.0, a03 = 0.0, a30 = 0.0, a33 = 1.0;
  double z01r = 1.0, z01i = 0.0, z10r = 1.0, z10i = 0.0;
};

/// One fused two-qubit block channel on a density superket, for operands
/// (hi, lo) with local value s = (bit_hi << 1) | bit_lo: optional X-shaped
/// pre-channels on both operands, then a permutation of the operand pair's
/// basis states (s -> dst[s], a product of CX gates), then the uniform
/// two-qubit depolarizing contraction rho -> c1 rho + (1 - c1) tr_local(rho)
/// (x) I/4. Depolarizing commutes with any unitary on its own operands, so
/// a run of CX gates with their depolarizing channels folds into one pass.
struct PairChannel {
  int dst[4] = {0, 1, 2, 3};
  double c1 = 1.0;
  double fill_scale = 0.0;  ///< (1 - c1) / 4
  bool pre = false;         ///< apply pre_hi / pre_lo first
  XShape pre_hi;
  XShape pre_lo;
};

/// Superket geometry of a PairChannel: the four target bit positions
/// ascending, and the per-local-value offsets of the operands' row and
/// column bits.
struct PairGeometry {
  int positions[4] = {};
  std::size_t row_off[4] = {};
  std::size_t col_off[4] = {};

  /// Any four distinct bit positions, in any order: a compressed superket
  /// keeps only the bits of live qubits.
  PairGeometry(int row_hi, int col_hi, int row_lo, int col_lo);
  /// The full n-qubit density matrix: row bit q + n, column bit q.
  PairGeometry(int n, int hi, int lo);
};

/// Apply `ch` to every 16-element block of the superket `rho` (length
/// 16 * blocks, geometry `geo`): one gather, the pre-channels, the permutation and
/// the depolarizing refill, one scatter. Blockwise with no cross-block
/// reduction, so the result does not depend on how parallel_for splits it.
void apply_pair_channel(cx* rho, std::size_t blocks, const PairGeometry& geo,
                        const PairChannel& ch);

namespace detail {

// Internal range bodies of the dense 1q/2q kernels, dispatched per CPU.
// The _avx2 variants live in kernels_avx2.cpp, compiled for x86-64-v3 on
// every x86-64 build and only ever called after a cpuid check; the scalar
// bodies in kernels.cpp are the portable fallback.
void dense1_range_avx2(cx* a, std::size_t begin, std::size_t end, int target,
                       std::size_t mask, const CompiledUnitary& cu);
void dense2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                       std::size_t mh, std::size_t ml, int p0, int p1,
                       const CompiledUnitary& cu);
void diag2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu);
void perm2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu);

// Range body of the fused pair channel (apply_pair_channel).
void pair_range_avx2(cx* rho, std::size_t begin, std::size_t end,
                     const PairGeometry& geo, const PairChannel& ch);

// 4x4 complex matrix products for FusionPlan::materialize's per-binding
// block assembly (sim/fusion.cpp) — the matmul chain an angle sweep replays
// per binding. All matrices are row-major spans of cx; `out` may alias
// either operand (products accumulate in registers and store once).
// Results match the scalar products to ~1 ulp per term (FMA), not bitwise.
//
// mul4_avx2:      out = a * b
// swap_mul4_avx2: m = swap_operands(u) * m, the operand-reorder fused into
//                 the coefficient loads (swapped(u)[r][c] = u[s[r]][s[c]],
//                 s = {0,2,1,3}) so no reordered copy is materialized.
// lift_mul4_avx2: m = lift1(u, high) * m for a 2x2 `u`, exploiting the
//                 lifted matrix's sparsity: each output row mixes two rows
//                 of m (8 complex row-scale FMAs instead of a full mul4).
// mul4_lift_avx2: m = m * lift1(u, high), the kAbsorb orientation; each
//                 output row mixes columns of the same row of m.
void mul4_avx2(cx* out, const cx* a, const cx* b);
void swap_mul4_avx2(cx* m, const cx* u);
void lift_mul4_avx2(cx* m, const cx* u, bool high);
void mul4_lift_avx2(cx* m, const cx* u, bool high);

}  // namespace detail

}  // namespace qucp::kern

#include "sim/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <thread>

namespace qucp::kern {

namespace {

/// Per-thread cap override (0 = unset). Thread-local so each caller caps
/// its own fan-out independently.
thread_local int t_parallel_threads_override = 0;

/// Process-wide runtime switch for the native kernels. Starts from the
/// QUCP_NATIVE_KERNELS environment variable ("0" disables) so one binary
/// can be A/B'd, and its scalar fallback tested, without recompiling.
std::atomic<bool>& native_enabled_flag() noexcept {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("QUCP_NATIVE_KERNELS");
    return !(env != nullptr && *env == '0');
  }()};
  return flag;
}

/// cpuid says the AVX2/FMA variants may run on this machine (probed once;
/// the answer cannot change at runtime).
bool native_supported() noexcept {
  static const bool supported = [] {
    const CpuFeatures f = detect_cpu_features();
    return native_kernels_compiled() && f.avx2 && f.fma;
  }();
  return supported;
}

}  // namespace

CpuFeatures detect_cpu_features() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
#endif
  return f;
}

bool native_kernels_compiled() noexcept {
#if defined(QUCP_AVX2_KERNELS)
  return true;
#else
  return false;
#endif
}

bool native_kernels_active() noexcept {
  return native_supported() &&
         native_enabled_flag().load(std::memory_order_relaxed);
}

void set_native_kernels(bool enable) noexcept {
  native_enabled_flag().store(enable, std::memory_order_relaxed);
}

int resolve_parallel_threads(int override_threads, const char* env_value,
                             unsigned hardware) noexcept {
  if (override_threads > 0) return override_threads;
  if (env_value != nullptr) {
    // strtol, not atoi: out-of-range input must clamp, not be UB.
    const long parsed = std::strtol(env_value, nullptr, 10);
    if (parsed > 0) {
      return static_cast<int>(
          std::min<long>(parsed, std::numeric_limits<int>::max()));
    }
  }
  // hardware_concurrency() == 0 is a legal "unknown" answer; treat it as a
  // single core rather than letting it zero out the split arithmetic.
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

int ambient_parallel_threads() noexcept {
  // Resolve env + hardware once: both re-read the OS on every call.
  static const int ambient = resolve_parallel_threads(
      0, std::getenv("QUCP_KERNEL_THREADS"),
      std::thread::hardware_concurrency());
  return ambient;
}

int parallel_threads() noexcept {
  if (t_parallel_threads_override > 0) return t_parallel_threads_override;
  return ambient_parallel_threads();
}

void set_parallel_threads(int n) noexcept {
  t_parallel_threads_override = n > 0 ? n : 0;
}

ParallelThreadsGuard::ParallelThreadsGuard(int n) noexcept
    : previous_(t_parallel_threads_override) {
  if (n > 0) t_parallel_threads_override = n;
}

ParallelThreadsGuard::~ParallelThreadsGuard() {
  t_parallel_threads_override = previous_;
}

namespace {

/// Sorted copy of up to 2 * 12 + 4 target bit positions (stack-only).
struct SortedBits {
  int bits[32];
  int count = 0;

  explicit SortedBits(std::span<const int> targets) {
    assert(targets.size() <= std::size(bits));
    count = static_cast<int>(targets.size());
    std::copy(targets.begin(), targets.end(), bits);
    std::sort(bits, bits + count);
  }
};

/// Spread a dense counter over the non-target bit positions: insert a zero
/// bit at each (ascending) target position.
[[nodiscard]] inline std::size_t expand(std::size_t counter,
                                        const SortedBits& sorted) noexcept {
  for (int j = 0; j < sorted.count; ++j) {
    counter = insert_bit(counter, sorted.bits[j]);
  }
  return counter;
}

/// A gate matrix with exactly one nonzero per row is a generalized
/// permutation (CX, CZ, SWAP, Z, S, T, RZ, U1, X, Y, ...): each output
/// amplitude is one scaled input amplitude. Detecting it once per compile
/// removes almost all of the multiplies for the most common gates in
/// lowered circuits.
template <std::size_t LDIM>
bool as_generalized_permutation(const cx* u, int src[LDIM], cx val[LDIM]) {
  for (std::size_t r = 0; r < LDIM; ++r) {
    int nonzero = -1;
    for (std::size_t c = 0; c < LDIM; ++c) {
      const cx v = u[r * LDIM + c];
      if (v.real() != 0.0 || v.imag() != 0.0) {
        if (nonzero >= 0) return false;
        nonzero = static_cast<int>(c);
      }
    }
    if (nonzero < 0) return false;
    src[r] = nonzero;
    val[r] = u[r * LDIM + nonzero];
  }
  return true;
}

// --- specialized loops; coefficients come pre-unpacked from the compile
// step so replayed gates pay no detection or extraction. All dense paths
// expand complex arithmetic over doubles: same formula and association as
// std::complex operator* but without its NaN-recovery branch (__muldc3),
// which the optimizer cannot remove from the std::complex path.

void run_diag1(cx* a, std::size_t pairs, int target, std::size_t mask,
               const CompiledUnitary& cu) {
  const double v0r = cu.re[0], v0i = cu.im[0];
  const double v1r = cu.re[1], v1i = cu.im[1];
  parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t i0 = insert_bit(t, target);
      const std::size_t i1 = i0 | mask;
      const double a0r = a[i0].real(), a0i = a[i0].imag();
      const double a1r = a[i1].real(), a1i = a[i1].imag();
      a[i0] = cx{v0r * a0r - v0i * a0i, v0r * a0i + v0i * a0r};
      a[i1] = cx{v1r * a1r - v1i * a1i, v1r * a1i + v1i * a1r};
    }
  });
}

void run_anti1(cx* a, std::size_t pairs, int target, std::size_t mask,
               const CompiledUnitary& cu) {
  const double v0r = cu.re[0], v0i = cu.im[0];
  const double v1r = cu.re[1], v1i = cu.im[1];
  parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t i0 = insert_bit(t, target);
      const std::size_t i1 = i0 | mask;
      const double a0r = a[i0].real(), a0i = a[i0].imag();
      const double a1r = a[i1].real(), a1i = a[i1].imag();
      a[i0] = cx{v0r * a1r - v0i * a1i, v0r * a1i + v0i * a1r};
      a[i1] = cx{v1r * a0r - v1i * a0i, v1r * a0i + v1i * a0r};
    }
  });
}

void dense1_range_scalar(cx* a, std::size_t begin, std::size_t end, int target,
                         std::size_t mask, const CompiledUnitary& cu) {
  const double u00r = cu.re[0], u00i = cu.im[0];
  const double u01r = cu.re[1], u01i = cu.im[1];
  const double u10r = cu.re[2], u10i = cu.im[2];
  const double u11r = cu.re[3], u11i = cu.im[3];
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t i0 = insert_bit(t, target);
    const std::size_t i1 = i0 | mask;
    const double a0r = a[i0].real(), a0i = a[i0].imag();
    const double a1r = a[i1].real(), a1i = a[i1].imag();
    a[i0] = cx{u00r * a0r - u00i * a0i + u01r * a1r - u01i * a1i,
               u00r * a0i + u00i * a0r + u01r * a1i + u01i * a1r};
    a[i1] = cx{u10r * a0r - u10i * a0i + u11r * a1r - u11i * a1i,
               u10r * a0i + u10i * a0r + u11r * a1i + u11i * a1r};
  }
}

void run_dense1(cx* a, std::size_t pairs, int target, std::size_t mask,
                const CompiledUnitary& cu) {
#if defined(QUCP_AVX2_KERNELS)
  if (native_kernels_active()) {
    parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
      detail::dense1_range_avx2(a, begin, end, target, mask, cu);
    });
    return;
  }
#endif
  parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
    dense1_range_scalar(a, begin, end, target, mask, cu);
  });
}

void run_cx_perm(cx* a, std::size_t quads, int p0, int p1, std::size_t mh,
                 std::size_t ml) {
  parallel_for(quads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = insert_bit(insert_bit(t, p0), p1);
      std::swap(a[base | mh], a[base | mh | ml]);
    }
  });
}

void run_swap_perm(cx* a, std::size_t quads, int p0, int p1, std::size_t mh,
                   std::size_t ml) {
  parallel_for(quads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = insert_bit(insert_bit(t, p0), p1);
      std::swap(a[base | ml], a[base | mh]);
    }
  });
}

void run_diag2(cx* a, std::size_t quads, int p0, int p1, std::size_t mh,
               std::size_t ml, const CompiledUnitary& cu) {
#if defined(QUCP_AVX2_KERNELS)
  if (native_kernels_active()) {
    parallel_for(quads, [&](std::size_t begin, std::size_t end) {
      detail::diag2_range_avx2(a, begin, end, mh, ml, p0, p1, cu);
    });
    return;
  }
#endif
  parallel_for(quads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = insert_bit(insert_bit(t, p0), p1);
      const std::size_t idx[4] = {base, base | ml, base | mh, base | mh | ml};
      for (int r = 0; r < 4; ++r) {
        const double sr = a[idx[r]].real(), si = a[idx[r]].imag();
        a[idx[r]] = cx{cu.re[r] * sr - cu.im[r] * si,
                       cu.re[r] * si + cu.im[r] * sr};
      }
    }
  });
}

void run_perm2(cx* a, std::size_t quads, int p0, int p1, std::size_t mh,
               std::size_t ml, const CompiledUnitary& cu) {
#if defined(QUCP_AVX2_KERNELS)
  if (native_kernels_active()) {
    parallel_for(quads, [&](std::size_t begin, std::size_t end) {
      detail::perm2_range_avx2(a, begin, end, mh, ml, p0, p1, cu);
    });
    return;
  }
#endif
  parallel_for(quads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = insert_bit(insert_bit(t, p0), p1);
      const std::size_t idx[4] = {base, base | ml, base | mh, base | mh | ml};
      const cx in[4] = {a[idx[0]], a[idx[1]], a[idx[2]], a[idx[3]]};
      for (int r = 0; r < 4; ++r) {
        const cx s = in[cu.src[r]];
        a[idx[r]] = cx{cu.re[r] * s.real() - cu.im[r] * s.imag(),
                       cu.re[r] * s.imag() + cu.im[r] * s.real()};
      }
    }
  });
}

void dense2_range_scalar(cx* a, std::size_t begin, std::size_t end,
                         std::size_t mh, std::size_t ml, int p0, int p1,
                         const CompiledUnitary& cu) {
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t base = insert_bit(insert_bit(t, p0), p1);
    const std::size_t i0 = base;            // local 00
    const std::size_t i1 = base | ml;       // local 01
    const std::size_t i2 = base | mh;       // local 10
    const std::size_t i3 = base | mh | ml;  // local 11
    const double ar[4] = {a[i0].real(), a[i1].real(), a[i2].real(),
                          a[i3].real()};
    const double ai[4] = {a[i0].imag(), a[i1].imag(), a[i2].imag(),
                          a[i3].imag()};
    const std::size_t idx[4] = {i0, i1, i2, i3};
    for (int r = 0; r < 4; ++r) {
      const int row = 4 * r;
      double accr = 0.0, acci = 0.0;
      for (int c = 0; c < 4; ++c) {
        accr += cu.re[row + c] * ar[c] - cu.im[row + c] * ai[c];
        acci += cu.re[row + c] * ai[c] + cu.im[row + c] * ar[c];
      }
      a[idx[r]] = cx{accr, acci};
    }
  }
}

void run_dense2(cx* a, std::size_t quads, int p0, int p1, std::size_t mh,
                std::size_t ml, const CompiledUnitary& cu) {
#if defined(QUCP_AVX2_KERNELS)
  if (native_kernels_active()) {
    parallel_for(quads, [&](std::size_t begin, std::size_t end) {
      detail::dense2_range_avx2(a, begin, end, mh, ml, p0, p1, cu);
    });
    return;
  }
#endif
  parallel_for(quads, [&](std::size_t begin, std::size_t end) {
    dense2_range_scalar(a, begin, end, mh, ml, p0, p1, cu);
  });
}

}  // namespace

CompiledUnitary compile_unitary(std::span<const cx> u) {
  CompiledUnitary cu;
  if (u.size() == 4) {
    cu.k = 1;
    int src[2];
    cx val[2];
    // Note: one-nonzero-per-row does NOT imply distinct source columns
    // for a general (non-unitary) matrix — e.g. [[a,0],[b,0]] — so the
    // diag/antidiag tags additionally require src to be the identity or
    // the transposition; anything else goes dense, which is always
    // correct.
    if (as_generalized_permutation<2>(u.data(), src, val) &&
        src[0] != src[1]) {
      cu.tag = src[0] == 0 ? CompiledUnitary::Tag::kDiag1
                           : CompiledUnitary::Tag::kAnti1;
      for (int r = 0; r < 2; ++r) {
        cu.re[r] = val[r].real();
        cu.im[r] = val[r].imag();
      }
    } else {
      cu.tag = CompiledUnitary::Tag::kDense1;
      for (int i = 0; i < 4; ++i) {
        cu.re[i] = u[i].real();
        cu.im[i] = u[i].imag();
      }
    }
    return cu;
  }
  assert(u.size() == 16);
  cu.k = 2;
  int src[4];
  cx val[4];
  if (as_generalized_permutation<4>(u.data(), src, val)) {
    const bool unit = val[0] == cx{1.0, 0.0} && val[1] == cx{1.0, 0.0} &&
                      val[2] == cx{1.0, 0.0} && val[3] == cx{1.0, 0.0};
    if (unit && src[0] == 0 && src[1] == 1 && src[2] == 3 && src[3] == 2) {
      cu.tag = CompiledUnitary::Tag::kCxPerm;
      return cu;
    }
    if (unit && src[0] == 0 && src[1] == 2 && src[2] == 1 && src[3] == 3) {
      cu.tag = CompiledUnitary::Tag::kSwapPerm;
      return cu;
    }
    const bool diag =
        src[0] == 0 && src[1] == 1 && src[2] == 2 && src[3] == 3;
    cu.tag = diag ? CompiledUnitary::Tag::kDiag2
                  : CompiledUnitary::Tag::kPerm2;
    for (int r = 0; r < 4; ++r) {
      cu.src[r] = src[r];
      cu.re[r] = val[r].real();
      cu.im[r] = val[r].imag();
    }
    return cu;
  }
  cu.tag = CompiledUnitary::Tag::kDense2;
  for (int i = 0; i < 16; ++i) {
    cu.re[i] = u[i].real();
    cu.im[i] = u[i].imag();
  }
  return cu;
}

void apply_compiled(std::span<cx> amps, int n, std::span<const int> targets,
                    const CompiledUnitary& cu) {
  assert(amps.size() == (std::size_t{1} << n));
  assert(static_cast<int>(targets.size()) == cu.k);
  (void)n;
  cx* a = amps.data();
  if (cu.k == 1) {
    const int target = targets[0];
    const std::size_t mask = std::size_t{1} << target;
    const std::size_t pairs = amps.size() >> 1;
    switch (cu.tag) {
      case CompiledUnitary::Tag::kDiag1:
        run_diag1(a, pairs, target, mask, cu);
        return;
      case CompiledUnitary::Tag::kAnti1:
        run_anti1(a, pairs, target, mask, cu);
        return;
      default:
        run_dense1(a, pairs, target, mask, cu);
        return;
    }
  }
  const int bit_hi = targets[0];
  const int bit_lo = targets[1];
  const std::size_t mh = std::size_t{1} << bit_hi;
  const std::size_t ml = std::size_t{1} << bit_lo;
  const int p0 = std::min(bit_hi, bit_lo);
  const int p1 = std::max(bit_hi, bit_lo);
  const std::size_t quads = amps.size() >> 2;
  switch (cu.tag) {
    case CompiledUnitary::Tag::kCxPerm:
      run_cx_perm(a, quads, p0, p1, mh, ml);
      return;
    case CompiledUnitary::Tag::kSwapPerm:
      run_swap_perm(a, quads, p0, p1, mh, ml);
      return;
    case CompiledUnitary::Tag::kDiag2:
      run_diag2(a, quads, p0, p1, mh, ml, cu);
      return;
    case CompiledUnitary::Tag::kPerm2:
      run_perm2(a, quads, p0, p1, mh, ml, cu);
      return;
    default:
      run_dense2(a, quads, p0, p1, mh, ml, cu);
      return;
  }
}

PairGeometry::PairGeometry(int row_hi, int col_hi, int row_lo, int col_lo)
    : positions{row_hi, col_hi, row_lo, col_lo} {
  for (std::size_t s = 0; s < 4; ++s) {
    col_off[s] = ((s >> 1) ? (std::size_t{1} << col_hi) : 0) |
                 ((s & 1) ? (std::size_t{1} << col_lo) : 0);
    row_off[s] = ((s >> 1) ? (std::size_t{1} << row_hi) : 0) |
                 ((s & 1) ? (std::size_t{1} << row_lo) : 0);
  }
  std::sort(positions, positions + 4);
  assert(std::adjacent_find(positions, positions + 4) == positions + 4);
}

PairGeometry::PairGeometry(int n, int hi, int lo)
    : PairGeometry(hi + n, hi, lo + n, lo) {}

namespace {

/// (e00, e01, e10, e11) through an X-shaped superoperator, as doubles in
/// the same operation order as the AVX2 body.
inline void xshape_group(cx& e00, cx& e01, cx& e10, cx& e11, const XShape& x) {
  const cx p00{x.a00 * e00.real() + x.a03 * e11.real(),
               x.a00 * e00.imag() + x.a03 * e11.imag()};
  const cx p11{x.a30 * e00.real() + x.a33 * e11.real(),
               x.a30 * e00.imag() + x.a33 * e11.imag()};
  e01 = cx{x.z01r * e01.real() - x.z01i * e01.imag(),
           x.z01r * e01.imag() + x.z01i * e01.real()};
  e10 = cx{x.z10r * e10.real() - x.z10i * e10.imag(),
           x.z10r * e10.imag() + x.z10i * e10.real()};
  e00 = p00;
  e11 = p11;
}

void pair_range_scalar(cx* rho, std::size_t begin, std::size_t end,
                       const PairGeometry& geo, const PairChannel& ch) {
  std::size_t src_off[16];
  std::size_t dst_off[16];
  for (int i = 0; i < 16; ++i) {
    src_off[i] = geo.row_off[i >> 2] + geo.col_off[i & 3];
    dst_off[i] = geo.row_off[ch.dst[i >> 2]] + geo.col_off[ch.dst[i & 3]];
  }
  for (std::size_t t = begin; t < end; ++t) {
    std::size_t base = t;
    for (int j = 0; j < 4; ++j) base = insert_bit(base, geo.positions[j]);
    // w[sr * 4 + sc]: local element (row value sr, column value sc).
    cx w[16];
    for (int i = 0; i < 16; ++i) w[i] = rho[base + src_off[i]];
    if (ch.pre) {
      for (int rb = 0; rb < 2; ++rb) {
        for (int cb = 0; cb < 2; ++cb) {
          xshape_group(w[rb * 4 + cb], w[rb * 4 + 2 + cb],
                       w[(2 + rb) * 4 + cb], w[(2 + rb) * 4 + 2 + cb],
                       ch.pre_hi);
        }
      }
      for (int ra = 0; ra < 2; ++ra) {
        for (int ca = 0; ca < 2; ++ca) {
          xshape_group(w[8 * ra + 2 * ca], w[8 * ra + 2 * ca + 1],
                       w[8 * ra + 4 + 2 * ca], w[8 * ra + 4 + 2 * ca + 1],
                       ch.pre_lo);
        }
      }
    }
    const cx traced = ((w[0] + w[5]) + w[10]) + w[15];
    const cx fill{ch.fill_scale * traced.real(), ch.fill_scale * traced.imag()};
    // The basis permutation maps the local diagonal onto itself, so the
    // refill lands on the images of the input diagonal.
    for (int i = 0; i < 16; ++i) {
      cx v{ch.c1 * w[i].real(), ch.c1 * w[i].imag()};
      if (i % 5 == 0) v += fill;
      rho[base + dst_off[i]] = v;
    }
  }
}

}  // namespace

void apply_pair_channel(cx* rho, std::size_t blocks, const PairGeometry& geo,
                        const PairChannel& ch) {
  // A block is 16 elements and a gather/scatter pass, so split from 2^18
  // superket elements (9 qubits); the 4-element quad kernels split from
  // 2^19.
  constexpr std::size_t kBlockGrain = kParallelGrain >> 3;
#if defined(QUCP_AVX2_KERNELS)
  if (native_kernels_active()) {
    parallel_for(
        blocks,
        [&](std::size_t begin, std::size_t end) {
          detail::pair_range_avx2(rho, begin, end, geo, ch);
        },
        kBlockGrain);
    return;
  }
#endif
  parallel_for(
      blocks,
      [&](std::size_t begin, std::size_t end) {
        pair_range_scalar(rho, begin, end, geo, ch);
      },
      kBlockGrain);
}

void apply1(std::span<cx> amps, [[maybe_unused]] int n, int target,
            const cx u[4]) {
  assert(amps.size() == (std::size_t{1} << n));
  assert(target >= 0 && target < n);
  const CompiledUnitary cu = compile_unitary(std::span<const cx>(u, 4));
  apply_compiled(amps, n, std::span<const int>(&target, 1), cu);
}

void apply2(std::span<cx> amps, [[maybe_unused]] int n, int bit_hi, int bit_lo,
            const cx u[16]) {
  assert(amps.size() == (std::size_t{1} << n));
  assert(bit_hi != bit_lo);
  const CompiledUnitary cu = compile_unitary(std::span<const cx>(u, 16));
  const int targets[2] = {bit_hi, bit_lo};
  apply_compiled(amps, n, std::span<const int>(targets, 2), cu);
}

void apply_generic(std::span<cx> amps, [[maybe_unused]] int n,
                   std::span<const int> targets,
                   const cx* u, std::vector<cx>& scratch) {
  const int k = static_cast<int>(targets.size());
  assert(k >= 1 && k <= n);
  const std::size_t ldim = std::size_t{1} << k;
  const SortedBits sorted(targets);

  // Offset of each local basis value from a base index; targets[0] is the
  // HIGH local bit, matching gate_matrix's operand convention.
  thread_local std::vector<std::size_t> offsets;
  offsets.assign(ldim, 0);
  for (std::size_t li = 0; li < ldim; ++li) {
    std::size_t off = 0;
    for (int j = 0; j < k; ++j) {
      if ((li >> (k - 1 - j)) & 1U) off |= std::size_t{1} << targets[j];
    }
    offsets[li] = off;
  }

  if (scratch.size() < ldim) scratch.resize(ldim);
  const std::size_t bases = amps.size() >> k;
  cx* a = amps.data();
  cx* local = scratch.data();
  // The shared scratch keeps this loop serial; generic k >= 3 never shows
  // up in the executor hot path (gates are lowered to 1q/2q).
  for (std::size_t t = 0; t < bases; ++t) {
    const std::size_t base = expand(t, sorted);
    for (std::size_t li = 0; li < ldim; ++li) local[li] = a[base + offsets[li]];
    for (std::size_t lr = 0; lr < ldim; ++lr) {
      const cx* row = u + lr * ldim;
      cx acc{0.0, 0.0};
      for (std::size_t lc = 0; lc < ldim; ++lc) acc += row[lc] * local[lc];
      a[base + offsets[lr]] = acc;
    }
  }
}

void apply_unitary(std::span<cx> amps, int n, std::span<const int> targets,
                   std::span<const cx> u, bool conjugate,
                   std::vector<cx>& scratch) {
  const int k = static_cast<int>(targets.size());
  if (k == 1) {
    if (conjugate) {
      const cx uc[4] = {std::conj(u[0]), std::conj(u[1]), std::conj(u[2]),
                        std::conj(u[3])};
      apply1(amps, n, targets[0], uc);
    } else {
      apply1(amps, n, targets[0], u.data());
    }
    return;
  }
  if (k == 2) {
    if (conjugate) {
      cx uc[16];
      for (int i = 0; i < 16; ++i) uc[i] = std::conj(u[i]);
      apply2(amps, n, targets[0], targets[1], uc);
    } else {
      apply2(amps, n, targets[0], targets[1], u.data());
    }
    return;
  }
  if (conjugate) {
    thread_local std::vector<cx> conj_buf;
    conj_buf.assign(u.begin(), u.end());
    for (cx& v : conj_buf) v = std::conj(v);
    apply_generic(amps, n, targets, conj_buf.data(), scratch);
  } else {
    apply_generic(amps, n, targets, u.data(), scratch);
  }
}

}  // namespace qucp::kern

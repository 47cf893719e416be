// AVX2/FMA variants of the dense 1q/2q kernel range bodies.
//
// This TU is compiled with -march=x86-64-v3 (and -ffp-contract=off) on
// every x86-64 build whose compiler accepts the flag, and contributes
// nothing elsewhere, so the library builds identically on toolchains and
// targets without AVX2. The functions
// here are only ever reached through the runtime dispatch in kernels.cpp
// (cpuid-gated via native_kernels_active()), so one binary serves both
// ISAs with a scalar fallback.
//
// Data layout: a cx is an interleaved (re, im) pair of doubles, so one
// 256-bit register holds two complex amplitudes. Complex arithmetic uses
// the addsub identity: for y = sum_c u_c * x_c,
//   re(y) = sum u_c.re * x_c.re - sum u_c.im * x_c.im
//   im(y) = sum u_c.re * x_c.im + sum u_c.im * x_c.re
// i.e. accumulate (u.re * x) and (u.im * swap(x)) separately with FMAs and
// combine once with vaddsubpd. Results match the scalar kernels to ~1 ulp
// per term (FMA contracts the multiplies), not bitwise — callers that need
// the scalar stream disable dispatch via set_native_kernels(false).

#include "sim/kernels.hpp"

#if defined(QUCP_AVX2_KERNELS)

#include <immintrin.h>

namespace qucp::kern::detail {

namespace {

/// One (i0, i1) pair through the 2x2, used for loop heads/tails where the
/// two-pair vector body cannot engage. Same FMA/addsub sequence as that
/// body on 128-bit lanes, so a pair rounds alike on either path.
inline void dense1_one_pair(cx* a, std::size_t i0, std::size_t i1,
                            const CompiledUnitary& cu) {
  double* const p0 = reinterpret_cast<double*>(a + i0);
  double* const p1 = reinterpret_cast<double*>(a + i1);
  const __m128d x0 = _mm_loadu_pd(p0);
  const __m128d x1 = _mm_loadu_pd(p1);
  const __m128d x0s = _mm_permute_pd(x0, 0x1);
  const __m128d x1s = _mm_permute_pd(x1, 0x1);
  auto row = [&](int r) {
    return _mm_addsub_pd(
        _mm_fmadd_pd(_mm_set1_pd(cu.re[2 * r + 1]), x1,
                     _mm_mul_pd(_mm_set1_pd(cu.re[2 * r]), x0)),
        _mm_fmadd_pd(_mm_set1_pd(cu.im[2 * r + 1]), x1s,
                     _mm_mul_pd(_mm_set1_pd(cu.im[2 * r]), x0s)));
  };
  const __m128d y0 = row(0);
  const __m128d y1 = row(1);
  _mm_storeu_pd(p0, y0);
  _mm_storeu_pd(p1, y1);
}

}  // namespace

void dense1_range_avx2(cx* a, std::size_t begin, std::size_t end, int target,
                       std::size_t mask, const CompiledUnitary& cu) {
  double* const p = reinterpret_cast<double*>(a);
  if (target >= 1) {
    // Bases with the target bit clear come in contiguous runs of
    // 2^target >= 2, so an even counter t and its successor map to adjacent
    // i0 (and adjacent i1): process two pairs per iteration with full-width
    // loads. Head/tail pairs (odd alignment) take the single-pair path.
    const __m256d u00r = _mm256_set1_pd(cu.re[0]), u00i = _mm256_set1_pd(cu.im[0]);
    const __m256d u01r = _mm256_set1_pd(cu.re[1]), u01i = _mm256_set1_pd(cu.im[1]);
    const __m256d u10r = _mm256_set1_pd(cu.re[2]), u10i = _mm256_set1_pd(cu.im[2]);
    const __m256d u11r = _mm256_set1_pd(cu.re[3]), u11i = _mm256_set1_pd(cu.im[3]);
    std::size_t t = begin;
    if ((t & 1U) != 0 && t < end) {
      const std::size_t i0 = insert_bit(t, target);
      dense1_one_pair(a, i0, i0 | mask, cu);
      ++t;
    }
    for (; t + 1 < end; t += 2) {
      const std::size_t i0 = insert_bit(t, target);
      double* const p0 = p + 2 * i0;
      double* const p1 = p + 2 * (i0 | mask);
      const __m256d x0 = _mm256_loadu_pd(p0);  // [x0(t), x0(t+1)]
      const __m256d x1 = _mm256_loadu_pd(p1);
      const __m256d x0s = _mm256_permute_pd(x0, 0x5);  // im/re swapped
      const __m256d x1s = _mm256_permute_pd(x1, 0x5);
      const __m256d y0 = _mm256_addsub_pd(
          _mm256_fmadd_pd(u01r, x1, _mm256_mul_pd(u00r, x0)),
          _mm256_fmadd_pd(u01i, x1s, _mm256_mul_pd(u00i, x0s)));
      const __m256d y1 = _mm256_addsub_pd(
          _mm256_fmadd_pd(u11r, x1, _mm256_mul_pd(u10r, x0)),
          _mm256_fmadd_pd(u11i, x1s, _mm256_mul_pd(u10i, x0s)));
      _mm256_storeu_pd(p0, y0);
      _mm256_storeu_pd(p1, y1);
    }
    if (t < end) {
      const std::size_t i0 = insert_bit(t, target);
      dense1_one_pair(a, i0, i0 | mask, cu);
    }
    return;
  }
  // target == 0: i1 = i0 + 1, so one register holds the whole pair. Column
  // coefficients are laid out per output lane: lanes {0,1} build y0 from
  // row 0, lanes {2,3} build y1 from row 1.
  const __m256d c0r = _mm256_set_pd(cu.re[2], cu.re[2], cu.re[0], cu.re[0]);
  const __m256d c0i = _mm256_set_pd(cu.im[2], cu.im[2], cu.im[0], cu.im[0]);
  const __m256d c1r = _mm256_set_pd(cu.re[3], cu.re[3], cu.re[1], cu.re[1]);
  const __m256d c1i = _mm256_set_pd(cu.im[3], cu.im[3], cu.im[1], cu.im[1]);
  for (std::size_t t = begin; t < end; ++t) {
    double* const q = p + 4 * t;
    const __m256d v = _mm256_loadu_pd(q);                     // [x0, x1]
    const __m256d x0b = _mm256_permute2f128_pd(v, v, 0x00);   // [x0, x0]
    const __m256d x1b = _mm256_permute2f128_pd(v, v, 0x11);   // [x1, x1]
    const __m256d x0s = _mm256_permute_pd(x0b, 0x5);
    const __m256d x1s = _mm256_permute_pd(x1b, 0x5);
    const __m256d out = _mm256_addsub_pd(
        _mm256_fmadd_pd(c1r, x1b, _mm256_mul_pd(c0r, x0b)),
        _mm256_fmadd_pd(c1i, x1s, _mm256_mul_pd(c0i, x0s)));
    _mm256_storeu_pd(q, out);
  }
}

namespace {

/// One quad through the 4x4 with packed 128-bit lane loads — correct for
/// any (mh, ml), used when the contiguous two-quad body cannot engage.
inline void dense2_one_quad(double* p, std::size_t base, std::size_t mh,
                            std::size_t ml, const __m256d cr[4][2],
                            const __m256d ci[4][2]) {
  double* const p0 = p + 2 * base;
  double* const p1 = p + 2 * (base | ml);
  double* const p2 = p + 2 * (base | mh);
  double* const p3 = p + 2 * (base | mh | ml);
  const __m256d v01 =
      _mm256_set_m128d(_mm_loadu_pd(p1), _mm_loadu_pd(p0));  // [x0, x1]
  const __m256d v23 = _mm256_set_m128d(_mm_loadu_pd(p3), _mm_loadu_pd(p2));
  const __m256d xb[4] = {_mm256_permute2f128_pd(v01, v01, 0x00),
                         _mm256_permute2f128_pd(v01, v01, 0x11),
                         _mm256_permute2f128_pd(v23, v23, 0x00),
                         _mm256_permute2f128_pd(v23, v23, 0x11)};
  const __m256d xs[4] = {_mm256_permute_pd(xb[0], 0x5),
                         _mm256_permute_pd(xb[1], 0x5),
                         _mm256_permute_pd(xb[2], 0x5),
                         _mm256_permute_pd(xb[3], 0x5)};
  // out01 lanes {0,1} = y0 (row 0), lanes {2,3} = y1 (row 1); out23 = y2/y3.
  __m256d accr01 = _mm256_mul_pd(cr[0][0], xb[0]);
  __m256d acci01 = _mm256_mul_pd(ci[0][0], xs[0]);
  __m256d accr23 = _mm256_mul_pd(cr[0][1], xb[0]);
  __m256d acci23 = _mm256_mul_pd(ci[0][1], xs[0]);
  for (int c = 1; c < 4; ++c) {
    accr01 = _mm256_fmadd_pd(cr[c][0], xb[c], accr01);
    acci01 = _mm256_fmadd_pd(ci[c][0], xs[c], acci01);
    accr23 = _mm256_fmadd_pd(cr[c][1], xb[c], accr23);
    acci23 = _mm256_fmadd_pd(ci[c][1], xs[c], acci23);
  }
  const __m256d out01 = _mm256_addsub_pd(accr01, acci01);
  const __m256d out23 = _mm256_addsub_pd(accr23, acci23);
  _mm_storeu_pd(p0, _mm256_castpd256_pd128(out01));
  _mm_storeu_pd(p1, _mm256_extractf128_pd(out01, 1));
  _mm_storeu_pd(p2, _mm256_castpd256_pd128(out23));
  _mm_storeu_pd(p3, _mm256_extractf128_pd(out23, 1));
}

}  // namespace

void dense2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                       std::size_t mh, std::size_t ml, int p0, int p1,
                       const CompiledUnitary& cu) {
  double* const p = reinterpret_cast<double*>(a);
  // Column coefficient vectors for the per-quad body: cr[c][0] covers
  // output lanes (y0, y1) of column c, cr[c][1] covers (y2, y3).
  __m256d cr[4][2];
  __m256d ci[4][2];
  for (int c = 0; c < 4; ++c) {
    cr[c][0] = _mm256_set_pd(cu.re[4 + c], cu.re[4 + c], cu.re[c], cu.re[c]);
    ci[c][0] = _mm256_set_pd(cu.im[4 + c], cu.im[4 + c], cu.im[c], cu.im[c]);
    cr[c][1] = _mm256_set_pd(cu.re[12 + c], cu.re[12 + c], cu.re[8 + c],
                             cu.re[8 + c]);
    ci[c][1] = _mm256_set_pd(cu.im[12 + c], cu.im[12 + c], cu.im[8 + c],
                             cu.im[8 + c]);
  }
  if (p0 >= 1) {
    // Contiguous runs of length 2^p0 >= 2: an even t and its successor map
    // to adjacent bases, so every amplitude load/store is a full-width
    // two-complex access.
    std::size_t t = begin;
    if ((t & 1U) != 0 && t < end) {
      dense2_one_quad(p, insert_bit(insert_bit(t, p0), p1), mh, ml, cr, ci);
      ++t;
    }
    for (; t + 1 < end; t += 2) {
      const std::size_t base = insert_bit(insert_bit(t, p0), p1);
      double* const q0 = p + 2 * base;
      double* const q1 = p + 2 * (base | ml);
      double* const q2 = p + 2 * (base | mh);
      double* const q3 = p + 2 * (base | mh | ml);
      const __m256d x[4] = {_mm256_loadu_pd(q0), _mm256_loadu_pd(q1),
                            _mm256_loadu_pd(q2), _mm256_loadu_pd(q3)};
      const __m256d s[4] = {
          _mm256_permute_pd(x[0], 0x5), _mm256_permute_pd(x[1], 0x5),
          _mm256_permute_pd(x[2], 0x5), _mm256_permute_pd(x[3], 0x5)};
      double* const outp[4] = {q0, q1, q2, q3};
      for (int r = 0; r < 4; ++r) {
        const int row = 4 * r;
        __m256d accr = _mm256_mul_pd(_mm256_set1_pd(cu.re[row]), x[0]);
        __m256d acci = _mm256_mul_pd(_mm256_set1_pd(cu.im[row]), s[0]);
        for (int c = 1; c < 4; ++c) {
          accr = _mm256_fmadd_pd(_mm256_set1_pd(cu.re[row + c]), x[c], accr);
          acci = _mm256_fmadd_pd(_mm256_set1_pd(cu.im[row + c]), s[c], acci);
        }
        _mm256_storeu_pd(outp[r], _mm256_addsub_pd(accr, acci));
      }
    }
    if (t < end) {
      dense2_one_quad(p, insert_bit(insert_bit(t, p0), p1), mh, ml, cr, ci);
    }
    return;
  }
  for (std::size_t t = begin; t < end; ++t) {
    dense2_one_quad(p, insert_bit(insert_bit(t, p0), p1), mh, ml, cr, ci);
  }
}

namespace {

/// One quad through the diagonal 4x4, used where the two-quad vector body
/// cannot engage. Single multiplies per output (no sums), so this matches
/// the scalar kernel bitwise.
inline void diag2_one_quad(cx* a, std::size_t base, std::size_t mh,
                           std::size_t ml, const CompiledUnitary& cu) {
  const std::size_t idx[4] = {base, base | ml, base | mh, base | mh | ml};
  for (int r = 0; r < 4; ++r) {
    const double sr = a[idx[r]].real(), si = a[idx[r]].imag();
    a[idx[r]] =
        cx{cu.re[r] * sr - cu.im[r] * si, cu.re[r] * si + cu.im[r] * sr};
  }
}

/// One quad through the generalized permutation 4x4 (gather-then-scatter,
/// all four inputs read before any store).
inline void perm2_one_quad(cx* a, std::size_t base, std::size_t mh,
                           std::size_t ml, const CompiledUnitary& cu) {
  const std::size_t idx[4] = {base, base | ml, base | mh, base | mh | ml};
  const cx in[4] = {a[idx[0]], a[idx[1]], a[idx[2]], a[idx[3]]};
  for (int r = 0; r < 4; ++r) {
    const cx s = in[cu.src[r]];
    a[idx[r]] = cx{cu.re[r] * s.real() - cu.im[r] * s.imag(),
                   cu.re[r] * s.imag() + cu.im[r] * s.real()};
  }
}

}  // namespace

void diag2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu) {
  double* const p = reinterpret_cast<double*>(a);
  if (p0 >= 1) {
    // Contiguous runs of length 2^p0 >= 2: an even t and its successor map
    // to adjacent bases, so each of the four quad offsets is a full-width
    // two-complex access scaled by one broadcast diagonal entry. A single
    // mul per component (no FMA chains) keeps this bitwise equal to the
    // scalar kernel.
    __m256d vr[4], vi[4];
    for (int r = 0; r < 4; ++r) {
      vr[r] = _mm256_set1_pd(cu.re[r]);
      vi[r] = _mm256_set1_pd(cu.im[r]);
    }
    std::size_t t = begin;
    if ((t & 1U) != 0 && t < end) {
      diag2_one_quad(a, insert_bit(insert_bit(t, p0), p1), mh, ml, cu);
      ++t;
    }
    for (; t + 1 < end; t += 2) {
      const std::size_t base = insert_bit(insert_bit(t, p0), p1);
      double* const q[4] = {p + 2 * base, p + 2 * (base | ml),
                            p + 2 * (base | mh), p + 2 * (base | mh | ml)};
      for (int r = 0; r < 4; ++r) {
        const __m256d x = _mm256_loadu_pd(q[r]);
        const __m256d y = _mm256_addsub_pd(
            _mm256_mul_pd(vr[r], x),
            _mm256_mul_pd(vi[r], _mm256_permute_pd(x, 0x5)));
        _mm256_storeu_pd(q[r], y);
      }
    }
    if (t < end) {
      diag2_one_quad(a, insert_bit(insert_bit(t, p0), p1), mh, ml, cu);
    }
    return;
  }
  for (std::size_t t = begin; t < end; ++t) {
    diag2_one_quad(a, insert_bit(insert_bit(t, p0), p1), mh, ml, cu);
  }
}

void perm2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu) {
  double* const p = reinterpret_cast<double*>(a);
  if (p0 >= 1) {
    // Same contiguous two-quad layout as diag2, but rows permute their
    // source offset: load all four offsets first (stores may alias a later
    // row's source), then scale x[src[r]] into offset r.
    __m256d vr[4], vi[4];
    for (int r = 0; r < 4; ++r) {
      vr[r] = _mm256_set1_pd(cu.re[r]);
      vi[r] = _mm256_set1_pd(cu.im[r]);
    }
    std::size_t t = begin;
    if ((t & 1U) != 0 && t < end) {
      perm2_one_quad(a, insert_bit(insert_bit(t, p0), p1), mh, ml, cu);
      ++t;
    }
    for (; t + 1 < end; t += 2) {
      const std::size_t base = insert_bit(insert_bit(t, p0), p1);
      double* const q[4] = {p + 2 * base, p + 2 * (base | ml),
                            p + 2 * (base | mh), p + 2 * (base | mh | ml)};
      const __m256d x[4] = {_mm256_loadu_pd(q[0]), _mm256_loadu_pd(q[1]),
                            _mm256_loadu_pd(q[2]), _mm256_loadu_pd(q[3])};
      for (int r = 0; r < 4; ++r) {
        const __m256d s = x[cu.src[r]];
        const __m256d y = _mm256_addsub_pd(
            _mm256_mul_pd(vr[r], s),
            _mm256_mul_pd(vi[r], _mm256_permute_pd(s, 0x5)));
        _mm256_storeu_pd(q[r], y);
      }
    }
    if (t < end) {
      perm2_one_quad(a, insert_bit(insert_bit(t, p0), p1), mh, ml, cu);
    }
    return;
  }
  for (std::size_t t = begin; t < end; ++t) {
    perm2_one_quad(a, insert_bit(insert_bit(t, p0), p1), mh, ml, cu);
  }
}

namespace {

// Lane-width traits for the fused pair channel: W2 holds the same element
// of two adjacent blocks (one __m256d), W1 the element of one block (one
// __m128d). pair_block spells out one operation sequence for both, so a
// block rounds identically whichever body handles it — the head/tail of a
// parallel_for chunk included.
struct W1 {
  using V = __m128d;
  static V load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, V v) { _mm_storeu_pd(p, v); }
  static V set1(double x) { return _mm_set1_pd(x); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V addsub(V a, V b) { return _mm_addsub_pd(a, b); }
  static V imswap(V v) { return _mm_permute_pd(v, 0x1); }
};

struct W2 {
  using V = __m256d;
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V addsub(V a, V b) { return _mm256_addsub_pd(a, b); }
  static V imswap(V v) { return _mm256_permute_pd(v, 0x5); }
};

template <class W>
struct XShapeV {
  typename W::V a00, a03, a30, a33, z01r, z01i, z10r, z10i;
  explicit XShapeV(const XShape& x)
      : a00(W::set1(x.a00)), a03(W::set1(x.a03)), a30(W::set1(x.a30)),
        a33(W::set1(x.a33)), z01r(W::set1(x.z01r)), z01i(W::set1(x.z01i)),
        z10r(W::set1(x.z10r)), z10i(W::set1(x.z10i)) {}
};

/// One (p00, p01, p10, p11) group through an X-shaped superoperator.
template <class W>
inline void xshape_group(typename W::V& e00, typename W::V& e01,
                         typename W::V& e10, typename W::V& e11,
                         const XShapeV<W>& x) {
  const typename W::V p00 = W::add(W::mul(x.a00, e00), W::mul(x.a03, e11));
  const typename W::V p11 = W::add(W::mul(x.a30, e00), W::mul(x.a33, e11));
  e01 = W::addsub(W::mul(x.z01r, e01), W::mul(x.z01i, W::imswap(e01)));
  e10 = W::addsub(W::mul(x.z10r, e10), W::mul(x.z10i, W::imswap(e10)));
  e00 = p00;
  e11 = p11;
}

/// One 16-element block (W1) or two adjacent blocks (W2) of the fused pair
/// channel. w[sr * 4 + sc] is local element (row value sr, column value
/// sc); the permutation lands on the store addresses, so w never needs a
/// runtime register index.
template <class W, bool kPre>
inline void pair_block(double* p, std::size_t base, const std::size_t* src_off,
                       const std::size_t* dst_off, const XShapeV<W>& hi,
                       const XShapeV<W>& lo, typename W::V c1,
                       typename W::V fs) {
  typename W::V w[16];
  for (int i = 0; i < 16; ++i) w[i] = W::load(p + 2 * (base + src_off[i]));
  if constexpr (kPre) {
    for (int rb = 0; rb < 2; ++rb) {
      for (int cb = 0; cb < 2; ++cb) {
        xshape_group<W>(w[rb * 4 + cb], w[rb * 4 + 2 + cb],
                        w[(2 + rb) * 4 + cb], w[(2 + rb) * 4 + 2 + cb], hi);
      }
    }
    for (int ra = 0; ra < 2; ++ra) {
      for (int ca = 0; ca < 2; ++ca) {
        xshape_group<W>(w[8 * ra + 2 * ca], w[8 * ra + 2 * ca + 1],
                        w[8 * ra + 4 + 2 * ca], w[8 * ra + 4 + 2 * ca + 1], lo);
      }
    }
  }
  const typename W::V fill =
      W::mul(fs, W::add(W::add(W::add(w[0], w[5]), w[10]), w[15]));
  for (int i = 0; i < 16; ++i) {
    typename W::V v = W::mul(c1, w[i]);
    if (i % 5 == 0) v = W::add(v, fill);
    W::store(p + 2 * (base + dst_off[i]), v);
  }
}

template <bool kPre>
void pair_range(double* p, std::size_t begin, std::size_t end,
                const PairGeometry& geo, const std::size_t* src_off,
                const std::size_t* dst_off, const PairChannel& ch) {
  auto expand = [&](std::size_t t) {
    for (int j = 0; j < 4; ++j) t = insert_bit(t, geo.positions[j]);
    return t;
  };
  const XShapeV<W1> hi1(ch.pre_hi), lo1(ch.pre_lo);
  const __m128d c1_1 = W1::set1(ch.c1), fs1 = W1::set1(ch.fill_scale);
  auto one = [&](std::size_t t) {
    pair_block<W1, kPre>(p, expand(t), src_off, dst_off, hi1, lo1, c1_1, fs1);
  };
  if (geo.positions[0] < 1) {
    // Superket bit 0 is a target: consecutive blocks are not adjacent.
    for (std::size_t t = begin; t < end; ++t) one(t);
    return;
  }
  const XShapeV<W2> hi2(ch.pre_hi), lo2(ch.pre_lo);
  const __m256d c1_2 = W2::set1(ch.c1), fs2 = W2::set1(ch.fill_scale);
  std::size_t t = begin;
  if ((t & 1U) != 0 && t < end) one(t++);
  for (; t + 1 < end; t += 2) {
    pair_block<W2, kPre>(p, expand(t), src_off, dst_off, hi2, lo2, c1_2, fs2);
  }
  if (t < end) one(t);
}

}  // namespace

void pair_range_avx2(cx* rho, std::size_t begin, std::size_t end,
                     const PairGeometry& geo, const PairChannel& ch) {
  std::size_t src_off[16];
  std::size_t dst_off[16];
  for (int i = 0; i < 16; ++i) {
    src_off[i] = geo.row_off[i >> 2] + geo.col_off[i & 3];
    dst_off[i] = geo.row_off[ch.dst[i >> 2]] + geo.col_off[ch.dst[i & 3]];
  }
  double* const p = reinterpret_cast<double*>(rho);
  if (ch.pre) {
    pair_range<true>(p, begin, end, geo, src_off, dst_off, ch);
  } else {
    pair_range<false>(p, begin, end, geo, src_off, dst_off, ch);
  }
}

namespace {

inline __m256d imswap(__m256d v) { return _mm256_permute_pd(v, 0x5); }

/// y = alpha * x + beta * z for complex scalars alpha/beta against a
/// 2-amplitude vector x/z (xs/zs are their imswap'd forms): the addsub
/// identity with both terms folded into one accumulate pair.
inline __m256d scale2(__m256d x, __m256d xs, double ar, double ai, __m256d z,
                      __m256d zs, double br, double bi) {
  __m256d accr = _mm256_mul_pd(_mm256_set1_pd(ar), x);
  accr = _mm256_fmadd_pd(_mm256_set1_pd(br), z, accr);
  __m256d acci = _mm256_mul_pd(_mm256_set1_pd(ai), xs);
  acci = _mm256_fmadd_pd(_mm256_set1_pd(bi), zs, acci);
  return _mm256_addsub_pd(accr, acci);
}

/// out = perm(a) * b where perm(a)[r][c] = a[s[r]][s[c]]; S == 0 is the
/// identity, S == 1 the operand swap {0, 2, 1, 3}. The permutation lands
/// on the broadcast coefficient loads, so the swapped variant costs the
/// same as the plain product and never materializes a reordered copy.
/// All loads precede the stores, so out may alias a or b.
template <int S>
inline void mul4_perm(cx* out, const cx* a, const cx* b) {
  static constexpr int kPerm[2][4] = {{0, 1, 2, 3}, {0, 2, 1, 3}};
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  __m256d bh[4][2], bs[4][2];
  for (int k = 0; k < 4; ++k) {
    bh[k][0] = _mm256_loadu_pd(pb + 8 * k);
    bh[k][1] = _mm256_loadu_pd(pb + 8 * k + 4);
    bs[k][0] = imswap(bh[k][0]);
    bs[k][1] = imswap(bh[k][1]);
  }
  __m256d res[4][2];
  for (int r = 0; r < 4; ++r) {
    const int pr = kPerm[S][r];
    __m256d ar0 = _mm256_setzero_pd(), ai0 = _mm256_setzero_pd();
    __m256d ar1 = _mm256_setzero_pd(), ai1 = _mm256_setzero_pd();
    for (int k = 0; k < 4; ++k) {
      const int pk = kPerm[S][k];
      const __m256d cr = _mm256_set1_pd(pa[8 * pr + 2 * pk]);
      const __m256d ci = _mm256_set1_pd(pa[8 * pr + 2 * pk + 1]);
      ar0 = _mm256_fmadd_pd(cr, bh[k][0], ar0);
      ai0 = _mm256_fmadd_pd(ci, bs[k][0], ai0);
      ar1 = _mm256_fmadd_pd(cr, bh[k][1], ar1);
      ai1 = _mm256_fmadd_pd(ci, bs[k][1], ai1);
    }
    res[r][0] = _mm256_addsub_pd(ar0, ai0);
    res[r][1] = _mm256_addsub_pd(ar1, ai1);
  }
  double* po = reinterpret_cast<double*>(out);
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_pd(po + 8 * r, res[r][0]);
    _mm256_storeu_pd(po + 8 * r + 4, res[r][1]);
  }
}

}  // namespace

void mul4_avx2(cx* out, const cx* a, const cx* b) { mul4_perm<0>(out, a, b); }

void swap_mul4_avx2(cx* m, const cx* u) { mul4_perm<1>(m, u, m); }

void lift_mul4_avx2(cx* m, const cx* u, bool high) {
  const double* pm = reinterpret_cast<const double*>(m);
  const double* pu = reinterpret_cast<const double*>(u);
  __m256d row[4][2], rsw[4][2];
  for (int r = 0; r < 4; ++r) {
    row[r][0] = _mm256_loadu_pd(pm + 8 * r);
    row[r][1] = _mm256_loadu_pd(pm + 8 * r + 4);
    rsw[r][0] = imswap(row[r][0]);
    rsw[r][1] = imswap(row[r][1]);
  }
  // lift1(u, high) has two nonzeros per row, so each output row is a
  // two-term combination of rows of m:
  //   high: out(2ur+l) = u[2ur] * m(l)    + u[2ur+1] * m(2+l)
  //   low:  out(2h+ur) = u[2ur] * m(2h)   + u[2ur+1] * m(2h+1)
  static constexpr int kSrc[2][4][2] = {
      {{0, 1}, {0, 1}, {2, 3}, {2, 3}},  // low
      {{0, 2}, {1, 3}, {0, 2}, {1, 3}},  // high
  };
  static constexpr int kCoef[2][4][2] = {
      {{0, 1}, {2, 3}, {0, 1}, {2, 3}},  // low
      {{0, 1}, {0, 1}, {2, 3}, {2, 3}},  // high
  };
  const int hi = high ? 1 : 0;
  __m256d res[4][2];
  for (int r = 0; r < 4; ++r) {
    const int x = kSrc[hi][r][0], z = kSrc[hi][r][1];
    const int ca = kCoef[hi][r][0], cb = kCoef[hi][r][1];
    for (int h = 0; h < 2; ++h) {
      res[r][h] = scale2(row[x][h], rsw[x][h], pu[2 * ca], pu[2 * ca + 1],
                         row[z][h], rsw[z][h], pu[2 * cb], pu[2 * cb + 1]);
    }
  }
  double* po = reinterpret_cast<double*>(m);
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_pd(po + 8 * r, res[r][0]);
    _mm256_storeu_pd(po + 8 * r + 4, res[r][1]);
  }
}

void mul4_lift_avx2(cx* m, const cx* u, bool high) {
  const double* pm = reinterpret_cast<const double*>(m);
  const double* pu = reinterpret_cast<const double*>(u);
  __m256d res[4][2];
  if (high) {
    // out_cols{0,1} = u00 * m_cols{0,1} + u10 * m_cols{2,3} (and u01/u11
    // for cols {2,3}): whole column halves combine within each row.
    for (int r = 0; r < 4; ++r) {
      const __m256d h0 = _mm256_loadu_pd(pm + 8 * r);
      const __m256d h1 = _mm256_loadu_pd(pm + 8 * r + 4);
      const __m256d h0s = imswap(h0), h1s = imswap(h1);
      res[r][0] = scale2(h0, h0s, pu[0], pu[1], h1, h1s, pu[4], pu[5]);
      res[r][1] = scale2(h0, h0s, pu[2], pu[3], h1, h1s, pu[6], pu[7]);
    }
  } else {
    // Columns combine within each 2-amplitude half: out = [c0*u00 + c1*u10,
    // c0*u01 + c1*u11], so broadcast each cx across the register and use
    // per-lane coefficient vectors.
    const __m256d cre_a = _mm256_setr_pd(pu[0], pu[0], pu[2], pu[2]);
    const __m256d cim_a = _mm256_setr_pd(pu[1], pu[1], pu[3], pu[3]);
    const __m256d cre_b = _mm256_setr_pd(pu[4], pu[4], pu[6], pu[6]);
    const __m256d cim_b = _mm256_setr_pd(pu[5], pu[5], pu[7], pu[7]);
    for (int r = 0; r < 4; ++r) {
      for (int h = 0; h < 2; ++h) {
        const __m256d x = _mm256_loadu_pd(pm + 8 * r + 4 * h);
        const __m256d x0 = _mm256_permute2f128_pd(x, x, 0x00);
        const __m256d x1 = _mm256_permute2f128_pd(x, x, 0x11);
        __m256d accr = _mm256_mul_pd(cre_a, x0);
        accr = _mm256_fmadd_pd(cre_b, x1, accr);
        __m256d acci = _mm256_mul_pd(cim_a, imswap(x0));
        acci = _mm256_fmadd_pd(cim_b, imswap(x1), acci);
        res[r][h] = _mm256_addsub_pd(accr, acci);
      }
    }
  }
  double* po = reinterpret_cast<double*>(m);
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_pd(po + 8 * r, res[r][0]);
    _mm256_storeu_pd(po + 8 * r + 4, res[r][1]);
  }
}

}  // namespace qucp::kern::detail

#endif  // QUCP_AVX2_KERNELS

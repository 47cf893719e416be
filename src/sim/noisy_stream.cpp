#include "sim/noisy_stream.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "sim/density.hpp"
#include "sim/fusion.hpp"

namespace qucp {

namespace {

/// A one-qubit superoperator: 4x4 row-major over the local index
/// (row bit << 1) | column bit, acting on (p00, p01, p10, p11).
using Super = std::array<cx, 16>;

/// a * b (apply b first).
Super compose(const Super& a, const Super& b) {
  Super out{};
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      cx acc{0.0, 0.0};
      for (int k = 0; k < 4; ++k) acc += a[4 * r + k] * b[4 * k + c];
      out[4 * r + c] = acc;
    }
  }
  return out;
}

/// U (x) conj(U) for a compiled one-qubit gate.
Super unitary_super(const kern::CompiledUnitary& cu) {
  cx u[4] = {};
  switch (cu.tag) {
    case kern::CompiledUnitary::Tag::kDiag1:
      u[0] = cx{cu.re[0], cu.im[0]};
      u[3] = cx{cu.re[1], cu.im[1]};
      break;
    case kern::CompiledUnitary::Tag::kAnti1:
      u[1] = cx{cu.re[0], cu.im[0]};
      u[2] = cx{cu.re[1], cu.im[1]};
      break;
    default:
      for (int i = 0; i < 4; ++i) u[i] = cx{cu.re[i], cu.im[i]};
      break;
  }
  Super s{};
  for (int r = 0; r < 2; ++r) {
    for (int rr = 0; rr < 2; ++rr) {
      for (int c = 0; c < 2; ++c) {
        for (int cc = 0; cc < 2; ++cc) {
          s[(2 * r + rr) * 4 + (2 * c + cc)] =
              u[2 * r + c] * std::conj(u[2 * rr + cc]);
        }
      }
    }
  }
  return s;
}

Super relaxation_super(const RelaxationCoefficients& rc) {
  Super s{};
  s[0] = 1.0;
  s[3] = rc.gamma;
  s[5] = rc.decay;
  s[10] = rc.decay;
  s[15] = rc.keep;
  return s;
}

/// rho -> c1 rho + c2 ptrace(rho) (x) I/2 on one qubit, c2 = 4p/3.
Super depolarizing_super(double p) {
  const double c2 = p * 4.0 / 3.0;
  const double c1 = 1.0 - c2;
  const double fill = c2 * 0.5;
  Super s{};
  s[0] = c1 + fill;
  s[3] = fill;
  s[5] = c1;
  s[10] = c1;
  s[12] = fill;
  s[15] = c1 + fill;
  return s;
}

bool is_zero(cx v) { return v.real() == 0.0 && v.imag() == 0.0; }

/// The population rows read only populations, through real coefficients.
bool population_only(const Super& s) {
  return is_zero(s[1]) && is_zero(s[2]) && is_zero(s[13]) && is_zero(s[14]) &&
         s[0].imag() == 0.0 && s[3].imag() == 0.0 && s[12].imag() == 0.0 &&
         s[15].imag() == 0.0;
}

/// X shape: population-only, and each coherence is only scaled.
bool as_xshape(const Super& s, kern::XShape& x) {
  if (!population_only(s)) return false;
  for (int i : {4, 6, 7, 8, 9, 11}) {
    if (!is_zero(s[i])) return false;
  }
  x.a00 = s[0].real();
  x.a03 = s[3].real();
  x.a30 = s[12].real();
  x.a33 = s[15].real();
  x.z01r = s[5].real();
  x.z01i = s[5].imag();
  x.z10r = s[10].real();
  x.z10i = s[10].imag();
  return true;
}

void check_depolarizing(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("DensityMatrix: depolarizing p outside [0,1]");
  }
}

/// Local-value permutation of CX on a pair op's operands (hi, lo):
/// control hi flips lo when hi is set (2 <-> 3), control lo flips hi when
/// lo is set (1 <-> 3).
constexpr int kCxHi[4] = {0, 1, 3, 2};
constexpr int kCxLo[4] = {0, 3, 2, 1};

}  // namespace

std::vector<double> replay_channels(int num_qubits,
                                    std::span<const NoisyChannel> channels) {
  DensityMatrix dm(num_qubits);
  for (const NoisyChannel& ch : channels) {
    const std::span<const int> operands(ch.q,
                                        static_cast<std::size_t>(ch.width()));
    switch (ch.kind) {
      case NoisyChannel::Kind::kUnitary:
        dm.apply_compiled(*ch.op, operands);
        break;
      case NoisyChannel::Kind::kDepolarizing:
        dm.apply_depolarizing(ch.param, operands);
        break;
      case NoisyChannel::Kind::kRelaxation:
        dm.apply_relaxation(ch.q[0], ch.param, ch.t1_us, ch.t2_us);
        break;
    }
  }
  return dm.probabilities();
}

NoisyStream NoisyStream::build(int num_qubits,
                               std::span<const NoisyChannel> channels) {
  NoisyStream stream;
  stream.num_qubits_ = num_qubits;
  const auto n = static_cast<std::size_t>(num_qubits);
  std::vector<Super> pending(n);
  std::vector<char> has_pending(n, 0);
  std::vector<char> touched(n, 0);
  std::vector<std::ptrdiff_t> last(n, -1);  // last op touching each qubit
  std::vector<Op>& ops = stream.ops_;

  auto push = [&](int q, const Super& s) {
    if (has_pending[q]) {
      pending[q] = compose(s, pending[q]);
    } else {
      pending[q] = s;
      has_pending[q] = 1;
    }
  };
  auto flush_dense = [&](int q) {
    Op op;
    op.q[0] = q;
    op.superop = kern::compile_unitary(pending[q]);
    last[q] = static_cast<std::ptrdiff_t>(ops.size());
    ops.push_back(op);
    has_pending[q] = 0;
  };
  // Pending superoperator of `q` as a pair pre-channel when it has X
  // shape; otherwise flushed as its own dense pass.
  auto take_pre = [&](int q, kern::XShape& x) {
    if (!has_pending[q]) return false;
    if (as_xshape(pending[q], x)) {
      has_pending[q] = 0;
      return true;
    }
    flush_dense(q);
    return false;
  };

  for (const NoisyChannel& ch : channels) {
    const int a = ch.q[0];
    const int b = ch.q[1];
    switch (ch.kind) {
      case NoisyChannel::Kind::kRelaxation: {
        const RelaxationCoefficients rc =
            RelaxationCoefficients::of(ch.param, ch.t1_us, ch.t2_us);
        if (touched[a] && ch.param > 0.0) push(a, relaxation_super(rc));
        break;
      }
      case NoisyChannel::Kind::kDepolarizing: {
        check_depolarizing(ch.param);
        if (ch.param == 0.0) break;
        if (ch.width() == 1) {
          push(a, depolarizing_super(ch.param));
          break;
        }
        // Always directly after its CX, whose pair op is the last on both.
        kern::PairChannel& pc = ops[static_cast<std::size_t>(last[a])].channel;
        const double c2 = ch.param * 16.0 / 15.0;
        pc.c1 *= 1.0 - c2;
        pc.fill_scale = (1.0 - pc.c1) * 0.25;
        break;
      }
      case NoisyChannel::Kind::kUnitary: {
        touched[a] = 1;
        if (ch.width() == 1) {
          push(a, unitary_super(ch.op->sv));
          break;
        }
        if (ch.op->sv.tag != kern::CompiledUnitary::Tag::kCxPerm) {
          throw std::invalid_argument(
              "NoisyStream: two-qubit gates must be lowered to CX");
        }
        touched[b] = 1;
        const std::ptrdiff_t j = last[a];
        if (!has_pending[a] && !has_pending[b] && j >= 0 && last[b] == j &&
            ops[static_cast<std::size_t>(j)].pair) {
          // Nothing touched either operand since the previous CX on this
          // pair: fold this CX into that pass's permutation.
          Op& op = ops[static_cast<std::size_t>(j)];
          const int* cx_perm = op.q[0] == a ? kCxHi : kCxLo;
          for (int& d : op.channel.dst) d = cx_perm[d];
          break;
        }
        Op op;
        op.pair = true;
        op.q[0] = a;
        op.q[1] = b;
        std::copy(std::begin(kCxHi), std::end(kCxHi), op.channel.dst);
        const bool pre_hi = take_pre(a, op.channel.pre_hi);
        const bool pre_lo = take_pre(b, op.channel.pre_lo);
        op.channel.pre = pre_hi || pre_lo;
        last[a] = last[b] = static_cast<std::ptrdiff_t>(ops.size());
        ops.push_back(op);
        break;
      }
    }
  }
  for (int q = 0; q < num_qubits; ++q) {
    if (!has_pending[q]) continue;
    const Super& s = pending[q];
    if (population_only(s)) {
      stream.maps_.push_back(
          {q, s[0].real(), s[3].real(), s[12].real(), s[15].real()});
    } else {
      flush_dense(q);
    }
  }
  return stream;
}

std::vector<double> NoisyStream::run() const {
  DensityMatrix dm(num_qubits_);
  for (const Op& op : ops_) {
    if (op.pair) {
      dm.apply_pair_channel(op.q[0], op.q[1], op.channel);
    } else {
      dm.apply_superop(op.q[0], op.superop);
    }
  }
  std::vector<double> probs = dm.probabilities();
  for (const PopulationMap& m : maps_) {
    const std::size_t mask = std::size_t{1} << m.q;
    for (std::size_t x = 0; x < probs.size(); ++x) {
      if (x & mask) continue;
      const double p0 = probs[x];
      const double p1 = probs[x | mask];
      probs[x] = m.m00 * p0 + m.m01 * p1;
      probs[x | mask] = m.m10 * p0 + m.m11 * p1;
    }
  }
  return probs;
}

std::size_t NoisyStream::dense_passes() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      ops_.begin(), ops_.end(), [](const Op& op) { return !op.pair; }));
}

std::size_t NoisyStream::pair_passes() const noexcept {
  return ops_.size() - dense_passes();
}

}  // namespace qucp

#include "sim/noisy_stream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

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

/// v * c written out in real arithmetic: the value std::complex's
/// operator* gives for finite operands, without its NaN recovery branch
/// and __muldc3 call.
cx mul(cx v, cx c) {
  return {v.real() * c.real() - v.imag() * c.imag(),
          v.real() * c.imag() + v.imag() * c.real()};
}

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
  if (num_qubits < 0 || num_qubits > kMaxQubits) {
    throw std::invalid_argument("NoisyStream: unsupported width " +
                                std::to_string(num_qubits) + " (at most " +
                                std::to_string(kMaxQubits) + " qubits)");
  }
  NoisyStream stream;
  stream.num_qubits_ = num_qubits;
  const auto n = static_cast<std::size_t>(num_qubits);
  std::vector<Super> pending(n);
  std::vector<char> has_pending(n, 0);
  std::vector<char> born(n, 0);
  std::vector<std::ptrdiff_t> last(n, -1);  // last op touching each qubit
  // Births, dense and pair ops in stream order, operands as qubit ids;
  // positions are resolved once retirements are known.
  std::vector<Op> ops;

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
    op.kind = Op::Kind::kDense;
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
  // `q` enters the state as its pending superoperator applied to |0><0|:
  // column 0 of the 4x4.
  auto birth = [&](int q) {
    Op op;
    op.kind = Op::Kind::kBirth;
    op.q[0] = q;
    if (has_pending[q]) {
      for (int l = 0; l < 4; ++l) op.coef[l] = pending[q][4 * l];
      has_pending[q] = 0;
    } else {
      op.coef[0] = 1.0;
    }
    op.populations = is_zero(op.coef[1]) && is_zero(op.coef[2]) &&
                     op.coef[0].imag() == 0.0 && op.coef[3].imag() == 0.0;
    born[q] = 1;
    ops.push_back(op);
  };
  auto check_operand = [&](int q) {
    if (q < 0 || q >= num_qubits) {
      throw std::out_of_range("NoisyStream: qubit out of range");
    }
  };

  for (const NoisyChannel& ch : channels) {
    const int a = ch.q[0];
    const int b = ch.q[1];
    check_operand(a);
    if (ch.width() == 2) {
      check_operand(b);
      if (a == b) {
        throw std::invalid_argument(
            "NoisyStream: two-qubit channel on one qubit");
      }
    }
    switch (ch.kind) {
      case NoisyChannel::Kind::kRelaxation: {
        const RelaxationCoefficients rc =
            RelaxationCoefficients::of(ch.param, ch.t1_us, ch.t2_us);
        if (ch.param > 0.0) push(a, relaxation_super(rc));
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
        if (ch.width() == 1) {
          push(a, unitary_super(ch.op->sv));
          break;
        }
        if (ch.op->sv.tag != kern::CompiledUnitary::Tag::kCxPerm) {
          throw std::invalid_argument(
              "NoisyStream: two-qubit gates must be lowered to CX");
        }
        const std::ptrdiff_t j = last[a];
        if (!has_pending[a] && !has_pending[b] && j >= 0 && last[b] == j &&
            ops[static_cast<std::size_t>(j)].kind == Op::Kind::kPair) {
          // Nothing touched either operand since the previous CX on this
          // pair: fold this CX into that pass's permutation.
          Op& op = ops[static_cast<std::size_t>(j)];
          const int* cx_perm = op.q[0] == a ? kCxHi : kCxLo;
          for (int& d : op.channel.dst) d = cx_perm[d];
          break;
        }
        Op op;
        op.q[0] = a;
        op.q[1] = b;
        std::copy(std::begin(kCxHi), std::end(kCxHi), op.channel.dst);
        bool pre_hi = false;
        bool pre_lo = false;
        if (born[a]) {
          pre_hi = take_pre(a, op.channel.pre_hi);
        } else {
          birth(a);
        }
        if (born[b]) {
          pre_lo = take_pre(b, op.channel.pre_lo);
        } else {
          birth(b);
        }
        op.channel.pre = pre_hi || pre_lo;
        last[a] = last[b] = static_cast<std::ptrdiff_t>(ops.size());
        ops.push_back(op);
        break;
      }
    }
  }

  // Each born qubit retires right after its last op (always a pair op: a
  // dense pass is only flushed just before one).
  std::vector<std::pair<std::ptrdiff_t, int>> retirements;
  for (int q = 0; q < num_qubits; ++q) {
    if (born[q]) retirements.emplace_back(last[q], q);
  }
  std::sort(retirements.begin(), retirements.end());

  // Resolve positions over the present bit ids: column bit q, row bit
  // n + q (ids < 48 since n <= 24).
  std::uint64_t present = 0;
  int bits = 0;
  int peak = 0;
  auto position = [&](int id) {
    return std::popcount(present & ((std::uint64_t{1} << id) - 1));
  };
  auto place = [&](Op& op) {
    op.bits = bits;
    op.col = position(op.q[0]);
    op.row = position(num_qubits + op.q[0]);
  };
  auto next = retirements.begin();
  stream.ops_.reserve(ops.size() + retirements.size() + n);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    switch (op.kind) {
      case Op::Kind::kBirth:
        present |= std::uint64_t{1} << op.q[0];
        present |= std::uint64_t{1} << (num_qubits + op.q[0]);
        place(op);
        bits += 2;
        break;
      case Op::Kind::kDense:
        place(op);
        break;
      case Op::Kind::kPair:
        op.bits = bits;
        op.geometry = kern::PairGeometry(
            position(num_qubits + op.q[0]), position(op.q[0]),
            position(num_qubits + op.q[1]), position(op.q[1]));
        break;
      case Op::Kind::kRetire:
      case Op::Kind::kJoin:
        break;
    }
    peak = std::max(peak, bits);
    stream.ops_.push_back(op);
    for (; next != retirements.end() &&
           next->first == static_cast<std::ptrdiff_t>(i);
         ++next) {
      const int q = next->second;
      Op retire;
      retire.kind = Op::Kind::kRetire;
      retire.q[0] = q;
      place(retire);
      if (has_pending[q]) {
        for (int c = 0; c < 4; ++c) {
          retire.coef[c] = pending[q][c];
          retire.coef[4 + c] = pending[q][12 + c];
        }
        retire.populations = population_only(pending[q]);
      } else {
        retire.coef[0] = 1.0;
        retire.coef[7] = 1.0;
        retire.populations = true;
      }
      present &= ~(std::uint64_t{1} << (num_qubits + q));
      bits -= 1;
      stream.ops_.push_back(retire);
    }
  }
  for (int q = 0; q < num_qubits; ++q) {
    if (born[q]) continue;
    Op join;
    join.kind = Op::Kind::kJoin;
    join.q[0] = q;
    present |= std::uint64_t{1} << q;
    join.bits = bits;
    join.col = position(q);
    if (has_pending[q]) {
      join.coef[0] = pending[q][0];
      join.coef[1] = pending[q][12];
    } else {
      join.coef[0] = 1.0;
    }
    bits += 1;
    peak = std::max(peak, bits);
    stream.ops_.push_back(join);
  }
  if (peak > kMaxStateBits) {
    throw std::invalid_argument(
        "NoisyStream: a " + std::to_string(num_qubits) +
        "-qubit program peaks at " + std::to_string(peak) +
        " live state bits, above the " + std::to_string(kMaxStateBits) +
        "-bit cap (2^" + std::to_string(kMaxStateBits) +
        " density elements, 256 MiB)");
  }
  stream.peak_bits_ = peak;
  return stream;
}

std::vector<double> NoisyStream::run() const {
  std::vector<cx> state(std::size_t{1} << peak_bits_);
  state[0] = 1.0;
  cx* const a = state.data();
  for (const Op& op : ops_) {
    const std::size_t size = std::size_t{1} << op.bits;
    const std::size_t col = std::size_t{1} << op.col;
    const std::size_t row = std::size_t{1} << op.row;
    switch (op.kind) {
      case Op::Kind::kBirth:
        // Insert the qubit's two bits. Element t fans out to indices
        // >= t, and only elements below t remain to be read, so walking t
        // downward never overwrites an element before it is read.
        if (op.populations) {
          // A real diagonal 2x2 rho: the coherences are born zero.
          const double c0 = op.coef[0].real();
          const double c3 = op.coef[3].real();
          for (std::size_t t = size; t-- > 0;) {
            const double vr = a[t].real();
            const double vi = a[t].imag();
            const std::size_t base =
                kern::insert_bit(kern::insert_bit(t, op.col), op.row);
            a[base] = cx{vr * c0, vi * c0};
            a[base + col] = cx{};
            a[base + row] = cx{};
            a[base + row + col] = cx{vr * c3, vi * c3};
          }
          break;
        }
        for (std::size_t t = size; t-- > 0;) {
          const cx v = a[t];
          const std::size_t base =
              kern::insert_bit(kern::insert_bit(t, op.col), op.row);
          a[base] = mul(v, op.coef[0]);
          a[base + col] = mul(v, op.coef[1]);
          a[base + row] = mul(v, op.coef[2]);
          a[base + row + col] = mul(v, op.coef[3]);
        }
        break;
      case Op::Kind::kDense: {
        const int targets[2] = {op.row, op.col};
        kern::apply_compiled(std::span<cx>(a, size), op.bits, targets,
                             op.superop);
        break;
      }
      case Op::Kind::kPair:
        kern::apply_pair_channel(a, size >> 4, op.geometry, op.channel);
        break;
      case Op::Kind::kRetire:
        // Keep each 4-element block's two populations and drop the row
        // bit. An index block t writes belongs, as an input, to the block
        // found by removing both bits from it: t with its bits from the
        // row position up shifted down one, so a block <= t. Walking t
        // upward therefore reads every element before it is overwritten.
        if (op.populations) {
          // p0 = a e0 + b e3, p1 = c e0 + d e3 with real coefficients:
          // the general sum below with its zero terms left out.
          const double c00 = op.coef[0].real();
          const double c03 = op.coef[3].real();
          const double c10 = op.coef[4].real();
          const double c13 = op.coef[7].real();
          for (std::size_t t = 0; t < size >> 2; ++t) {
            const std::size_t out = kern::insert_bit(t, op.col);
            const std::size_t base = kern::insert_bit(out, op.row);
            const cx e0 = a[base];
            const cx e3 = a[base + row + col];
            a[out] = cx{c00 * e0.real() + c03 * e3.real(),
                        c00 * e0.imag() + c03 * e3.imag()};
            a[out + col] = cx{c10 * e0.real() + c13 * e3.real(),
                              c10 * e0.imag() + c13 * e3.imag()};
          }
          break;
        }
        for (std::size_t t = 0; t < size >> 2; ++t) {
          const std::size_t out = kern::insert_bit(t, op.col);
          const std::size_t base = kern::insert_bit(out, op.row);
          const cx e[4] = {a[base], a[base + col], a[base + row],
                           a[base + row + col]};
          cx p0{0.0, 0.0};
          cx p1{0.0, 0.0};
          for (int l = 0; l < 4; ++l) {
            p0 += mul(e[l], op.coef[l]);
            p1 += mul(e[l], op.coef[4 + l]);
          }
          a[out] = p0;
          a[out + col] = p1;
        }
        break;
      case Op::Kind::kJoin:
        // One bit inserted; downward for the same reason as a birth.
        for (std::size_t t = size; t-- > 0;) {
          const cx v = a[t];
          const std::size_t base = kern::insert_bit(t, op.col);
          a[base] = mul(v, op.coef[0]);
          a[base + col] = mul(v, op.coef[1]);
        }
        break;
    }
  }
  std::vector<double> probs(std::size_t{1} << num_qubits_);
  for (std::size_t x = 0; x < probs.size(); ++x) {
    probs[x] = std::max(0.0, a[x].real());
  }
  return probs;
}

std::size_t NoisyStream::dense_passes() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(), [](const Op& op) {
        return op.kind == Op::Kind::kDense;
      }));
}

std::size_t NoisyStream::pair_passes() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(), [](const Op& op) {
        return op.kind == Op::Kind::kPair;
      }));
}

}  // namespace qucp

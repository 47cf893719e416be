#include "sim/density.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace qucp {

DensityMatrix::DensityMatrix(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 0 || num_qubits > 12) {
    throw std::invalid_argument("DensityMatrix: unsupported qubit count");
  }
  dim_ = std::size_t{1} << num_qubits;
  rho_.assign(dim_ * dim_, cx{0.0, 0.0});
  rho_[0] = 1.0;
}

void DensityMatrix::check_qubits(std::span<const int> qubits) const {
  for (int q : qubits) {
    if (q < 0 || q >= num_qubits_) {
      throw std::out_of_range("DensityMatrix: qubit out of range");
    }
  }
}

void DensityMatrix::transform_two_sided(const Matrix& u,
                                        std::span<const int> qubits) {
  const int k = static_cast<int>(qubits.size());
  const int n2 = 2 * num_qubits_;
  const std::span<cx> amps(rho_);
  if (k == 1) {
    // Single fused pass: U (x) conj(U) is a 4x4 superket gate on bits
    // (q + n, q) — one sweep over rho instead of a row and a column pass.
    const std::span<const cx> d = u.data();
    cx ku[16];
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        const cx scale = d[static_cast<std::size_t>(2 * r + c)];
        for (int rr = 0; rr < 2; ++rr) {
          for (int cc = 0; cc < 2; ++cc) {
            ku[(2 * r + rr) * 4 + (2 * c + cc)] =
                scale * std::conj(d[static_cast<std::size_t>(2 * rr + cc)]);
          }
        }
      }
    }
    kern::apply2(amps, n2, qubits[0] + num_qubits_, qubits[0], ku);
    return;
  }
  // Row pass: U on the row bits (superket positions q + n).
  int row_targets[16];
  for (int j = 0; j < k; ++j) row_targets[j] = qubits[j] + num_qubits_;
  kern::apply_unitary(amps, n2, std::span<const int>(row_targets, qubits.size()),
                      u.data(), /*conjugate=*/false, kernel_scratch_);
  // Column pass: conj(U) on the column bits (superket positions q).
  kern::apply_unitary(amps, n2, qubits, u.data(), /*conjugate=*/true,
                      kernel_scratch_);
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  std::span<const int> qubits) {
  check_qubits(qubits);
  const std::size_t ldim = std::size_t{1} << qubits.size();
  if (u.rows() != ldim || u.cols() != ldim) {
    throw std::invalid_argument("DensityMatrix: matrix/operand mismatch");
  }
  if (qubits.empty()) {
    // 1x1 "unitary": a global scalar u rho conj(u).
    const cx s = u(0, 0) * std::conj(u(0, 0));
    for (cx& v : rho_) v *= s;
    return;
  }
  transform_two_sided(u, qubits);
}

void DensityMatrix::apply_compiled(const FusedOp& op,
                                   std::span<const int> qubits) {
  check_qubits(qubits);
  if (static_cast<int>(qubits.size()) != op.k()) {
    throw std::invalid_argument("DensityMatrix: matrix/operand mismatch");
  }
  const int n2 = 2 * num_qubits_;
  const std::span<cx> amps(rho_);
  if (op.k() == 1) {
    // One fused superket pass: op.dm is the compiled U (x) conj(U) on bits
    // (q + n, q), exactly what transform_two_sided builds per call.
    const int targets[2] = {qubits[0] + num_qubits_, qubits[0]};
    kern::apply_compiled(amps, n2, targets, op.dm);
    return;
  }
  // Row pass (U on the row bits), then column pass (conj(U) on the column
  // bits) — the same two sweeps as the uncompiled path.
  const int row[2] = {qubits[0] + num_qubits_, qubits[1] + num_qubits_};
  kern::apply_compiled(amps, n2, row, op.sv);
  const int col[2] = {qubits[0], qubits[1]};
  kern::apply_compiled(amps, n2, col, op.dm);
}

void DensityMatrix::run(const CompiledProgram& program) {
  if (program.num_qubits() != num_qubits_) {
    throw std::invalid_argument("DensityMatrix: qubit count mismatch");
  }
  for (const FusedOp& op : program.ops()) {
    apply_compiled(op, std::span<const int>(op.q, op.k()));
  }
}

void DensityMatrix::apply_depolarizing(double p, std::span<const int> qubits) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("DensityMatrix: depolarizing p outside [0,1]");
  }
  if (p == 0.0) return;
  check_qubits(qubits);
  const int k = static_cast<int>(qubits.size());
  const std::size_t ldim = std::size_t{1} << k;
  const double pauli_dim = std::pow(4.0, k);
  // Uniform-Pauli channel via the twirl identity:
  //   sum_{all P} P rho P = 4^m * ptrace(rho) (x) I/2^m
  // so rho' = c1 * rho + c2 * [ptrace(rho) (x) I/2^m] with:
  const double c2 = p * pauli_dim / (pauli_dim - 1.0);
  const double c1 = 1.0 - c2;
  const double inv_ldim = 1.0 / static_cast<double>(ldim);

  // Fused single-pass updates for the sizes gate channels have: each
  // 2^k x 2^k local block needs only its own elements (trace of the local
  // diagonal, uniform contraction, refill), so no scratch or extra sweeps.
  if (k == 1) {
    const int pc = qubits[0];
    const int pr = qubits[0] + num_qubits_;
    const std::size_t mc = std::size_t{1} << pc;
    const std::size_t mr = std::size_t{1} << pr;
    const std::size_t quads = (dim_ * dim_) >> 2;
    cx* rho = rho_.data();
    kern::parallel_for(quads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        const std::size_t base =
            kern::insert_bit(kern::insert_bit(t, pc), pr);
        const cx p00 = rho[base];
        const cx p11 = rho[base | mr | mc];
        const cx fill = c2 * (p00 + p11) * inv_ldim;
        rho[base] = c1 * p00 + fill;
        rho[base | mc] *= c1;
        rho[base | mr] *= c1;
        rho[base | mr | mc] = c1 * p11 + fill;
      }
    });
    return;
  }
  if (k == 2) {
    const int n = num_qubits_;
    // Local value s: qubits[0] is the high bit (matching with_local).
    std::size_t row_off[4];
    std::size_t col_off[4];
    for (std::size_t s = 0; s < 4; ++s) {
      col_off[s] = ((s >> 1) ? (std::size_t{1} << qubits[0]) : 0) |
                   ((s & 1) ? (std::size_t{1} << qubits[1]) : 0);
      row_off[s] = col_off[s] << n;
    }
    int positions[4] = {qubits[0], qubits[1], qubits[0] + n, qubits[1] + n};
    std::sort(positions, positions + 4);
    const std::size_t blocks = (dim_ * dim_) >> 4;
    cx* rho = rho_.data();
    kern::parallel_for(blocks, [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        std::size_t base = t;
        for (int j = 0; j < 4; ++j) base = kern::insert_bit(base, positions[j]);
        cx traced{0.0, 0.0};
        for (std::size_t s = 0; s < 4; ++s) {
          traced += rho[base + row_off[s] + col_off[s]];
        }
        const cx fill = c2 * traced * inv_ldim;
        for (std::size_t sr = 0; sr < 4; ++sr) {
          for (std::size_t sc = 0; sc < 4; ++sc) {
            cx& v = rho[base + row_off[sr] + col_off[sc]];
            v *= c1;
            if (sr == sc) v += fill;
          }
        }
      }
    });
    return;
  }

  // Superket positions of the 2k target bits, ascending, for base
  // enumeration; per-local-value offsets onto the local diagonal (s, s).
  int positions[32];
  for (int j = 0; j < k; ++j) positions[j] = qubits[j];
  std::sort(positions, positions + k);
  for (int j = 0; j < k; ++j) positions[k + j] = positions[j] + num_qubits_;

  offset_scratch_.assign(ldim, 0);
  for (std::size_t s = 0; s < ldim; ++s) {
    std::size_t off = 0;
    for (int j = 0; j < k; ++j) {
      if ((s >> (k - 1 - j)) & 1U) {
        off |= (std::size_t{1} << qubits[j]) |
               (std::size_t{1} << (qubits[j] + num_qubits_));
      }
    }
    offset_scratch_[s] = off;
  }

  const std::size_t bases = (dim_ * dim_) >> (2 * k);
  auto expand = [&](std::size_t t) {
    for (int j = 0; j < 2 * k; ++j) t = kern::insert_bit(t, positions[j]);
    return t;
  };

  // Pass 1: partial trace of every (row-base, col-base) block, taken from
  // the pre-scaled state.
  trace_scratch_.assign(bases, cx{0.0, 0.0});
  cx* rho = rho_.data();
  cx* traces = trace_scratch_.data();
  const std::size_t* offs = offset_scratch_.data();
  kern::parallel_for(bases, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = expand(t);
      cx acc{0.0, 0.0};
      for (std::size_t s = 0; s < ldim; ++s) acc += rho[base + offs[s]];
      traces[t] = acc;
    }
  });
  // Pass 2: uniform contraction toward zero.
  kern::parallel_for(rho_.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) rho[i] *= c1;
  });
  // Pass 3: refill the local diagonal with the traced mass.
  kern::parallel_for(bases, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = expand(t);
      const cx fill = c2 * traces[t] * inv_ldim;
      for (std::size_t s = 0; s < ldim; ++s) rho[base + offs[s]] += fill;
    }
  });
}

void DensityMatrix::apply_kraus(std::span<const Matrix> kraus,
                                std::span<const int> qubits, bool validate) {
  check_qubits(qubits);
  if (kraus.empty()) {
    throw std::invalid_argument("DensityMatrix: empty Kraus set");
  }
  const std::size_t ldim = std::size_t{1} << qubits.size();
  for (const Matrix& k : kraus) {
    if (k.rows() != ldim || k.cols() != ldim) {
      throw std::invalid_argument("DensityMatrix: matrix/operand mismatch");
    }
  }
  if (validate) {
    Matrix completeness(ldim, ldim);
    for (const Matrix& k : kraus) completeness += k.dagger() * k;
    if (!completeness.approx_equal(Matrix::identity(ldim), 1e-8)) {
      throw std::invalid_argument(
          "DensityMatrix: Kraus set not trace-preserving");
    }
  }

  // K rho K^dagger runs through the same superket transform as a unitary —
  // the transform itself never requires unitarity.
  if (kraus.size() == 1) {
    transform_two_sided(kraus[0], qubits);
    return;
  }
  kraus_orig_.assign(rho_.begin(), rho_.end());
  kraus_acc_.assign(rho_.size(), cx{0.0, 0.0});
  for (std::size_t i = 0; i < kraus.size(); ++i) {
    if (i != 0) std::copy(kraus_orig_.begin(), kraus_orig_.end(), rho_.begin());
    transform_two_sided(kraus[i], qubits);
    for (std::size_t j = 0; j < rho_.size(); ++j) kraus_acc_[j] += rho_[j];
  }
  rho_.swap(kraus_acc_);
}

RelaxationCoefficients RelaxationCoefficients::of(double duration_ns,
                                                  double t1_us, double t2_us) {
  RelaxationCoefficients rc;
  if (duration_ns <= 0.0) return rc;
  if (t1_us <= 0.0 || t2_us <= 0.0) {
    throw std::invalid_argument("DensityMatrix: non-positive T1/T2");
  }
  const double t_us = duration_ns * 1e-3;
  const double gamma = 1.0 - std::exp(-t_us / t1_us);
  // Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1); clamp at 0 when T2 is
  // reported above the 2*T1 physical limit.
  const double inv_tphi = std::max(0.0, 1.0 / t2_us - 0.5 / t1_us);
  const double lambda = 1.0 - std::exp(-t_us * inv_tphi);

  // Fused amplitude-damping (gamma) + pure-dephasing (lambda) channel in
  // closed form. With m the qubit mask, each 2x2 sub-block
  // [[p00, p01], [p10, p11]] over (row bit, col bit) maps to
  //   [[p00 + gamma p11,     sqrt(1-gamma)sqrt(1-lambda) p01],
  //    [sqrt(..)sqrt(..) p10,               (1-gamma) p11]]
  // — the composition of the AD Kraus pair {diag(1, sqrt(1-gamma)),
  // sqrt(gamma)|0><1|} and the PD pair {diag(1, sqrt(1-lambda)),
  // sqrt(lambda)|1><1|}. Both pairs are complete by construction, so the
  // full trace-preservation check reduces to this parameter-range guard
  // (two comparisons per call; also rejects NaN from a NaN duration,
  // which the old Kraus completeness check caught by throwing).
  if (!(gamma >= 0.0 && gamma <= 1.0) || !(lambda >= 0.0 && lambda <= 1.0)) {
    throw std::invalid_argument(
        "DensityMatrix: relaxation channel parameters outside [0,1]");
  }
  rc.gamma = gamma;
  rc.keep = 1.0 - gamma;
  rc.decay = std::sqrt(std::max(0.0, 1.0 - gamma)) *
             std::sqrt(std::max(0.0, 1.0 - lambda));
  return rc;
}

void DensityMatrix::apply_relaxation(int qubit, double duration_ns,
                                     double t1_us, double t2_us) {
  check_qubits(std::span<const int>(&qubit, 1));
  if (duration_ns <= 0.0) return;
  const auto [gamma, decay, keep] =
      RelaxationCoefficients::of(duration_ns, t1_us, t2_us);

  const int pc = qubit;                // column bit position in the superket
  const int pr = qubit + num_qubits_;  // row bit position
  const std::size_t mc = std::size_t{1} << pc;
  const std::size_t mr = std::size_t{1} << pr;
  const std::size_t quads = (dim_ * dim_) >> 2;
  cx* rho = rho_.data();
  kern::parallel_for(quads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = kern::insert_bit(kern::insert_bit(t, pc), pr);
      const cx p11 = rho[base | mr | mc];
      rho[base] += gamma * p11;
      rho[base | mc] *= decay;
      rho[base | mr] *= decay;
      rho[base | mr | mc] = keep * p11;
    }
  });
}

void DensityMatrix::apply_superop(int qubit,
                                  const kern::CompiledUnitary& superop) {
  check_qubits(std::span<const int>(&qubit, 1));
  if (superop.k != 2) {
    throw std::invalid_argument("DensityMatrix: superoperator must be 4x4");
  }
  const int targets[2] = {qubit + num_qubits_, qubit};
  kern::apply_compiled(std::span<cx>(rho_), 2 * num_qubits_, targets, superop);
}

void DensityMatrix::apply_pair_channel(int hi, int lo,
                                       const kern::PairChannel& channel) {
  const int qubits[2] = {hi, lo};
  check_qubits(qubits);
  if (hi == lo) {
    throw std::invalid_argument("DensityMatrix: pair channel on one qubit");
  }
  const kern::PairGeometry geo(num_qubits_, hi, lo);
  kern::apply_pair_channel(rho_.data(), (dim_ * dim_) >> 4, geo, channel);
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> probs(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    probs[i] = std::max(0.0, rho_[i * dim_ + i].real());
  }
  return probs;
}

double DensityMatrix::expectation(const Matrix& observable) const {
  if (observable.rows() != dim_ || observable.cols() != dim_) {
    throw std::invalid_argument("DensityMatrix: observable shape mismatch");
  }
  cx acc{0.0, 0.0};
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      acc += rho_[r * dim_ + c] * observable(c, r);
    }
  }
  return acc.real();
}

double DensityMatrix::trace_real() const {
  double t = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) t += rho_[i * dim_ + i].real();
  return t;
}

double DensityMatrix::purity() const {
  double t = 0.0;
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      t += std::norm(rho_[r * dim_ + c]);
    }
  }
  return t;
}

}  // namespace qucp

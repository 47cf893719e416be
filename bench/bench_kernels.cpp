// Kernel microbenchmark: ns/gate for the density-matrix and statevector
// simulation kernels by kernel type and qubit count. The artifact writes
// BENCH_kernels.json (schema qucp-bench-kernels-v1) so the perf trajectory
// of the simulator hot path is pinned across PRs; CI runs it in smoke mode
// (QUCP_BENCH_SMOKE=1, reduced repetitions) so regressions show up in PR
// logs without minutes of timer budget.
//
// Only public simulator API is used, so the same binary measures any
// kernel implementation generation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/gate.hpp"
#include "common/strings.hpp"
#include "sim/density.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qucp;

bool smoke_mode() {
  const char* env = std::getenv("QUCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

struct KernelResult {
  std::string kernel;
  int qubits = 0;
  double ns_per_op = 0.0;
};

/// Time `body` over enough repetitions to amortize clock overhead. The
/// repetition count scales inversely with the state size so every cell
/// costs roughly the same wall-clock budget.
template <typename F>
double time_ns_per_op(int reps, F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         std::max(1, reps);
}

int reps_for(std::size_t state_elems) {
  const std::size_t budget = smoke_mode() ? (std::size_t{1} << 19)
                                          : (std::size_t{1} << 25);
  const std::size_t reps = budget / std::max<std::size_t>(1, state_elems);
  return static_cast<int>(std::clamp<std::size_t>(reps, 4, 200000));
}

std::vector<KernelResult> run_density_suite(int n) {
  std::vector<KernelResult> out;
  const std::size_t dim2 = (std::size_t{1} << n) * (std::size_t{1} << n);
  const int reps = reps_for(dim2);

  const Matrix h = gate_matrix(GateKind::H);
  const Matrix cxm = gate_matrix(GateKind::CX);
  const std::vector<int> q1{n / 2};
  const std::vector<int> q2{0, n - 1};

  {
    DensityMatrix dm(n);
    out.push_back({"density_unitary_1q", n, time_ns_per_op(reps, [&] {
                     dm.apply_unitary(h, q1);
                   })});
  }
  if (n >= 2) {
    DensityMatrix dm(n);
    out.push_back({"density_unitary_2q", n, time_ns_per_op(reps, [&] {
                     dm.apply_unitary(cxm, q2);
                   })});
  }
  {
    DensityMatrix dm(n);
    dm.apply_unitary(h, q1);
    out.push_back({"density_depolarizing_1q", n, time_ns_per_op(reps, [&] {
                     dm.apply_depolarizing(0.01, q1);
                   })});
  }
  if (n >= 2) {
    DensityMatrix dm(n);
    dm.apply_unitary(h, q1);
    out.push_back({"density_depolarizing_2q", n, time_ns_per_op(reps, [&] {
                     dm.apply_depolarizing(0.01, q2);
                   })});
  }
  {
    DensityMatrix dm(n);
    dm.apply_unitary(h, q1);
    out.push_back({"density_relaxation", n, time_ns_per_op(reps, [&] {
                     dm.apply_relaxation(n / 2, 35.0, 80.0, 70.0);
                   })});
  }
  // The fused noisy stream's passes (sim/noisy_stream.hpp): a dense 1q
  // superoperator (4 complex MACs per element), the CX + depolarizing
  // block pass, and the same pass carrying X-shaped pre-channels on both
  // operands. Each is timed on the dispatched kernels and again on the
  // scalar fallback.
  const kern::CompiledUnitary ry_super = [] {
    const Matrix ry = gate_matrix(Gate{GateKind::RY, {0}, {0.7}, -1});
    cx s[16];
    for (int r = 0; r < 2; ++r) {
      for (int rr = 0; rr < 2; ++rr) {
        for (int c = 0; c < 2; ++c) {
          for (int cc = 0; cc < 2; ++cc) {
            s[(2 * r + rr) * 4 + (2 * c + cc)] =
                ry(r, c) * std::conj(ry(rr, cc));
          }
        }
      }
    }
    return kern::compile_unitary(std::span<const cx>(s, 16));
  }();
  kern::PairChannel pair;
  pair.dst[2] = 3;
  pair.dst[3] = 2;
  pair.c1 = 1.0 - 0.02 * 16.0 / 15.0;
  pair.fill_scale = (1.0 - pair.c1) * 0.25;
  kern::PairChannel pair_x = pair;
  pair_x.pre = true;
  for (kern::XShape* x : {&pair_x.pre_hi, &pair_x.pre_lo}) {
    x->a03 = 0.01;
    x->a33 = 0.99;
    x->z01r = x->z10r = 0.98;
    x->z01i = 0.05;
    x->z10i = -0.05;
  }
  const int hi = n - 1;
  const int lo = (n - 1) / 2;
  for (const bool native : {true, false}) {
    const bool was = kern::native_kernels_active();
    if (native && !was) continue;
    kern::set_native_kernels(native);
    const std::string suffix = native ? "" : "_scalar";
    DensityMatrix dm(n);
    dm.apply_unitary(h, q1);
    out.push_back({"density_superop_dense_1q" + suffix, n,
                   time_ns_per_op(reps, [&] {
                     dm.apply_superop(n / 2, ry_super);
                   })});
    if (n >= 2) {
      out.push_back({"density_pair_cx_depol" + suffix, n,
                     time_ns_per_op(reps, [&] {
                       dm.apply_pair_channel(hi, lo, pair);
                     })});
      out.push_back({"density_pair_cx_depol_xshape" + suffix, n,
                     time_ns_per_op(reps, [&] {
                       dm.apply_pair_channel(hi, lo, pair_x);
                     })});
    }
    kern::set_native_kernels(was);
  }
  {
    DensityMatrix dm(n);
    dm.apply_unitary(h, q1);
    const double g = 0.02;
    const Matrix k0(2, 2, {1, 0, 0, std::sqrt(1.0 - g)});
    const Matrix k1(2, 2, {0, std::sqrt(g), 0, 0});
    const Matrix kraus[] = {k0, k1};
    out.push_back({"density_kraus_1q", n, time_ns_per_op(reps, [&] {
                     dm.apply_kraus(kraus, q1);
                   })});
  }
  return out;
}

std::vector<KernelResult> run_statevector_suite(int n) {
  std::vector<KernelResult> out;
  const int reps = reps_for(std::size_t{1} << n);
  const Matrix h = gate_matrix(GateKind::H);
  const Matrix cxm = gate_matrix(GateKind::CX);
  const std::vector<int> q1{n / 2};
  const std::vector<int> q2{0, n - 1};
  {
    Statevector sv(n);
    out.push_back({"statevector_unitary_1q", n, time_ns_per_op(reps, [&] {
                     sv.apply_unitary(h, q1);
                   })});
  }
  if (n >= 2) {
    Statevector sv(n);
    out.push_back({"statevector_unitary_2q", n, time_ns_per_op(reps, [&] {
                     sv.apply_unitary(cxm, q2);
                   })});
  }
  return out;
}

void write_json(const std::vector<KernelResult>& results) {
  const char* env = std::getenv("QUCP_BENCH_OUT");
  const std::string path = (env != nullptr && *env != '\0')
                               ? std::string(env)
                               : std::string("BENCH_kernels.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-kernels-v1\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(f, "  \"unit\": \"ns_per_op\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"qubits\": %d, "
                 "\"ns_per_op\": %.1f}%s\n",
                 r.kernel.c_str(), r.qubits, r.ns_per_op,
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu kernel timings%s)\n", path.c_str(),
              results.size(), smoke_mode() ? ", smoke mode" : "");
}

void print_kernel_grid() {
  bench::heading("Simulation kernels: ns/op by kernel and qubit count");
  std::vector<KernelResult> all;
  const std::vector<int> density_sizes = smoke_mode()
                                             ? std::vector<int>{2, 4, 6}
                                             : std::vector<int>{2, 4, 6, 8, 10};
  const std::vector<int> sv_sizes = smoke_mode()
                                        ? std::vector<int>{2, 6, 10}
                                        : std::vector<int>{2, 4, 6, 8, 10, 12};
  for (int n : density_sizes) {
    const auto rs = run_density_suite(n);
    all.insert(all.end(), rs.begin(), rs.end());
  }
  for (int n : sv_sizes) {
    const auto rs = run_statevector_suite(n);
    all.insert(all.end(), rs.begin(), rs.end());
  }

  bench::row({"kernel", "qubits", "ns/op"}, 38);
  bench::rule(3, 38);
  for (const KernelResult& r : all) {
    bench::row({r.kernel, std::to_string(r.qubits), fmt_double(r.ns_per_op, 1)},
               38);
  }
  write_json(all);
}

// Representative google-benchmark timers (the JSON artifact above is the
// canonical record; these give perf-diff-friendly console output).
void BM_DensityGate1q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix dm(n);
  const Matrix h = gate_matrix(GateKind::H);
  const std::vector<int> q{n / 2};
  for (auto _ : state) dm.apply_unitary(h, q);
}
BENCHMARK(BM_DensityGate1q)->Arg(4)->Arg(8);

void BM_DensityGate2q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix dm(n);
  const Matrix cxm = gate_matrix(GateKind::CX);
  const std::vector<int> q{0, n - 1};
  for (auto _ : state) dm.apply_unitary(cxm, q);
}
BENCHMARK(BM_DensityGate2q)->Arg(4)->Arg(8);

void BM_DensityRelaxation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix dm(n);
  const Matrix h = gate_matrix(GateKind::H);
  dm.apply_unitary(h, std::vector<int>{n / 2});
  for (auto _ : state) dm.apply_relaxation(n / 2, 35.0, 80.0, 70.0);
}
BENCHMARK(BM_DensityRelaxation)->Arg(4)->Arg(8);

void BM_StatevectorGate2q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Statevector sv(n);
  const Matrix cxm = gate_matrix(GateKind::CX);
  const std::vector<int> q{0, n - 1};
  for (auto _ : state) sv.apply_unitary(cxm, q);
}
BENCHMARK(BM_StatevectorGate2q)->Arg(4)->Arg(12);

}  // namespace

QUCP_BENCH_MAIN(print_kernel_grid)

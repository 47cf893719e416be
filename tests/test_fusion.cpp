// Golden suite for the program-fusion layer (sim/fusion.hpp).
//
// Fused replay must agree with gate-by-gate replay to <= 1e-10 on both the
// statevector (ideal_distribution) and density-matrix pipelines, over
// randomized circuits shaped for every bundled topology. The executor's
// per-op compiled channels must be BIT-identical to the uncompiled
// apply_unitary path (the compilation only hoists work, it must not change
// a single rounding), which in turn pins the sample_counts RNG streams.
// Structural tests assert fusion never merges across barriers or
// measurements.

#include "sim/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmarks/suite.hpp"
#include "circuit/decompose.hpp"
#include "circuit/gate_cache.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "service/backend.hpp"
#include "sim/density.hpp"
#include "sim/executor.hpp"
#include "sim/kernels.hpp"
#include "sim/noisy_stream.hpp"
#include "sim/statevector.hpp"
#include "random_circuits.hpp"

namespace qucp {
namespace {

using testutil::bundled_devices;
using testutil::dist_diff;
using testutil::hand_built_channels;
using testutil::random_1q_gate;
using testutil::random_physical_circuit;

constexpr double kTol = 1e-10;

double state_diff(std::span<const cx> a, std::span<const cx> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

/// Gate-by-gate density replay of a circuit's unitary stream.
DensityMatrix density_reference(const Circuit& c) {
  DensityMatrix dm(c.num_qubits());
  for (const Gate& g : c.ops()) {
    if (g.kind == GateKind::Barrier || g.kind == GateKind::Measure) continue;
    dm.apply_unitary(gate_matrix(g), g.qubits);
  }
  return dm;
}

void expect_fused_matches_unfused(const Circuit& c, const char* label) {
  const CompiledProgram prog = CompiledProgram::compile(c);
  if (c.has_measurements()) {
    EXPECT_LT(dist_diff(ideal_distribution(prog), ideal_distribution(c)), kTol)
        << label;
  }
  if (c.num_qubits() <= 6) {
    DensityMatrix fused(c.num_qubits());
    fused.run(prog);
    EXPECT_LT(state_diff(fused.data(), density_reference(c).data()), kTol)
        << label;
  }
}

TEST(FusionGolden, SuiteCircuitsMatchUnfused) {
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    expect_fused_matches_unfused(spec.circuit, spec.short_name.c_str());
    expect_fused_matches_unfused(spec.circuit.compacted(),
                                 spec.short_name.c_str());
  }
}

TEST(FusionGolden, RandomizedCircuitsOnAllTopologies) {
  std::uint64_t seed = 9000;
  for (const Device& device : bundled_devices()) {
    for (int trial = 0; trial < 6; ++trial) {
      Rng rng(seed++);
      const int region = 2 + static_cast<int>(rng.index(4));  // 2..5 qubits
      const Circuit c =
          random_physical_circuit(device, rng, region, 30 + trial * 10);
      // Device-width replay where the state fits (manhattan65 exceeds the
      // statevector's cap), compacted replay always — the latter is the
      // stream the executor's partition simulation sees.
      if (device.num_qubits() <= 20) {
        expect_fused_matches_unfused(c, device.name().c_str());
      }
      expect_fused_matches_unfused(c.compacted(), device.name().c_str());
    }
  }
}

TEST(FusionGolden, ExecutorDistributionsAndCountsBitIdenticalWithCache) {
  // The noisy pipeline must not change at all under program compilation:
  // a Backend execution (gate + program caches) and a cache-free
  // execute_parallel must produce identical distributions and identical
  // sampled counts (same RNG stream, same bucket per draw).
  std::uint64_t seed = 500;
  for (const Device& device : bundled_devices()) {
    Backend backend(device);
    Rng rng(seed++);
    const Circuit c = random_physical_circuit(device, rng, 4, 40);
    ExecOptions opts;
    opts.shots = 256;
    std::vector<PhysicalProgram> progs;
    progs.push_back({c, "golden"});
    const ParallelRunReport direct =
        execute_parallel(device, progs, opts);
    const ParallelRunReport cached = backend.execute(progs, opts);
    // Twice through the backend: the second run replays cached programs.
    const ParallelRunReport cached2 = backend.execute(progs, opts);
    ASSERT_EQ(direct.programs.size(), 1u);
    for (const ParallelRunReport* run : {&cached, &cached2}) {
      EXPECT_EQ(direct.programs[0].distribution.probs(),
                run->programs[0].distribution.probs());
      EXPECT_EQ(direct.programs[0].counts.data(),
                run->programs[0].counts.data());
    }
  }
}

TEST(FusionGolden, NoiselessExecutorFusedStreamMatchesPerOpReplay) {
  // ROADMAP (f): with gate_noise and idle_noise both off, the executor
  // consumes the fused CompiledProgram stream instead of replaying per-op
  // channels. The distributions must agree with the per-op reference
  // (execute_parallel_reference) to <= 1e-10 on every bundled topology —
  // through the backend caches and without them, readout noise on and off
  // — and the schedule-derived reporting must not move at all.
  std::uint64_t seed = 1300;
  for (const Device& device : bundled_devices()) {
    Backend backend(device);
    Rng rng(seed++);
    const Circuit c = random_physical_circuit(device, rng, 4, 40);
    std::vector<PhysicalProgram> progs;
    progs.push_back({c, "noiseless"});
    for (const bool readout : {true, false}) {
      ExecOptions fused_opts;
      fused_opts.shots = 128;
      fused_opts.gate_noise = false;
      fused_opts.idle_noise = false;
      fused_opts.readout_noise = readout;
      // Twice through the backend: the second run replays the cached
      // fused program.
      const ParallelRunReport fused = backend.execute(progs, fused_opts);
      const ParallelRunReport fused2 = backend.execute(progs, fused_opts);
      const ParallelRunReport per_op =
          execute_parallel_reference(device, progs, fused_opts);
      for (const ParallelRunReport* run : {&fused, &fused2}) {
        EXPECT_LT(dist_diff(run->programs[0].distribution,
                            per_op.programs[0].distribution),
                  kTol)
            << device.name() << " readout=" << readout;
        EXPECT_DOUBLE_EQ(run->makespan_ns, per_op.makespan_ns)
            << device.name();
        EXPECT_EQ(run->crosstalk_events, per_op.crosstalk_events)
            << device.name();
      }
      EXPECT_EQ(fused.programs[0].counts.total(), 128);
    }
  }
}

/// Two co-running random programs on adjacent disjoint regions of
/// `device` (so one-hop CX pairs can crosstalk); the second leaves its
/// last region qubit untouched but measured.
std::vector<PhysicalProgram> adjacent_pair(const Device& device, Rng& rng,
                                           int steps) {
  const int size_a = 2 + static_cast<int>(rng.index(3));
  const int size_b = 2 + static_cast<int>(rng.index(3));
  const std::vector<int> ra = testutil::random_region(device, rng, size_a);
  const std::vector<int> rb = testutil::random_region(device, rng, size_b, ra);
  std::vector<PhysicalProgram> progs;
  progs.push_back(
      {testutil::random_physical_circuit_on(device, rng, ra, steps), "a"});
  progs.push_back(
      {testutil::random_physical_circuit_on(device, rng, rb, steps, 1), "b"});
  return progs;
}

void expect_same_run(const ParallelRunReport& fused,
                     const ParallelRunReport& per_op, const std::string& label) {
  ASSERT_EQ(fused.programs.size(), per_op.programs.size()) << label;
  EXPECT_EQ(fused.makespan_ns, per_op.makespan_ns) << label;
  EXPECT_EQ(fused.crosstalk_events, per_op.crosstalk_events) << label;
  for (std::size_t p = 0; p < fused.programs.size(); ++p) {
    EXPECT_LT(dist_diff(fused.programs[p].distribution,
                        per_op.programs[p].distribution),
              kTol)
        << label << " program " << p;
  }
}

TEST(FusionGolden, NoisyExecutorFusedStreamMatchesPerOpReplay) {
  // The fused noisy stream (sim/noisy_stream.hpp) against the per-op
  // replay of the same channel lists, on every bundled topology: random
  // physical circuits with lowered SWAP/CZ, barriers, mid-circuit and
  // measured-but-untouched qubits, with crosstalk, idle and readout noise
  // each on and off, gate noise on and off, and serialize_crosstalk.
  std::uint64_t seed = 4100;
  int crosstalk_runs = 0;
  for (const Device& device : bundled_devices()) {
    for (int trial = 0; trial < 3; ++trial) {
      Rng rng(seed++);
      const std::vector<PhysicalProgram> progs =
          adjacent_pair(device, rng, 30 + 10 * trial);
      for (int mask = 0; mask < 16; ++mask) {
        ExecOptions opts;
        opts.shots = 32;
        opts.crosstalk_noise = (mask & 1) != 0;
        opts.idle_noise = (mask & 2) != 0;
        opts.readout_noise = (mask & 4) != 0;
        opts.gate_noise = (mask & 8) != 0;
        const ParallelRunReport fused = execute_parallel(device, progs, opts);
        const ParallelRunReport per_op =
            execute_parallel_reference(device, progs, opts);
        if (fused.crosstalk_events > 0 && opts.gate_noise) ++crosstalk_runs;
        expect_same_run(fused, per_op,
                        device.name() + " trial " + std::to_string(trial) +
                            " mask " + std::to_string(mask));
      }
      ExecOptions serialized;
      serialized.shots = 32;
      serialized.serialize_crosstalk = true;
      expect_same_run(execute_parallel(device, progs, serialized),
                      execute_parallel_reference(device, progs, serialized),
                      device.name() + " serialized");
    }
  }
  EXPECT_GT(crosstalk_runs, 0);
}

void expect_stream_matches_replay(const NoisyStream& stream, int num_qubits,
                                  std::span<const NoisyChannel> channels) {
  const std::vector<double> fused = stream.run();
  const std::vector<double> per_op = replay_channels(num_qubits, channels);
  ASSERT_EQ(fused.size(), per_op.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], per_op[i], kTol) << "basis " << i;
  }
}

TEST(FusionGolden, NoisyStreamFoldsSwapsAndTrailingChannels) {
  // Structure of the fused stream on a hand-built channel list: a SWAP
  // (three CX on one pair) folds into one pair pass, each qubit's
  // channels before its first CX (relaxation included) enter with
  // it (the RZ on qubit 0, the RY on qubit 2) and the channels after its
  // last CX leave with it (the X on qubit 0, the H on qubit 2), so no
  // dense pass is left. Qubit 0 retires before qubit 2 is born: the state
  // peaks at 5 bits (the column bit of 0, both bits of 1 and 2) where the
  // full rho holds 6.
  Circuit c(3, 3);
  c.rz(0.3, 0);
  c.swap(0, 1);
  c.ry(0.7, 2);
  c.cx(1, 2);
  c.h(2);
  c.x(0);
  c.measure_all();
  const Circuit low = lower_to_cx_basis(c);
  const std::vector<FusedOp> kernels = compile_ops(low);
  std::vector<NoisyChannel> channels =
      hand_built_channels(low, kernels, /*relax_first=*/true);
  NoisyChannel trailing;
  trailing.kind = NoisyChannel::Kind::kRelaxation;
  trailing.q[0] = 1;
  trailing.param = 400.0;
  trailing.t1_us = 70.0;
  trailing.t2_us = 50.0;
  channels.push_back(trailing);
  const NoisyStream stream = NoisyStream::build(3, channels);
  EXPECT_EQ(stream.pair_passes(), 2u);  // the SWAP, then CX(1, 2)
  EXPECT_EQ(stream.dense_passes(), 0u);
  EXPECT_EQ(stream.peak_state_bits(), 5);
  expect_stream_matches_replay(stream, 3, channels);
}

TEST(FusionGolden, NoisyStreamGhzChainHoldsOnlyLiveQubits) {
  // An unrouted GHZ-10 chain: qubit q is born at CX(q-1, q) and qubit q-1
  // retires right after it, so the state never holds more than the
  // classical bits of 0..7 plus both bits of 8 and 9 — 12 bits, not 20.
  constexpr int kWidth = 10;
  Circuit c(kWidth, kWidth);
  c.h(0);
  for (int q = 1; q < kWidth; ++q) c.cx(q - 1, q);
  for (int q = 0; q < kWidth; ++q) c.rx(0.1 * (q + 1), q);
  c.measure_all();
  const Circuit low = lower_to_cx_basis(c);
  const std::vector<FusedOp> kernels = compile_ops(low);
  const std::vector<NoisyChannel> channels =
      hand_built_channels(low, kernels, /*relax_first=*/false);
  const NoisyStream stream = NoisyStream::build(kWidth, channels);
  EXPECT_EQ(stream.pair_passes(), static_cast<std::size_t>(kWidth - 1));
  EXPECT_EQ(stream.dense_passes(), 0u);
  EXPECT_EQ(stream.peak_state_bits(), 12);
  expect_stream_matches_replay(stream, kWidth, channels);
}

TEST(FusionGolden, NoisyStreamBirthAndRetirementPathsMatchReplay) {
  // A birth or retirement whose coefficients touch populations only,
  // through real values, takes the stream's real-only path; any other
  // takes the general one. The GHZ chain's births after the first are
  // population-only, and so are its retirements, which carry an X or RZ
  // and their noise. The rotated chain has an RY and an RZ before each
  // qubit's first CX (complex coherences) and an H or RX after its last,
  // so every birth and retirement is general, and its last qubit, with no
  // CX, joins at the end. Both must match the per-op replay under scalar
  // and AVX2 dispatch.
  constexpr int kWidth = 6;
  Circuit ghz(kWidth, kWidth);
  ghz.h(0);
  for (int q = 1; q < kWidth; ++q) ghz.cx(q - 1, q);
  for (int q = 0; q < kWidth; ++q) {
    if (q % 2 == 0) {
      ghz.rz(0.2 * (q + 1), q);
    } else {
      ghz.x(q);
    }
  }
  ghz.measure_all();
  Circuit rotated(kWidth + 1, kWidth + 1);
  for (int q = 0; q <= kWidth; ++q) {
    rotated.ry(0.3 + 0.1 * q, q);
    rotated.rz(0.4 + 0.15 * q, q);
  }
  for (int q = 1; q < kWidth; ++q) rotated.cx(q - 1, q);
  for (int q = 0; q < kWidth; ++q) {
    if (q % 2 == 0) {
      rotated.h(q);
    } else {
      rotated.rx(0.9, q);
    }
  }
  rotated.measure_all();
  for (const Circuit* c : {&ghz, &rotated}) {
    const Circuit low = lower_to_cx_basis(*c);
    const std::vector<FusedOp> kernels = compile_ops(low);
    for (const bool relax_first : {false, true}) {
      const std::vector<NoisyChannel> channels =
          hand_built_channels(low, kernels, relax_first);
      const NoisyStream stream = NoisyStream::build(c->num_qubits(), channels);
      EXPECT_EQ(stream.dense_passes(), 0u);
      for (const bool native : {false, true}) {
        struct NativeReset {
          bool was = kern::native_kernels_active();
          ~NativeReset() { kern::set_native_kernels(was); }
        } reset;
        if (native && !kern::native_kernels_active()) continue;
        kern::set_native_kernels(native);
        expect_stream_matches_replay(stream, c->num_qubits(), channels);
      }
    }
  }
}

/// Co-running random programs, one per entry of `sizes`, on disjoint
/// regions of `device`, each grown next to the ones before it so one-hop
/// CX pairs can crosstalk.
std::vector<PhysicalProgram> adjacent_batch(const Device& device, Rng& rng,
                                            const std::vector<int>& sizes,
                                            int steps) {
  std::vector<int> taken;
  std::vector<PhysicalProgram> progs;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::vector<int> region =
        testutil::random_region(device, rng, sizes[i], taken);
    taken.insert(taken.end(), region.begin(), region.end());
    progs.push_back(
        {testutil::random_physical_circuit_on(device, rng, region, steps),
         "p" + std::to_string(i)});
  }
  return progs;
}

void expect_bit_identical(const ParallelRunReport& a,
                          const ParallelRunReport& b, const std::string& label) {
  ASSERT_EQ(a.programs.size(), b.programs.size()) << label;
  EXPECT_EQ(a.makespan_ns, b.makespan_ns) << label;
  EXPECT_EQ(a.crosstalk_events, b.crosstalk_events) << label;
  for (std::size_t p = 0; p < a.programs.size(); ++p) {
    EXPECT_EQ(a.programs[p].distribution.probs(),
              b.programs[p].distribution.probs())
        << label << " program " << p;
    EXPECT_EQ(a.programs[p].counts.data(), b.programs[p].counts.data())
        << label << " program " << p;
  }
}

TEST(FusionGolden, NoisyExecutorBitIdenticalAcrossKernelThreads) {
  // A four-program noisy batch with crosstalk, simulated inline on the
  // caller (kernel_threads = 1) and as one task per program on the
  // simulation pool (the default): each task owns its rho and samples its
  // counts from the program's own derived RNG stream, so not one bit may
  // move — the property the service's batch replay relies on. The counts
  // are those of sample_counts on the program's distribution and stream.
  const Device device = make_toronto27();
  Rng rng(20221017);
  const std::vector<PhysicalProgram> progs =
      adjacent_batch(device, rng, {9, 4, 3, 2}, 60);
  for (const bool native : {false, true}) {
    struct NativeReset {
      bool was = kern::native_kernels_active();
      ~NativeReset() { kern::set_native_kernels(was); }
    } reset;
    if (native && !kern::native_kernels_active()) continue;
    kern::set_native_kernels(native);
    ExecOptions inline_opts;
    inline_opts.shots = 128;
    inline_opts.kernel_threads = 1;
    const ParallelRunReport inline_run =
        execute_parallel(device, progs, inline_opts);
    EXPECT_GT(inline_run.crosstalk_events, 0);
    ExecOptions pooled = inline_opts;
    pooled.kernel_threads = 0;
    const ParallelRunReport pooled_run =
        execute_parallel(device, progs, pooled);
    expect_bit_identical(inline_run, pooled_run,
                         "native=" + std::to_string(native));
    const Rng root(pooled.seed);
    for (std::size_t p = 0; p < progs.size(); ++p) {
      Rng stream = root.derive(progs[p].name + "#" + std::to_string(p));
      EXPECT_EQ(pooled_run.programs[p].counts.data(),
                sample_counts(pooled_run.programs[p].distribution,
                              pooled.shots, stream)
                    .data())
          << "native=" << native << " program " << p;
    }
  }
}

TEST(FusionGolden, PoolChunkedDensityKernelsBitIdenticalToSerial) {
  // Outside a pool task a wide density sweep splits into parallel_for
  // chunks that run on the pool. Every kernel is elementwise or blockwise
  // with no cross-chunk reduction, so a 10-qubit rho (2^18 superket quads:
  // even the one-qubit sweeps split) must match the one-thread sweep bit
  // for bit.
  constexpr int kQubits = 10;
  Rng rng(20221018);
  Circuit c(kQubits);
  for (int step = 0; step < 40; ++step) {
    if (rng.bernoulli(0.4)) {
      const int a = static_cast<int>(rng.index(kQubits - 1));
      c.cx(a, a + 1);
    } else {
      c.append(random_1q_gate(rng, static_cast<int>(rng.index(kQubits))));
    }
  }
  const CompiledProgram prog = CompiledProgram::compile(c);
  auto evolve = [&](int cap) {
    const kern::ParallelThreadsGuard guard(cap);
    DensityMatrix dm(kQubits);
    dm.run(prog);
    for (int q = 0; q < kQubits; ++q) {
      const int qubits[] = {q};
      dm.apply_depolarizing(0.01, qubits);
      dm.apply_relaxation(q, 120.0, 80.0, 60.0);
    }
    return std::vector<cx>(dm.data().begin(), dm.data().end());
  };
  for (const bool native : {false, true}) {
    struct NativeReset {
      bool was = kern::native_kernels_active();
      ~NativeReset() { kern::set_native_kernels(was); }
    } reset;
    if (native && !kern::native_kernels_active()) continue;
    kern::set_native_kernels(native);
    EXPECT_TRUE(evolve(1) == evolve(4)) << "native=" << native;
  }
}

TEST(FusionGolden, ConcurrentBatchesMatchSequentialRuns) {
  // Four threads run different noisy batches through execute_parallel at
  // once, so their program tasks interleave on the shared pool; each
  // result must equal the same batch run alone, bitwise.
  const Device device = make_toronto27();
  std::vector<std::vector<PhysicalProgram>> batches;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(7100 + seed);
    batches.push_back(adjacent_batch(device, rng, {7, 5, 4, 3}, 60));
  }
  ExecOptions opts;
  opts.shots = 64;
  std::vector<ParallelRunReport> sequential;
  int crosstalk_events = 0;
  for (const auto& batch : batches) {
    sequential.push_back(execute_parallel(device, batch, opts));
    crosstalk_events += sequential.back().crosstalk_events;
  }
  EXPECT_GT(crosstalk_events, 0);
  for (int round = 0; round < 3; ++round) {
    std::vector<ParallelRunReport> concurrent(batches.size());
    std::vector<std::thread> threads;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      threads.emplace_back([&, b] {
        concurrent[b] = execute_parallel(device, batches[b], opts);
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      expect_bit_identical(sequential[b], concurrent[b],
                           "round " + std::to_string(round) + " batch " +
                               std::to_string(b));
    }
  }
}

TEST(FusionGolden, CompiledChannelBitIdenticalToApplyUnitary) {
  // apply_compiled must be the same arithmetic as apply_unitary — the
  // superket compilation is hoisted, not altered — so the executor's
  // switch to compiled channels cannot move a single bit.
  Rng rng(77);
  for (int n = 1; n <= 4; ++n) {
    DensityMatrix a(n);
    DensityMatrix b(n);
    for (int q = 0; q < n; ++q) {
      const Gate g = random_1q_gate(rng, q);
      a.apply_unitary(gate_matrix(g), g.qubits);
      b.apply_unitary(gate_matrix(g), g.qubits);
    }
    Circuit c(n);
    for (int step = 0; step < 12; ++step) {
      if (n >= 2 && rng.bernoulli(0.5)) {
        const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
        if (y >= x) ++y;
        if (rng.bernoulli(0.5)) c.cx(x, y); else c.cz(x, y);
      } else {
        c.append(random_1q_gate(
            rng, static_cast<int>(rng.index(static_cast<std::size_t>(n)))));
      }
    }
    const std::vector<FusedOp> channels = compile_ops(c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const Gate& g = c.ops()[i];
      a.apply_unitary(gate_matrix(g), g.qubits);
      b.apply_compiled(channels[i], g.qubits);
    }
    for (std::size_t i = 0; i < a.data().size(); ++i) {
      EXPECT_EQ(a.data()[i].real(), b.data()[i].real()) << "n=" << n;
      EXPECT_EQ(a.data()[i].imag(), b.data()[i].imag()) << "n=" << n;
    }
  }
}

TEST(FusionStructure, NeverFusesAcrossMeasurement) {
  Circuit with_measure(1, 1);
  with_measure.x(0);
  with_measure.measure(0, 0);
  with_measure.x(0);
  // X . X would fuse to identity; the measurement must keep them apart.
  EXPECT_EQ(CompiledProgram::compile(with_measure).ops().size(), 2u);

  Circuit without(1, 1);
  without.x(0);
  without.x(0);
  without.measure(0, 0);
  EXPECT_EQ(CompiledProgram::compile(without).ops().size(), 1u);
}

TEST(FusionStructure, NeverFusesAcrossBarrier) {
  Circuit c(2);
  c.rz(0.4, 0);
  c.barrier();
  c.rz(0.3, 0);
  EXPECT_EQ(CompiledProgram::compile(c).ops().size(), 2u);

  Circuit c2(2);
  c2.cx(0, 1);
  c2.barrier();
  c2.cx(0, 1);
  EXPECT_EQ(CompiledProgram::compile(c2).ops().size(), 2u);

  // A subset barrier only fences its own qubits.
  Circuit c3(3);
  c3.rz(0.4, 0);
  c3.rz(0.5, 2);
  c3.barrier({1});
  c3.rz(0.3, 0);
  c3.rz(0.6, 2);
  EXPECT_EQ(CompiledProgram::compile(c3).ops().size(), 2u);
}

TEST(FusionStructure, RunsCollapseAndReclassify) {
  using Tag = kern::CompiledUnitary::Tag;
  // An RZ ladder fuses to one op that re-classifies as diagonal.
  Circuit rz(1);
  rz.rz(0.2, 0);
  rz.rz(0.4, 0);
  rz.t(0);
  rz.s(0);
  const CompiledProgram przs = CompiledProgram::compile(rz);
  ASSERT_EQ(przs.ops().size(), 1u);
  EXPECT_EQ(przs.ops()[0].sv.tag, Tag::kDiag1);

  // CX . CX collapses to the (diagonal) identity 4x4.
  Circuit cxcx(2);
  cxcx.cx(0, 1);
  cxcx.cx(0, 1);
  const CompiledProgram pcx = CompiledProgram::compile(cxcx);
  ASSERT_EQ(pcx.ops().size(), 1u);
  EXPECT_EQ(pcx.ops()[0].sv.tag, Tag::kDiag2);

  // 1q gates on both operands absorb into the 2q gate's 4x4, and a
  // reversed-operand CX merges into the same block.
  Circuit absorb(2);
  absorb.h(0);
  absorb.cx(0, 1);
  absorb.h(1);
  absorb.cx(1, 0);
  absorb.ry(0.3, 0);
  const CompiledProgram pa = CompiledProgram::compile(absorb);
  EXPECT_EQ(pa.ops().size(), 1u);
  EXPECT_EQ(pa.source_gate_count(), 5u);
  // Equivalence of the merged block.
  Statevector fused_sv(2);
  fused_sv.run(pa);
  Statevector ref(2);
  ref.apply_circuit(absorb);
  EXPECT_LT(state_diff(fused_sv.amplitudes(), ref.amplitudes()), kTol);
}

TEST(FusionStructure, MeasurementsKeepProgramOrderAndClbits) {
  Circuit c(3, 3);
  c.h(0);
  c.cx(0, 1);
  c.measure(1, 2);
  c.x(2);
  c.measure(2, 0);
  c.measure(0, 1);
  const CompiledProgram prog = CompiledProgram::compile(c);
  const std::vector<std::pair<int, int>> want{{1, 2}, {2, 0}, {0, 1}};
  EXPECT_EQ(prog.measurements(), want);
  EXPECT_LT(dist_diff(ideal_distribution(prog), ideal_distribution(c)), kTol);
}

TEST(CompiledProgramCache, MemoizesByFingerprint) {
  CompiledProgramCache cache;
  Circuit c(2, 2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  const auto first = cache.fused(c);
  const auto second = cache.fused(c);
  EXPECT_EQ(first.get(), second.get());
  Circuit renamed = c;
  renamed.set_name("other-name");
  // The fingerprint ignores names, so a rename hits the same entry.
  EXPECT_EQ(cache.fused(renamed).get(), first.get());
  const auto exe1 = cache.executable(c);
  const auto exe2 = cache.executable(c);
  EXPECT_EQ(exe1.get(), exe2.get());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(CompiledProgramCache, AdmitsOnSecondSighting) {
  // A program seen once and released is not held; the second sighting of
  // the same circuit is. A fixed-angle parameterized circuit that recurs
  // is memoized like any other.
  CompiledProgramCache cache;
  Circuit c(2, 2);
  c.ry(0.7, 0);
  c.cx(0, 1);
  c.rz(1.3, 1);
  c.measure_all();
  (void)cache.fused(c);
  EXPECT_EQ(cache.entries(), 0u);
  const auto held = cache.fused(c);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.fused(c).get(), held.get());
  EXPECT_EQ(cache.plan_builds(), 1u);
  const std::size_t before = cache.entries();
  (void)cache.executable(c);
  EXPECT_EQ(cache.entries(), before);
  const auto exe = cache.executable(c);
  EXPECT_GT(cache.entries(), before);
  EXPECT_EQ(cache.executable(c).get(), exe.get());
}

TEST(NativeKernels, ScalarAndNativeDenseKernelsAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // Dense-heavy fused circuits: 1q rotation ladders (dense1) and absorbed
  // 2q blocks (dense2), replayed with dispatch off and on.
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  Rng rng(4242);
  for (int n = 2; n <= 6; ++n) {
    Circuit c(n);
    for (int step = 0; step < 24; ++step) {
      if (n >= 2 && rng.bernoulli(0.35)) {
        const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
        if (y >= x) ++y;
        c.cx(x, y);
      }
      c.append(random_1q_gate(
          rng, static_cast<int>(rng.index(static_cast<std::size_t>(n)))));
    }
    const CompiledProgram prog = CompiledProgram::compile(c);
    kern::set_native_kernels(false);
    Statevector scalar_sv(n);
    scalar_sv.run(prog);
    DensityMatrix scalar_dm(n);
    scalar_dm.run(prog);
    kern::set_native_kernels(true);
    Statevector native_sv(n);
    native_sv.run(prog);
    DensityMatrix native_dm(n);
    native_dm.run(prog);
    EXPECT_LT(state_diff(scalar_sv.amplitudes(), native_sv.amplitudes()), kTol)
        << "n=" << n;
    EXPECT_LT(state_diff(scalar_dm.data(), native_dm.data()), kTol)
        << "n=" << n;
  }
}

TEST(NativeKernels, ScalarAndNativeDiagPermKernelsAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // Monomial-heavy fused circuits: CZ + diagonal 1q gates fuse into kDiag2
  // blocks, CX + diagonal 1q gates into kPerm2 blocks (products of monomial
  // matrices stay monomial). The Hadamard layer spreads amplitude across
  // the whole register so every quad carries signal; the barrier keeps it
  // out of the monomial tail so the fused 2q ops stay diag/perm, not dense.
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  static const GateKind diag_kinds[] = {GateKind::Z,  GateKind::S,
                                        GateKind::Sdg, GateKind::T,
                                        GateKind::Tdg, GateKind::RZ,
                                        GateKind::U1};
  Rng rng(7117);
  for (int n = 2; n <= 6; ++n) {
    for (const GateKind twoq : {GateKind::CZ, GateKind::CX}) {
      Circuit c(n);
      for (int q = 0; q < n; ++q) c.h(q);
      c.barrier();
      for (int step = 0; step < 24; ++step) {
        if (step % 2 == 0) {
          const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
          int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
          if (y >= x) ++y;
          if (twoq == GateKind::CZ) {
            c.cz(x, y);
          } else {
            c.cx(x, y);
          }
        }
        Gate g;
        g.kind = diag_kinds[rng.index(std::size(diag_kinds))];
        g.qubits = {static_cast<int>(rng.index(static_cast<std::size_t>(n)))};
        for (int i = 0; i < gate_param_count(g.kind); ++i) {
          g.params.push_back(rng.uniform(-3.0, 3.0));
        }
        c.append(g);
      }
      const CompiledProgram prog = CompiledProgram::compile(c);
      kern::set_native_kernels(false);
      Statevector scalar_sv(n);
      scalar_sv.run(prog);
      DensityMatrix scalar_dm(n);
      scalar_dm.run(prog);
      kern::set_native_kernels(true);
      Statevector native_sv(n);
      native_sv.run(prog);
      DensityMatrix native_dm(n);
      native_dm.run(prog);
      EXPECT_LT(state_diff(scalar_sv.amplitudes(), native_sv.amplitudes()),
                kTol)
          << "n=" << n << " twoq=" << static_cast<int>(twoq);
      EXPECT_LT(state_diff(scalar_dm.data(), native_dm.data()), kTol)
          << "n=" << n << " twoq=" << static_cast<int>(twoq);
    }
  }
}

TEST(NativeKernels, ScalarAndNativeMaterializeAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // FusionPlan::materialize's per-angle product chain (mul4 / lift1+mul4 /
  // operand-reorder+mul4 / absorb) dispatches to AVX2 FMA kernels when
  // native kernels are active. FMA contraction reassociates the complex
  // products, so agreement is pinned at <= 1e-10 rather than bitwise —
  // and a cancellation that lands on an exact 0.0 in scalar arithmetic
  // can leave ~1e-17 residue under FMA, flipping compile_unitary's
  // exact-zero monomial classification to dense (always correct, just a
  // different encoding). Compare the *decoded* matrices, not the raw
  // per-tag coefficient layouts. compile() shares the same dispatch, so
  // compile == materialize stays exact on either path (pinned in
  // test_parametric.cpp).
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  const auto decode = [](const kern::CompiledUnitary& cu) {
    const int dim = cu.k == 1 ? 2 : 4;
    std::vector<cx> m(static_cast<std::size_t>(dim * dim), cx{0.0, 0.0});
    using Tag = kern::CompiledUnitary::Tag;
    switch (cu.tag) {
      case Tag::kDiag1:
        for (int r = 0; r < 2; ++r) m[3 * r] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kAnti1:
        for (int r = 0; r < 2; ++r) m[2 * r + (1 - r)] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kDense1:
        for (int i = 0; i < 4; ++i) m[i] = cx{cu.re[i], cu.im[i]};
        break;
      case Tag::kCxPerm: {
        static constexpr int src[4] = {0, 1, 3, 2};
        for (int r = 0; r < 4; ++r) m[4 * r + src[r]] = cx{1.0, 0.0};
        break;
      }
      case Tag::kSwapPerm: {
        static constexpr int src[4] = {0, 2, 1, 3};
        for (int r = 0; r < 4; ++r) m[4 * r + src[r]] = cx{1.0, 0.0};
        break;
      }
      case Tag::kDiag2:
        for (int r = 0; r < 4; ++r) m[5 * r] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kPerm2:
        for (int r = 0; r < 4; ++r) m[4 * r + cu.src[r]] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kDense2:
        for (int i = 0; i < 16; ++i) m[i] = cx{cu.re[i], cu.im[i]};
        break;
    }
    return m;
  };
  const auto coeff_diff = [&](const CompiledProgram& a,
                              const CompiledProgram& b) {
    EXPECT_EQ(a.ops().size(), b.ops().size());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.ops().size(); ++i) {
      for (const auto& pr :
           {std::pair{&a.ops()[i].sv, &b.ops()[i].sv},
            std::pair{&a.ops()[i].dm, &b.ops()[i].dm}}) {
        EXPECT_EQ(pr.first->k, pr.second->k) << "op " << i;
        const std::vector<cx> ma = decode(*pr.first);
        const std::vector<cx> mb = decode(*pr.second);
        for (std::size_t e = 0; e < ma.size(); ++e) {
          worst = std::max(worst, std::abs(ma[e] - mb[e]));
        }
      }
    }
    return worst;
  };
  Rng rng(20220212);
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      // 2q-heavy so fused blocks chain 4x4 products (kMul2 / kAbsorb) and
      // lift 1q rotations into them (kLift1Mul) — the AVX2-dispatched steps.
      Circuit c(n);
      for (int q = 0; q < n; ++q) c.h(q);
      for (int step = 0; step < 30; ++step) {
        if (rng.bernoulli(0.45)) {
          const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
          int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
          if (y >= x) ++y;
          c.cx(x, y);
        }
        c.append(random_1q_gate(
            rng, static_cast<int>(rng.index(static_cast<std::size_t>(n)))));
      }
      const FusionPlan plan = FusionPlan::build(c);
      kern::set_native_kernels(false);
      const CompiledProgram scalar_mat = CompiledProgram::materialize(plan, c);
      const CompiledProgram scalar_cmp = CompiledProgram::compile(c);
      kern::set_native_kernels(true);
      const CompiledProgram native_mat = CompiledProgram::materialize(plan, c);
      const CompiledProgram native_cmp = CompiledProgram::compile(c);
      EXPECT_LT(coeff_diff(scalar_mat, native_mat), kTol)
          << "n=" << n << " trial=" << trial;
      EXPECT_LT(coeff_diff(scalar_cmp, native_cmp), kTol)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(NativeKernels, ScalarAndNativePairChannelAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // The fused CX + depolarizing block pass, bare and with X-shaped
  // pre-channels on both operands, over every operand placement (qubit 0
  // takes the one-block AVX2 body) and all CX-generated permutations.
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  static constexpr int kPerms[4][4] = {
      {0, 1, 3, 2}, {0, 3, 2, 1}, {0, 2, 1, 3}, {0, 3, 1, 2}};
  Rng rng(31337);
  for (int n = 2; n <= 5; ++n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) c.append(random_1q_gate(rng, q));
    for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
    for (int q = 0; q < n; ++q) c.append(random_1q_gate(rng, q));
    const CompiledProgram prog = CompiledProgram::compile(c);
    for (int hi = 0; hi < n; ++hi) {
      for (int lo = 0; lo < n; ++lo) {
        if (hi == lo) continue;
        for (const bool pre : {false, true}) {
          kern::PairChannel ch;
          const int* perm = kPerms[rng.index(4)];
          std::copy(perm, perm + 4, ch.dst);
          ch.c1 = 1.0 - rng.uniform(0.0, 0.1);
          ch.fill_scale = (1.0 - ch.c1) * 0.25;
          ch.pre = pre;
          for (kern::XShape* x : {&ch.pre_hi, &ch.pre_lo}) {
            const double g = rng.uniform(0.0, 0.2);
            x->a00 = 1.0 - 0.1 * g;
            x->a03 = g;
            x->a30 = 0.1 * g;
            x->a33 = 1.0 - g;
            const double phase = rng.uniform(-3.0, 3.0);
            x->z01r = 0.9 * std::cos(phase);
            x->z01i = 0.9 * std::sin(phase);
            x->z10r = x->z01r;
            x->z10i = -x->z01i;
          }
          const auto run = [&](bool native) {
            kern::set_native_kernels(native);
            DensityMatrix dm(n);
            dm.run(prog);
            dm.apply_pair_channel(hi, lo, ch);
            return std::vector<cx>(dm.data().begin(), dm.data().end());
          };
          EXPECT_LT(state_diff(run(false), run(true)), kTol)
              << "n=" << n << " hi=" << hi << " lo=" << lo << " pre=" << pre;
        }
      }
    }
  }
  // Compressed live-qubit layouts: any four distinct positions of a
  // 4..9-bit superket as (row hi, col hi, row lo, col lo), so row bits
  // are not column bits + n and the operands' bits interleave in every
  // order — position 0 included, which takes the one-block body.
  for (int bits = 4; bits <= 9; ++bits) {
    std::vector<cx> state(std::size_t{1} << bits);
    for (cx& v : state) v = cx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<int> pos(static_cast<std::size_t>(bits));
      for (int b = 0; b < bits; ++b) pos[static_cast<std::size_t>(b)] = b;
      for (int k = 0; k < 4; ++k) {  // partial Fisher-Yates: 4 distinct
        const std::size_t pick =
            static_cast<std::size_t>(k) +
            rng.index(pos.size() - static_cast<std::size_t>(k));
        std::swap(pos[static_cast<std::size_t>(k)], pos[pick]);
      }
      const kern::PairGeometry geo(pos[0], pos[1], pos[2], pos[3]);
      kern::PairChannel ch;
      const int* perm = kPerms[rng.index(4)];
      std::copy(perm, perm + 4, ch.dst);
      ch.c1 = 1.0 - rng.uniform(0.0, 0.1);
      ch.fill_scale = (1.0 - ch.c1) * 0.25;
      ch.pre = trial % 2 == 1;
      ch.pre_hi = {0.9, 0.1, 0.05, 0.95, 0.8, 0.3, 0.8, -0.3};
      ch.pre_lo = {0.97, 0.2, 0.03, 0.8, 0.6, -0.5, 0.6, 0.5};
      const auto run = [&](bool native) {
        kern::set_native_kernels(native);
        std::vector<cx> out = state;
        kern::apply_pair_channel(out.data(), out.size() >> 4, geo, ch);
        return out;
      };
      EXPECT_LT(state_diff(run(false), run(true)), kTol)
          << "bits=" << bits << " positions " << pos[0] << " " << pos[1]
          << " " << pos[2] << " " << pos[3] << " pre=" << ch.pre;
    }
  }
}

}  // namespace
}  // namespace qucp

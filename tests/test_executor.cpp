#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/decompose.hpp"
#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "sim/noisy_stream.hpp"
#include "sim/statevector.hpp"
#include "random_circuits.hpp"

namespace qucp {
namespace {

/// Line device with uniform mild noise and no crosstalk.
Device quiet_line(int n) { return make_line_device(n, 7); }

Circuit bell_on(int a, int b, int n) {
  Circuit c(n, 2);
  c.h(a);
  c.cx(a, b);
  c.measure(a, 0);
  c.measure(b, 1);
  return c;
}

TEST(Executor, NoiselessMatchesIdeal) {
  const Device d = quiet_line(4);
  Circuit c = bell_on(0, 1, 4);
  ExecOptions opts;
  opts.gate_noise = false;
  opts.readout_noise = false;
  opts.idle_noise = false;
  opts.crosstalk_noise = false;
  const ProgramOutcome out = execute_single(d, c, opts);
  EXPECT_NEAR(out.distribution.prob(0b00), 0.5, 1e-9);
  EXPECT_NEAR(out.distribution.prob(0b11), 0.5, 1e-9);
}

TEST(Executor, NoiseReducesFidelity) {
  const Device d = quiet_line(4);
  Circuit c(4, 4);
  c.x(0);
  for (int i = 0; i < 6; ++i) {
    c.cx(0, 1);
    c.cx(1, 2);
  }
  c.measure(0, 0);
  c.measure(1, 1);
  c.measure(2, 2);
  ExecOptions noisy;
  const ProgramOutcome out = execute_single(d, c, noisy);
  const Distribution ideal = ideal_distribution(c);
  const double fidelity = out.distribution.prob(ideal.most_likely());
  EXPECT_LT(fidelity, 0.999);
  EXPECT_GT(fidelity, 0.3);  // mild noise should not destroy the state
}

TEST(Executor, ShotsAreSampledAndSeeded) {
  const Device d = quiet_line(3);
  Circuit c = bell_on(0, 1, 3);
  ExecOptions opts;
  opts.shots = 512;
  opts.seed = 5;
  const ProgramOutcome a = execute_single(d, c, opts);
  const ProgramOutcome b = execute_single(d, c, opts);
  EXPECT_EQ(a.counts.total(), 512);
  EXPECT_EQ(a.counts.data(), b.counts.data());
  opts.seed = 6;
  const ProgramOutcome e = execute_single(d, c, opts);
  EXPECT_NE(a.counts.data(), e.counts.data());
}

TEST(Executor, RejectsOverlappingPrograms) {
  const Device d = quiet_line(4);
  std::vector<PhysicalProgram> progs;
  progs.push_back({bell_on(0, 1, 4), "a"});
  progs.push_back({bell_on(1, 2, 4), "b"});
  EXPECT_THROW((void)execute_parallel(d, std::move(progs), {}),
               std::invalid_argument);
}

TEST(Executor, RejectsUncoupledGates) {
  const Device d = quiet_line(4);
  Circuit c(4, 2);
  c.h(0);
  c.cx(0, 2);  // not adjacent on a line
  c.measure(0, 0);
  EXPECT_THROW((void)execute_single(d, c, {}), std::invalid_argument);
}

TEST(Executor, RejectsUnmeasuredProgram) {
  const Device d = quiet_line(3);
  Circuit c(3);
  c.h(0);
  EXPECT_THROW((void)execute_single(d, c, {}), std::invalid_argument);
}

TEST(Executor, ThroughputAndQubitsUsed) {
  const Device d = quiet_line(8);
  std::vector<PhysicalProgram> progs;
  progs.push_back({bell_on(0, 1, 8), "a"});
  progs.push_back({bell_on(4, 5, 8), "b"});
  const ParallelRunReport report = execute_parallel(d, std::move(progs), {});
  EXPECT_EQ(report.qubits_used, 4);
  EXPECT_NEAR(report.throughput, 0.5, 1e-12);
  EXPECT_EQ(report.programs.size(), 2u);
  EXPECT_GT(report.makespan_ns, 0.0);
}

TEST(Executor, SwapsAreLowered) {
  const Device d = quiet_line(3);
  Circuit c(3, 2);
  c.x(0);
  c.swap(0, 1);
  c.measure(1, 0);
  ExecOptions opts;
  opts.gate_noise = false;
  opts.readout_noise = false;
  opts.idle_noise = false;
  const ProgramOutcome out = execute_single(d, c, opts);
  EXPECT_NEAR(out.distribution.prob(1), 1.0, 1e-9);
}

/// Crosstalk: two CX-heavy programs on one-hop edges with a planted gamma
/// must lose fidelity when run simultaneously.
class CrosstalkExecutionTest : public ::testing::Test {
 protected:
  static Device make_xtalk_device() {
    Topology topo(4, {{0, 1}, {1, 2}, {2, 3}});
    Rng rng(3);
    CalibrationProfile profile;
    profile.bad_edge_fraction = 0.0;
    profile.bad_readout_fraction = 0.0;
    Calibration cal = synthesize_calibration(topo, profile, rng);
    for (auto& e : cal.cx_error) e = 0.02;
    for (auto& r : cal.readout_error) r = 0.01;
    CrosstalkModel xtalk;
    xtalk.add_pair(0, 2, 5.0);  // edges (0,1) and (2,3) are one-hop
    return Device("xtalk4", std::move(topo), std::move(cal),
                  std::move(xtalk));
  }

  static Circuit cx_ladder(int a, int b) {
    Circuit c(4, 2);
    c.x(a);
    for (int i = 0; i < 8; ++i) c.cx(a, b);
    c.measure(a, 0);
    c.measure(b, 1);
    return c;
  }
};

TEST_F(CrosstalkExecutionTest, SimultaneousLosesFidelity) {
  const Device d = make_xtalk_device();
  const Circuit p0 = cx_ladder(0, 1);
  const Circuit p1 = cx_ladder(2, 3);

  const ProgramOutcome solo = execute_single(d, p0, {});
  std::vector<PhysicalProgram> progs;
  progs.push_back({p0, "p0"});
  progs.push_back({p1, "p1"});
  const ParallelRunReport both = execute_parallel(d, std::move(progs), {});

  EXPECT_GT(both.crosstalk_events, 0);
  EXPECT_NEAR(both.max_gamma_applied, 5.0, 1e-12);
  const Distribution ideal = ideal_distribution(p0);
  const double pst_solo = solo.distribution.prob(ideal.most_likely());
  const double pst_parallel =
      both.programs[0].distribution.prob(ideal.most_likely());
  EXPECT_LT(pst_parallel, pst_solo - 0.01);
}

TEST_F(CrosstalkExecutionTest, CrosstalkToggleRestoresFidelity) {
  const Device d = make_xtalk_device();
  std::vector<PhysicalProgram> progs;
  progs.push_back({cx_ladder(0, 1), "p0"});
  progs.push_back({cx_ladder(2, 3), "p1"});
  ExecOptions opts;
  opts.crosstalk_noise = false;
  const ParallelRunReport off = execute_parallel(d, progs, opts);
  EXPECT_EQ(off.crosstalk_events, 0);
  const ParallelRunReport on = execute_parallel(d, progs, {});
  const Distribution ideal = ideal_distribution(cx_ladder(0, 1));
  EXPECT_GT(off.programs[0].distribution.prob(ideal.most_likely()),
            on.programs[0].distribution.prob(ideal.most_likely()));
}

TEST_F(CrosstalkExecutionTest, NonOverlappingEdgesNoCrosstalk) {
  // Programs on edges (0,1) and (1,2) share qubit 1 -> rejected; instead
  // test edges (0,1) alone: no partner, no events.
  const Device d = make_xtalk_device();
  std::vector<PhysicalProgram> progs;
  progs.push_back({cx_ladder(0, 1), "p0"});
  const ParallelRunReport report = execute_parallel(d, std::move(progs), {});
  EXPECT_EQ(report.crosstalk_events, 0);
  EXPECT_DOUBLE_EQ(report.max_gamma_applied, 1.0);
}

TEST(Executor, AlapNotWorseThanAsapForUnequalDepths) {
  // A short program next to a long one: ALAP delays the short one so its
  // qubits idle in |0> instead of in an excited state.
  const Device d = quiet_line(5);
  Circuit longer(5, 2);
  longer.x(0);
  for (int i = 0; i < 20; ++i) longer.cx(0, 1);
  longer.measure(0, 0);
  longer.measure(1, 1);
  Circuit shorter(5, 1);
  shorter.x(3);
  shorter.measure(3, 0);

  auto run = [&](SchedulePolicy policy) {
    std::vector<PhysicalProgram> progs;
    progs.push_back({longer, "long"});
    progs.push_back({shorter, "short"});
    ExecOptions opts;
    opts.schedule = policy;
    return execute_parallel(d, std::move(progs), opts);
  };
  const auto alap = run(SchedulePolicy::ALAP);
  const auto asap = run(SchedulePolicy::ASAP);
  const double f_alap = alap.programs[1].distribution.prob(1);
  const double f_asap = asap.programs[1].distribution.prob(1);
  EXPECT_GE(f_alap, f_asap - 1e-9);
}

TEST(Executor, MeasurementClbitMapping) {
  const Device d = quiet_line(3);
  Circuit c(3, 3);
  c.x(2);
  c.measure(2, 0);  // q2 -> clbit 0
  c.measure(0, 2);  // q0 -> clbit 2
  ExecOptions opts;
  opts.gate_noise = false;
  opts.readout_noise = false;
  opts.idle_noise = false;
  const ProgramOutcome out = execute_single(d, c, opts);
  EXPECT_NEAR(out.distribution.prob(0b001), 1.0, 1e-9);
}

TEST(Executor, ValidatesOptions) {
  const Device d = quiet_line(3);
  Circuit c = bell_on(0, 1, 3);
  ExecOptions opts;
  opts.shots = 0;
  EXPECT_THROW((void)execute_single(d, c, opts), std::invalid_argument);
  EXPECT_THROW((void)execute_parallel(d, {}, {}), std::invalid_argument);
}

Circuit ghz_chain(int n) {
  Circuit c(n, n);
  c.h(0);
  for (int q = 1; q < n; ++q) c.cx(q - 1, q);
  c.measure_all();
  return c;
}

TEST(Executor, RejectsStreamsPastTheStateCap) {
  // A 13q brickwork keeps every qubit live from its first layer to its
  // last: 26 state bits, past the 24-bit cap. The noisy stream refuses it
  // before allocating anything, naming the width and the peak.
  constexpr int kWidth = 13;
  const Device d = quiet_line(kWidth);
  Rng rng(1313);
  Circuit c(kWidth, kWidth);
  for (int layer = 0; layer < 4; ++layer) {
    for (int q = layer % 2; q + 1 < kWidth; q += 2) c.cx(q, q + 1);
    for (int q = 0; q < kWidth; ++q) {
      c.append(testutil::random_1q_gate(rng, q));
    }
  }
  c.measure_all();
  std::string message;
  try {
    (void)execute_parallel(d, {{c, "brick13"}}, ExecOptions{});
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("13-qubit"), std::string::npos) << message;
  EXPECT_NE(message.find("26 live state bits"), std::string::npos) << message;
}

TEST(Executor, WideChainsStayUnderTheStateCap) {
  // A GHZ chain's live width stays small however long it is: 16 qubits
  // (a 64 GiB full rho) peak at 18 bits.
  constexpr int kWidth = 16;
  const Circuit low = lower_to_cx_basis(ghz_chain(kWidth));
  const std::vector<FusedOp> kernels = compile_ops(low);
  const std::vector<NoisyChannel> channels = testutil::hand_built_channels(
      low, kernels, /*relax_first=*/false, /*noisy=*/false);
  const NoisyStream stream = NoisyStream::build(kWidth, channels);
  EXPECT_EQ(stream.peak_state_bits(), kWidth + 2);
  const std::vector<double> probs = stream.run();
  ASSERT_EQ(probs.size(), std::size_t{1} << kWidth);
  const std::size_t ones = probs.size() - 1;
  for (std::size_t x = 0; x < probs.size(); ++x) {
    const double want = (x == 0 || x == ones) ? 0.5 : 0.0;
    ASSERT_NEAR(probs[x], want, 1e-12) << "basis " << x;
  }
  // Through the executor with every noise source on: the two GHZ
  // outcomes stay the two most likely ones.
  const ProgramOutcome out =
      execute_single(quiet_line(kWidth), ghz_chain(kWidth), ExecOptions{});
  double total = 0.0;
  double others = 0.0;
  for (const auto& [outcome, p] : out.distribution.probs()) {
    total += p;
    if (outcome != 0 && outcome != ones) others = std::max(others, p);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(out.distribution.prob(0), others);
  EXPECT_GT(out.distribution.prob(ones), others);
}

TEST(Executor, NoiselessWideChainsRunOnAStatevector) {
  // With gate and idle noise off the evolution stays pure, so a 16q GHZ
  // chain (a 64 GiB full rho) runs on a 2^16-amplitude statevector.
  constexpr int kWidth = 16;
  ExecOptions opts;
  opts.gate_noise = false;
  opts.idle_noise = false;
  opts.readout_noise = false;
  const ProgramOutcome out =
      execute_single(make_line_device(kWidth), ghz_chain(kWidth), opts);
  const std::uint64_t ones = (std::uint64_t{1} << kWidth) - 1;
  EXPECT_EQ(out.distribution.probs().size(), 2u);
  EXPECT_NEAR(out.distribution.prob(0), 0.5, 1e-12);
  EXPECT_NEAR(out.distribution.prob(ones), 0.5, 1e-12);
  EXPECT_EQ(out.counts.count(0) + out.counts.count(ones), opts.shots);
}

TEST(Executor, IndependentHalvesStreamAsTheirProduct) {
  // Two unrelated 7q programs in one 14q channel list, one after the
  // other: the stream's populations are the outer product of the halves'
  // per-op replays.
  constexpr int kHalf = 7;
  const Device line = make_line_device(kHalf);
  Rng rng(714);
  std::vector<Circuit> lows;
  for (int h = 0; h < 2; ++h) {
    lows.push_back(lower_to_cx_basis(
        testutil::random_physical_circuit(line, rng, kHalf, 40)));
  }
  const std::vector<FusedOp> kernels_a = compile_ops(lows[0]);
  const std::vector<FusedOp> kernels_b = compile_ops(lows[1]);
  const std::vector<NoisyChannel> half_a =
      testutil::hand_built_channels(lows[0], kernels_a, true);
  const std::vector<NoisyChannel> half_b =
      testutil::hand_built_channels(lows[1], kernels_b, true);
  std::vector<NoisyChannel> both = half_a;
  const std::vector<NoisyChannel> shifted = testutil::hand_built_channels(
      lows[1], kernels_b, true, /*noisy=*/true, /*offset=*/kHalf);
  both.insert(both.end(), shifted.begin(), shifted.end());
  const std::vector<double> pa = replay_channels(kHalf, half_a);
  const std::vector<double> pb = replay_channels(kHalf, half_b);
  const NoisyStream stream = NoisyStream::build(2 * kHalf, both);
  EXPECT_LE(stream.peak_state_bits(), NoisyStream::kMaxStateBits);
  const std::vector<double> probs = stream.run();
  ASSERT_EQ(probs.size(), pa.size() * pb.size());
  for (std::size_t x = 0; x < probs.size(); ++x) {
    ASSERT_NEAR(probs[x], pa[x % pa.size()] * pb[x / pa.size()], 1e-10)
        << "basis " << x;
  }
}

}  // namespace
}  // namespace qucp

// Golden table for the noisy density executor.
//
// golden_noisy_executor.inc holds the distributions the per-op executor
// produced for a fixed set of co-running random physical circuits (every
// noise source on, crosstalk included). The executor must keep matching it
// to <= 1e-10, and the schedule-derived numbers (makespan, crosstalk event
// count) exactly: this pins the schedule / crosstalk-gamma / idle-gap
// derivation that both the fused stream and the per-op oracle consume.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "random_circuits.hpp"
#include "sim/executor.hpp"
#include "sim/kernels.hpp"

namespace qucp {
namespace {

struct GoldenRow {
  const char* device;
  std::uint64_t seed;
  std::size_t program;
  int crosstalk_events;
  double makespan_ns;
  std::vector<std::pair<std::uint64_t, double>> probs;
};

const std::vector<GoldenRow>& golden_rows() {
  static const std::vector<GoldenRow> rows = {
#include "golden_noisy_executor.inc"
  };
  return rows;
}

/// The batch a golden seed stands for: two programs on adjacent disjoint
/// regions; the second batch of each device leaves one measured qubit of
/// program "b" untouched by any gate.
std::vector<PhysicalProgram> golden_batch(const Device& device,
                                          std::uint64_t seed, int trial) {
  Rng rng(seed);
  const int size_a = 2 + static_cast<int>(rng.index(3));
  const int size_b = 2 + static_cast<int>(rng.index(3));
  const std::vector<int> ra = testutil::random_region(device, rng, size_a);
  const std::vector<int> rb = testutil::random_region(device, rng, size_b, ra);
  std::vector<PhysicalProgram> progs;
  progs.push_back({testutil::random_physical_circuit_on(device, rng, ra, 36),
                   "a"});
  progs.push_back({testutil::random_physical_circuit_on(device, rng, rb, 36,
                                                        trial == 1 ? 1 : 0),
                   "b"});
  return progs;
}

void expect_matches_golden(const char* label) {
  const std::vector<GoldenRow>& rows = golden_rows();
  ASSERT_EQ(rows.size(), 30u);
  std::size_t row = 0;
  std::uint64_t seed = 20221017;
  int crosstalk_batches = 0;
  for (const Device& device : testutil::bundled_devices()) {
    for (int trial = 0; trial < 3; ++trial, ++seed) {
      ExecOptions opts;
      opts.shots = 64;
      const ParallelRunReport run =
          execute_parallel(device, golden_batch(device, seed, trial), opts);
      ASSERT_EQ(run.programs.size(), 2u);
      if (run.crosstalk_events > 0) ++crosstalk_batches;
      for (std::size_t p = 0; p < 2; ++p, ++row) {
        const GoldenRow& want = rows[row];
        ASSERT_EQ(want.device, device.name()) << label;
        ASSERT_EQ(want.seed, seed) << label;
        ASSERT_EQ(want.program, p) << label;
        EXPECT_EQ(run.crosstalk_events, want.crosstalk_events)
            << label << " " << want.device << " seed " << seed;
        EXPECT_EQ(run.makespan_ns, want.makespan_ns)
            << label << " " << want.device << " seed " << seed;
        std::vector<Distribution::Entry> entries;
        for (const auto& [k, v] : want.probs) entries.emplace_back(k, v);
        const Distribution golden(run.programs[p].distribution.num_bits(),
                                  std::move(entries));
        EXPECT_LT(testutil::dist_diff(run.programs[p].distribution, golden),
                  1e-10)
            << label << " " << want.device << " seed " << seed << " program "
            << p;
      }
    }
  }
  // The table must exercise the crosstalk-gamma path, not just idle noise.
  EXPECT_GE(crosstalk_batches, 3) << label;
}

TEST(NoisyExecutorGolden, MatchesCapturedDistributions) {
  expect_matches_golden("default dispatch");
}

TEST(NoisyExecutorGolden, ScalarKernelsMatchCapturedDistributions) {
  struct NativeReset {
    bool was = kern::native_kernels_active();
    ~NativeReset() { kern::set_native_kernels(was); }
  } reset;
  kern::set_native_kernels(false);
  expect_matches_golden("scalar kernels");
}

}  // namespace
}  // namespace qucp

#include "sim/counts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace qucp {
namespace {

TEST(Distribution, NormalizesOnConstruction) {
  const Distribution d(2, {{0, 2.0}, {3, 6.0}});
  EXPECT_DOUBLE_EQ(d.prob(0), 0.25);
  EXPECT_DOUBLE_EQ(d.prob(3), 0.75);
  EXPECT_DOUBLE_EQ(d.prob(1), 0.0);
}

TEST(Distribution, Validation) {
  EXPECT_THROW(Distribution(2, {{0, -0.5}}), std::invalid_argument);
  EXPECT_THROW(Distribution(2, {{4, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Distribution(2, {}), std::invalid_argument);
  EXPECT_THROW(Distribution(-1, {{0, 1.0}}), std::invalid_argument);
}

TEST(Distribution, MostLikely) {
  const Distribution d(3, {{1, 0.2}, {5, 0.5}, {7, 0.3}});
  EXPECT_EQ(d.most_likely(), 5u);
}

TEST(Distribution, DropsZeroEntries) {
  const Distribution d(2, {{0, 1.0}, {1, 0.0}});
  EXPECT_EQ(d.probs().size(), 1u);
}

TEST(Counts, AddAndTotal) {
  Counts c(2, {});
  c.add(0, 10);
  c.add(3, 5);
  c.add(3);
  EXPECT_EQ(c.total(), 16);
  EXPECT_EQ(c.count(3), 6);
  EXPECT_EQ(c.count(1), 0);
  EXPECT_THROW(c.add(4), std::invalid_argument);
  EXPECT_THROW(c.add(0, -1), std::invalid_argument);
}

TEST(Counts, ToDistribution) {
  Counts c(1, {{0, 25}, {1, 75}});
  const Distribution d = c.to_distribution();
  EXPECT_DOUBLE_EQ(d.prob(1), 0.75);
  EXPECT_THROW(Counts(1, {}).to_distribution(), std::logic_error);
}

TEST(Counts, SampleMatchesDistribution) {
  const Distribution d(2, {{0, 0.7}, {3, 0.3}});
  Rng rng(17);
  const Counts c = sample_counts(d, 20000, rng);
  EXPECT_EQ(c.total(), 20000);
  EXPECT_NEAR(static_cast<double>(c.count(0)) / c.total(), 0.7, 0.02);
  EXPECT_EQ(c.count(1), 0);
  EXPECT_EQ(c.count(2), 0);
}

TEST(Counts, SampleDeterministicPerSeed) {
  const Distribution d(1, {{0, 0.5}, {1, 0.5}});
  Rng r1(9);
  Rng r2(9);
  EXPECT_EQ(sample_counts(d, 100, r1).data(),
            sample_counts(d, 100, r2).data());
}

TEST(Counts, CdfIndexClampsAdversarialNearOneDraw) {
  // Left-to-right accumulation of these probabilities leaves the final
  // CDF entry strictly below 1.0 (0.1 is not exactly representable), so a
  // draw in the gap [cdf.back(), 1.0) — e.g. uniform() returning a value
  // near 1.0 — falls past every bucket in the binary search and must be
  // clamped onto the last outcome instead of indexing one past the end.
  std::vector<double> cdf;
  double acc = 0.0;
  for (int i = 0; i < 10; ++i) {
    acc += 0.1;
    cdf.push_back(acc);
  }
  ASSERT_LT(cdf.back(), 1.0);  // the adversarial premise
  EXPECT_EQ(detail::cdf_index(cdf, 1.0), 9u);
  EXPECT_EQ(detail::cdf_index(cdf, std::nextafter(cdf.back(), 2.0)), 9u);
  EXPECT_EQ(detail::cdf_index(cdf, cdf.back()), 9u);  // upper_bound is strict
  // Interior draws are untouched by the clamp.
  EXPECT_EQ(detail::cdf_index(cdf, 0.0), 0u);
  EXPECT_EQ(detail::cdf_index(cdf, 0.05), 0u);
  EXPECT_EQ(detail::cdf_index(cdf, 0.15), 1u);
  EXPECT_EQ(detail::cdf_index(cdf, std::nextafter(cdf.back(), 0.0)), 9u);
  // Single-bucket CDF: every draw, including past-the-end, lands on it.
  const std::vector<double> one{1.0 - 1e-16};
  EXPECT_EQ(detail::cdf_index(one, 1.0), 0u);
}

TEST(Counts, SampleConservesShotsOnLopsidedDistribution) {
  // End-to-end regression: a many-outcome distribution whose prefix sums
  // accumulate rounding error must still conserve shots and only emit
  // in-support outcomes.
  std::vector<Distribution::Entry> entries;
  for (std::uint64_t o = 0; o < 10; ++o) entries.push_back({o, 0.1});
  const Distribution d(4, std::move(entries));
  Rng rng(123);
  const Counts c = sample_counts(d, 50000, rng);
  EXPECT_EQ(c.total(), 50000);
  for (const auto& [outcome, n] : c.data()) {
    EXPECT_LT(outcome, 10u);
    EXPECT_GT(n, 0);
  }
}

/// A URBG that hands out an Rng's raw draws.
struct RawDraws {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  Rng* rng = nullptr;
  result_type operator()() { return rng->next_u64(); }
};

/// The reference sampler sample_counts must reproduce: the inclusive
/// prefix sums, one std::uniform_real_distribution draw per shot scaled
/// to their total, and the binary-search bucket of each draw.
Counts reference_counts(const Distribution& dist, int shots, Rng rng) {
  std::vector<double> cdf;
  double acc = 0.0;
  for (const auto& [outcome, p] : dist.probs()) {
    acc += p;
    cdf.push_back(acc);
  }
  RawDraws urbg{&rng};
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int> hits(cdf.size(), 0);
  for (int s = 0; s < shots; ++s) {
    ++hits[detail::cdf_index(cdf, unit(urbg) * acc)];
  }
  Counts counts(dist.num_bits(), {});
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    if (hits[i] > 0) counts.add(dist.probs()[i].first, hits[i]);
  }
  return counts;
}

/// Distributions of 1 to 2048 outcomes: uniform, GHZ-skewed (two modes
/// over a floor of small entries), random, and with 1e-15-scale entries.
std::vector<std::pair<std::string, Distribution>> sampling_cases() {
  std::vector<std::pair<std::string, Distribution>> cases;
  Rng rng(4242);
  for (const int bits : {0, 1, 2, 3, 5, 8, 10, 11}) {
    const std::uint64_t size = std::uint64_t{1} << bits;
    std::vector<Distribution::Entry> uniform;
    std::vector<Distribution::Entry> ghz;
    std::vector<Distribution::Entry> random;
    std::vector<Distribution::Entry> tiny;
    // Entries of weight 1 at every third outcome; the rest stay above
    // Distribution's 1e-15 drop once normalized.
    const double small = 2e-15 * static_cast<double>((size + 2) / 3);
    for (std::uint64_t o = 0; o < size; ++o) {
      uniform.emplace_back(o, 1.0);
      const bool mode = o == 0 || o == size - 1;
      ghz.emplace_back(o, mode ? 0.45 : 0.1 / static_cast<double>(size));
      random.emplace_back(o, rng.uniform());
      tiny.emplace_back(o, o % 3 == 0 ? 1.0 : small * (1.0 + rng.uniform()));
    }
    const std::string tag = std::to_string(size);
    cases.emplace_back("uniform" + tag, Distribution(bits, uniform));
    cases.emplace_back("ghz" + tag, Distribution(bits, ghz));
    cases.emplace_back("random" + tag, Distribution(bits, random));
    cases.emplace_back("tiny" + tag, Distribution(bits, tiny));
    EXPECT_EQ(cases.back().second.probs().size(), size);  // none dropped
  }
  // Sparse support: 2048 outcomes spread over 16 bits.
  std::vector<Distribution::Entry> sparse;
  for (std::uint64_t o = 0; o < 2048; ++o) {
    sparse.emplace_back(o * 29 + 7, 1.0 + static_cast<double>(o % 5));
  }
  cases.emplace_back("sparse2048", Distribution(16, sparse));
  return cases;
}

TEST(Counts, SampleBitIdenticalToReferenceSampler) {
  std::uint64_t seed = 77;
  for (const auto& [label, dist] : sampling_cases()) {
    for (const int shots : {1, 7, 1000, 4096, 50000}) {
      Rng rng(seed++);
      const Counts want = reference_counts(dist, shots, rng);
      const Counts got = sample_counts(dist, shots, rng);
      EXPECT_EQ(got.num_bits(), want.num_bits()) << label;
      EXPECT_EQ(got.data(), want.data()) << label << " shots " << shots;
      // The sampler consumed exactly one raw draw per shot.
      Rng after = Rng(seed - 1);
      for (int s = 0; s < shots; ++s) (void)after.next_u64();
      EXPECT_EQ(rng.next_u64(), after.next_u64()) << label;
    }
  }
}

TEST(Counts, GuidedLookupEqualsBinarySearch) {
  // At 0, at every CDF value and both its neighbours, and at and past the
  // last value (the clamp), the guided lookup must pick cdf_index's bucket.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cdfs;
  for (const auto& [label, dist] : sampling_cases()) {
    std::vector<double> cdf;
    double acc = 0.0;
    for (const auto& [outcome, p] : dist.probs()) {
      acc += p;
      cdf.push_back(acc);
    }
    cdfs.push_back(std::move(cdf));
  }
  std::vector<double> tenths;
  double acc = 0.0;
  for (int i = 0; i < 10; ++i) tenths.push_back(acc += 0.1);
  cdfs.push_back(tenths);                       // ends below 1.0
  cdfs.push_back({0.25, 0.25, 0.5, 0.5, 1.0});  // repeated values
  // Uniform over a size that is not a power of two: the CDF values sit on
  // slice boundaries that the slice arithmetic rounds.
  for (const int size : {3, 5, 7, 10, 12, 100, 1000}) {
    std::vector<double> cdf;
    double sum = 0.0;
    for (int i = 0; i < size; ++i) cdf.push_back(sum += 1.0 / size);
    cdfs.push_back(std::move(cdf));
  }
  for (const std::vector<double>& cdf : cdfs) {
    const detail::GuidedCdf guided(cdf);
    std::vector<double> probes = {0.0, std::nextafter(0.0, 1.0), 1.0,
                                  2.0 * cdf.back(), inf};
    auto around = [&](double r) {
      probes.push_back(r);
      probes.push_back(std::nextafter(r, 0.0));
      probes.push_back(std::nextafter(r, inf));
    };
    for (const double c : cdf) around(c);
    const auto slices = static_cast<double>(cdf.size());
    for (std::size_t g = 0; g <= cdf.size(); ++g) {
      around(static_cast<double>(g) * cdf.back() / slices);
      around(static_cast<double>(g) / (slices / cdf.back()));
    }
    for (const double r : probes) {
      ASSERT_EQ(guided.index(r), detail::cdf_index(cdf, r))
          << "r = " << r << " over " << cdf.size() << " entries";
    }
  }
}

TEST(Counts, SampleRejectsBadShots) {
  const Distribution d(1, {{0, 1.0}});
  Rng rng(1);
  EXPECT_THROW((void)sample_counts(d, 0, rng), std::invalid_argument);
}

TEST(OutcomeToString, QiskitBitOrder) {
  EXPECT_EQ(outcome_to_string(0b101, 3), "101");
  EXPECT_EQ(outcome_to_string(0b001, 3), "001");
  EXPECT_EQ(outcome_to_string(0, 4), "0000");
  EXPECT_EQ(outcome_to_string(1, 4), "0001");  // clbit 0 is rightmost
  EXPECT_EQ(outcome_to_string(8, 4), "1000");
}

}  // namespace
}  // namespace qucp

#pragma once
// Measurement outcome containers.
//
// Counts maps classical-bit outcomes (packed little-endian: clbit 0 is bit
// 0) to shot counts. Distribution is its normalized sibling and the common
// currency of the fidelity metrics (PST, JSD).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qucp {

class Rng;

/// Normalized probability distribution over packed clbit outcomes.
///
/// Stored as a flat (outcome, probability) vector sorted by outcome — one
/// allocation instead of a tree node per outcome, which keeps the
/// simulator's result-assembly hot path cheap. Iteration with structured
/// bindings works exactly as it did with the former std::map storage.
class Distribution {
 public:
  using Entry = std::pair<std::uint64_t, double>;

  Distribution() = default;
  /// Construct from (outcome, probability) entries, in any order and
  /// possibly with repeated outcomes (summed); normalizes; drops zeros.
  Distribution(int num_bits, std::vector<Entry> probs);

  [[nodiscard]] int num_bits() const noexcept { return num_bits_; }
  /// Entries sorted by outcome, normalized, zero-free.
  [[nodiscard]] const std::vector<Entry>& probs() const noexcept {
    return probs_;
  }
  [[nodiscard]] double prob(std::uint64_t outcome) const;
  [[nodiscard]] bool empty() const noexcept { return probs_.empty(); }

  /// Outcome with highest probability; throws when empty.
  [[nodiscard]] std::uint64_t most_likely() const;

 private:
  int num_bits_ = 0;
  std::vector<Entry> probs_;
};

/// Raw shot counts.
///
/// Stored as a flat (outcome, count) vector sorted by outcome — the same
/// representation Distribution uses, so result assembly allocates one
/// buffer instead of a tree node per outcome. Iteration order (ascending
/// outcome) and therefore serialization are identical to the former
/// std::map storage, and structured-binding loops work unchanged.
class Counts {
 public:
  using Entry = std::pair<std::uint64_t, int>;

  Counts() = default;
  /// Construct from (outcome, count) entries, in any order and possibly
  /// with repeated outcomes (summed).
  Counts(int num_bits, std::vector<Entry> counts);

  [[nodiscard]] int num_bits() const noexcept { return num_bits_; }
  /// Entries sorted by outcome.
  [[nodiscard]] const std::vector<Entry>& data() const noexcept {
    return counts_;
  }
  [[nodiscard]] int total() const noexcept { return total_; }
  [[nodiscard]] int count(std::uint64_t outcome) const;

  void add(std::uint64_t outcome, int n = 1);

  [[nodiscard]] Distribution to_distribution() const;

 private:
  int num_bits_ = 0;
  std::vector<Entry> counts_;  ///< sorted by outcome, unique
  int total_ = 0;
};

/// Draw `shots` samples from a distribution (multinomial).
[[nodiscard]] Counts sample_counts(const Distribution& dist, int shots,
                                   Rng& rng);

namespace detail {

/// Bucket index of draw `r` against an inclusive prefix-sum CDF, by
/// binary search (the reference GuidedCdf::index reproduces, and so the
/// bucket sample_counts picks): the first entry with cdf[i] > r, clamped
/// to the last bucket. The clamp is load-bearing: left-to-right
/// accumulation can leave cdf.back() fractionally below the true total, so
/// a uniform draw near 1.0 (scaled to that total) would otherwise index
/// one past the end. Requires a non-empty, non-decreasing cdf.
[[nodiscard]] std::size_t cdf_index(std::span<const double> cdf,
                                    double r) noexcept;

/// An inclusive prefix-sum CDF with a guide table for O(1) expected
/// lookups: [0, cdf.back()) is cut into cdf.size() equal slices, and each
/// slice remembers the bucket of its lower end. A lookup starts at its
/// slice's entry and steps down, then up, until the bucket is exact, so
/// index(r) == cdf_index(cdf, r) for every r, whatever the rounding of the
/// slice arithmetic. Requires a non-empty, non-decreasing cdf with
/// cdf.back() > 0.
class GuidedCdf {
 public:
  explicit GuidedCdf(std::vector<double> cdf);

  [[nodiscard]] std::size_t index(double r) const noexcept {
    const double s = r * scale_;
    const std::size_t last = cdf_.size() - 1;
    std::size_t i = guide_[last];
    if (s < static_cast<double>(last)) {
      i = guide_[s > 0.0 ? static_cast<std::size_t>(s) : 0];
    }
    while (i > 0 && cdf_[i - 1] > r) --i;
    while (i < last && cdf_[i] <= r) ++i;
    return i;
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;  ///< bucket of each slice's lower end
  double scale_ = 0.0;              ///< slices per unit of r
};

}  // namespace detail

/// Render an outcome as a bitstring, clbit (num_bits-1) first — matching
/// the usual Qiskit display convention.
[[nodiscard]] std::string outcome_to_string(std::uint64_t outcome,
                                            int num_bits);

}  // namespace qucp

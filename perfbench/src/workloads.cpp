#include "workloads.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "benchmarks/suite.hpp"
#include "common/rng.hpp"
#include "vqe/ansatz.hpp"
#include "vqe/grouping.hpp"
#include "vqe/hamiltonian.hpp"
#include "vqe/pauli.hpp"

namespace perfbench {

namespace {

using qucp::Circuit;
using qucp::Rng;

/// Substream for one flush: a pure function of (workload seed, tag, n).
Rng stream(std::uint64_t seed, const char* tag, std::uint64_t n) {
  return Rng(seed).derive(std::string(tag) + "/" + std::to_string(n));
}

/// table2_tau: jobs drawn uniformly from the eight Table II circuits.
class Table2Client final : public Client {
 public:
  Table2Client(std::uint64_t seed, std::size_t jobs) : seed_(seed), jobs_(jobs) {
    for (const qucp::BenchmarkSpec& spec : qucp::benchmark_suite()) {
      if (spec.result == qucp::ResultKind::Deterministic) {
        deterministic_.push_back(spec.name);
      }
    }
  }
  std::vector<Circuit> next() override {
    const auto& suite = qucp::benchmark_suite();
    Rng rng = stream(seed_, "table2", cycle_++);
    std::vector<Circuit> out;
    out.reserve(jobs_);
    for (std::size_t i = 0; i < jobs_; ++i) {
      const qucp::BenchmarkSpec& spec = suite[rng.index(suite.size())];
      Circuit c = spec.circuit;
      c.set_name(spec.name);
      out.push_back(std::move(c));
    }
    return out;
  }
  [[nodiscard]] bool deterministic(const std::string& job_name) const override {
    for (const std::string& n : deterministic_) {
      if (n == job_name) return true;
    }
    return false;
  }

 private:
  std::uint64_t seed_;
  std::size_t jobs_;
  std::uint64_t cycle_ = 0;
  std::vector<std::string> deterministic_;
};

/// sweep8: 8 structures (an 8-qubit 3-rep RyRz ansatz under
/// structure-distinct Hadamard prefixes) x `iters` iterations per flush,
/// every job with fresh seeded angles.
class Sweep8Client final : public Client {
 public:
  Sweep8Client(std::uint64_t seed, int iters) : seed_(seed), iters_(iters) {}
  /// Four flushes, so the quality figures average over 160 jobs.
  [[nodiscard]] int warmup_flushes() const noexcept override { return 4; }
  std::vector<Circuit> next() override {
    constexpr int kGroups = 8;
    constexpr int kQubits = 8;
    constexpr int kReps = 3;
    const int params = qucp::ansatz_parameter_count(kQubits, kReps);
    Rng rng = stream(seed_, "sweep8", cycle_++);
    std::vector<Circuit> out;
    out.reserve(static_cast<std::size_t>(iters_ * kGroups));
    std::vector<double> angles(static_cast<std::size_t>(params));
    for (int iter = 0; iter < iters_; ++iter) {
      for (int g = 0; g < kGroups; ++g) {
        Circuit c(kQubits, kQubits, "sweep8_g" + std::to_string(g));
        for (int q = 0; q < kQubits; ++q) {
          if (((g >> (q % 3)) & 1) != 0) c.h(q);
        }
        // Away from 0 and 2pi, so binds exercise the template fast path.
        for (double& a : angles) a = rng.uniform(0.05, 6.2);
        c.compose(qucp::make_ryrz_ansatz(kQubits, kReps, angles));
        c.measure_all();
        out.push_back(std::move(c));
      }
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  int iters_;
  std::uint64_t cycle_ = 0;
};

/// ghz_fleet: GHZ chains over a fixed width multiset, each round of the
/// multiset in a seeded order.
class GhzClient final : public Client {
 public:
  GhzClient(std::uint64_t seed, std::size_t jobs) : seed_(seed), jobs_(jobs) {}
  std::vector<Circuit> next() override {
    static constexpr int kWidths[] = {2, 3, 4, 4, 6, 8, 10};
    Rng rng = stream(seed_, "ghz", cycle_++);
    std::vector<int> round(std::begin(kWidths), std::end(kWidths));
    std::vector<Circuit> out;
    out.reserve(jobs_);
    while (out.size() < jobs_) {
      rng.shuffle(round);
      for (int w : round) {
        if (out.size() == jobs_) break;
        Circuit c(w, w, "ghz" + std::to_string(w));
        c.h(0);
        for (int q = 1; q < w; ++q) c.cx(q - 1, q);
        c.measure_all();
        out.push_back(std::move(c));
      }
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  std::size_t jobs_;
  std::uint64_t cycle_ = 0;
};

/// vqe_loop: SPSA VQE on a 6-qubit open transverse-field Ising chain,
/// H = -sum Z_i Z_{i+1} - sum X_i, measured in its two qubit-wise
/// commuting groups. One flush per iteration: the +/- perturbed points,
/// each measured in both groups. Episodes of `iterations` steps restart
/// from the same starting point with a fresh perturbation stream.
class VqeClient final : public Client {
 public:
  static constexpr int kQubits = 6;
  static constexpr int kReps = 2;

  VqeClient(std::uint64_t seed, int iterations)
      : seed_(seed), iterations_(iterations) {
    std::vector<qucp::PauliTerm> terms;
    for (int q = 0; q + 1 < kQubits; ++q) {
      qucp::PauliString zz(kQubits);
      zz.set_op(q, qucp::PauliOp::Z);
      zz.set_op(q + 1, qucp::PauliOp::Z);
      terms.push_back({zz, -1.0});
    }
    for (int q = 0; q < kQubits; ++q) {
      qucp::PauliString x(kQubits);
      x.set_op(q, qucp::PauliOp::X);
      terms.push_back({x, -1.0});
    }
    const qucp::Hamiltonian h(kQubits, std::move(terms));
    exact_ = h.ground_energy();
    groups_ = qucp::group_commuting_terms(h);
    if (groups_.size() != 2) {
      throw std::logic_error("vqe_loop: expected two measurement groups");
    }
    start_episode();
  }

  std::vector<Circuit> next() override {
    const double ck = kC / std::pow(static_cast<double>(k_ + 1), kGamma);
    for (double& d : delta_) d = rng_.bernoulli(0.5) ? 1.0 : -1.0;
    std::vector<double> plus = theta_;
    std::vector<double> minus = theta_;
    for (std::size_t i = 0; i < theta_.size(); ++i) {
      plus[i] += ck * delta_[i];
      minus[i] -= ck * delta_[i];
    }
    std::vector<Circuit> out;
    out.reserve(4);
    for (const std::vector<double>* point : {&plus, &minus}) {
      const Circuit prep = qucp::make_ryrz_ansatz(kQubits, kReps, *point);
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        Circuit c = qucp::measurement_circuit(prep, groups_[g]);
        c.set_name("vqe_g" + std::to_string(g));
        out.push_back(std::move(c));
      }
    }
    return out;
  }

  void consume(std::span<const qucp::JobHandle> handles) override {
    double energy[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const qucp::Distribution dist =
          handles[i].result().report.counts.to_distribution();
      energy[i / groups_.size()] += qucp::group_energy(groups_[i % 2], dist);
    }
    const double ck = kC / std::pow(static_cast<double>(k_ + 1), kGamma);
    const double ak = kA / std::pow(static_cast<double>(k_ + 1) + kStability,
                                    kAlpha);
    const double slope = (energy[0] - energy[1]) / (2.0 * ck);
    for (std::size_t i = 0; i < theta_.size(); ++i) {
      theta_[i] -= ak * slope / delta_[i];
    }
    if (++k_ == iterations_) {
      const double e_final = 0.5 * (energy[0] + energy[1]);
      if (episode_ < kWarmupEpisodes) {
        warmup_delta_e_pct_ += 100.0 * std::abs(e_final - exact_) /
                               std::abs(exact_) / kWarmupEpisodes;
      }
      ++episode_;
      start_episode();
    }
  }

  [[nodiscard]] bool builds_in_iteration() const noexcept override {
    return true;
  }
  [[nodiscard]] int warmup_flushes() const noexcept override {
    return kWarmupEpisodes * iterations_;
  }
  [[nodiscard]] double warmup_delta_e_pct() const override {
    return warmup_delta_e_pct_;
  }

 private:
  // Spall's standard SPSA gain sequences.
  static constexpr double kA = 0.2;
  static constexpr double kC = 0.1;
  static constexpr double kAlpha = 0.602;
  static constexpr double kGamma = 0.101;
  static constexpr double kStability = 5.0;
  static constexpr std::uint64_t kStartSeed = 2022;
  /// Several episodes: one trajectory's quality figures vary too much by
  /// seed.
  static constexpr int kWarmupEpisodes = 4;

  /// Every episode starts from one fixed point, so the seed moves only the
  /// SPSA perturbations and the episode's quality figures stay comparable
  /// across seeds.
  void start_episode() {
    rng_ = stream(seed_, "vqe", episode_);
    Rng start(kStartSeed);
    theta_.assign(
        static_cast<std::size_t>(qucp::ansatz_parameter_count(kQubits, kReps)),
        0.0);
    for (double& t : theta_) t = start.uniform(0.0, 2.0 * std::numbers::pi);
    delta_.assign(theta_.size(), 0.0);
    k_ = 0;
  }

  std::uint64_t seed_;
  int iterations_;
  double exact_ = 0.0;
  std::vector<qucp::MeasurementGroup> groups_;
  Rng rng_{0};
  std::vector<double> theta_;
  std::vector<double> delta_;
  int k_ = 0;
  std::uint64_t episode_ = 0;
  double warmup_delta_e_pct_ = 0.0;
};

}  // namespace

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.options.method = qucp::Method::QuCP;
  w.options.sigma = 4.0;
  w.options.exec.shots = 4096;
  w.options.max_batch_size = 4;
  w.options.num_workers = 4;
  if (name == "table2_tau") {
    w.devices = {"toronto27"};
    w.options.efs_threshold = 0.1;
  } else if (name == "sweep8") {
    w.devices = {"toronto27"};
    w.submit_all = true;
  } else if (name == "ghz_fleet") {
    w.devices = {"toronto27", "manhattan65"};
    w.options.route_policy = qucp::RoutePolicy::ExpectedLatency;
    w.options.num_workers = 2;  // per lane: 4 service workers in total
  } else if (name == "vqe_loop") {
    w.devices = {"toronto27"};
    w.submit_all = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (table2_tau, sweep8, ghz_fleet, vqe_loop)");
  }
  return w;
}

std::vector<qucp::Device> make_devices(const Workload& w) {
  std::vector<qucp::Device> devices;
  for (const std::string& name : w.devices) {
    devices.push_back(qucp::make_named_device(name));
  }
  return devices;
}

std::unique_ptr<qucp::ExecutionService> make_service(
    const Workload& w, const std::vector<qucp::Device>& devices,
    int num_workers) {
  qucp::ServiceOptions options = w.options;
  options.num_workers = num_workers;
  return std::make_unique<qucp::ExecutionService>(
      qucp::BackendRegistry(devices, options.transpile_cache_capacity),
      options);
}

std::vector<qucp::JobHandle> submit(qucp::ExecutionService& service,
                                    const Workload& w,
                                    std::vector<qucp::Circuit> circuits) {
  if (w.submit_all) return service.submit_all(std::move(circuits));
  std::vector<qucp::JobHandle> handles;
  handles.reserve(circuits.size());
  for (qucp::Circuit& c : circuits) handles.push_back(service.submit(std::move(c)));
  return handles;
}

std::unique_ptr<Client> make_client(const Workload& w, std::uint64_t seed,
                                    bool tiny) {
  if (w.name == "table2_tau") {
    return std::make_unique<Table2Client>(seed, tiny ? 32 : 1024);
  }
  if (w.name == "sweep8") {
    return std::make_unique<Sweep8Client>(seed, tiny ? 2 : 5);
  }
  if (w.name == "ghz_fleet") {
    return std::make_unique<GhzClient>(seed, tiny ? 7 : 192);
  }
  return std::make_unique<VqeClient>(seed, tiny ? 3 : 60);
}

}  // namespace perfbench

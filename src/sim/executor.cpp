#include "sim/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "circuit/decompose.hpp"
#include "circuit/gate_cache.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"
#include "sim/noise.hpp"
#include "sim/noisy_stream.hpp"
#include "sim/statevector.hpp"
#include "sim/task_pool.hpp"

namespace qucp {

DerivedNoise DerivedNoise::from(const Calibration& cal) {
  DerivedNoise d;
  d.cx_depol.reserve(cal.cx_error.size());
  for (double err : cal.cx_error) d.cx_depol.push_back(depolarizing_param(err));
  d.q1_depol.reserve(cal.q1_error.size());
  for (double err : cal.q1_error) d.q1_depol.push_back(depolarizing_param(err));
  return d;
}

namespace {

struct CxEvent {
  std::size_t program = 0;
  std::size_t op = 0;       // op index in the lowered program circuit
  int edge = -1;            // device edge id
  double start_ns = 0.0;
  double end_ns = 0.0;
  double gamma = 1.0;       // accumulated crosstalk multiplier
};

/// Everything a batch run derives before simulating: the compiled
/// programs, their aligned schedules, the crosstalk gamma of every CX, and
/// the report's batch-level fields.
struct BatchPlan {
  std::vector<std::shared_ptr<const CompiledExecutable>> compiled;
  std::vector<Schedule> schedules;
  std::vector<std::vector<double>> gamma_of;  ///< per (program, op)
  ParallelRunReport report;                   ///< programs left empty
};

BatchPlan plan_batch(const Device& device,
                     const std::vector<PhysicalProgram>& programs,
                     const ExecOptions& options, GateMatrixCache& matrices,
                     const CompiledProgramCache* program_cache) {
  if (programs.empty()) {
    throw std::invalid_argument("execute_parallel: no programs");
  }
  if (options.shots <= 0) {
    throw std::invalid_argument("execute_parallel: shots <= 0");
  }
  const Topology& topo = device.topology();

  // Lower to CX basis and compile per-op kernels — through the Backend's
  // persistent cache when given, else per call — then validate qubit usage
  // and coupling against this device.
  BatchPlan plan;
  std::vector<std::shared_ptr<const CompiledExecutable>>& compiled =
      plan.compiled;
  compiled.reserve(programs.size());
  std::set<int> all_used;
  for (const PhysicalProgram& prog : programs) {
    if (prog.circuit.num_qubits() > device.num_qubits()) {
      throw std::invalid_argument("execute_parallel: program wider than device");
    }
    std::shared_ptr<const CompiledExecutable> exe =
        program_cache != nullptr
            ? program_cache->executable(prog.circuit, &matrices)
            : std::make_shared<const CompiledExecutable>(
                  CompiledExecutable::compile(prog.circuit, &matrices));
    for (const Gate& g : exe->lowered().ops()) {
      if (is_two_qubit_gate(g.kind) &&
          !topo.adjacent(g.qubits[0], g.qubits[1])) {
        throw std::invalid_argument(
            "execute_parallel: two-qubit gate on uncoupled qubits in " +
            prog.name);
      }
    }
    for (int q : exe->lowered().active_qubits()) {
      if (!all_used.insert(q).second) {
        throw std::invalid_argument(
            "execute_parallel: programs overlap on qubit " +
            std::to_string(q));
      }
    }
    compiled.push_back(std::move(exe));
  }

  // Schedule each program; align ALAP schedules to the common end time.
  std::vector<Schedule>& schedules = plan.schedules;
  double global_makespan = 0.0;
  for (const auto& exe : compiled) {
    schedules.push_back(
        schedule_circuit(exe->lowered(), device, options.schedule));
    global_makespan = std::max(global_makespan, schedules.back().makespan_ns);
  }
  if (options.schedule == SchedulePolicy::ALAP) {
    for (Schedule& s : schedules) {
      const double shift = global_makespan - s.makespan_ns;
      for (ScheduledOp& op : s.ops) {
        op.start_ns += shift;
        op.end_ns += shift;
      }
      s.makespan_ns = global_makespan;
    }
  }

  // Collect CX events and amplify overlapping one-hop pairs.
  auto collect_events = [&] {
    std::vector<CxEvent> events;
    for (std::size_t p = 0; p < compiled.size(); ++p) {
      const Circuit& low = compiled[p]->lowered();
      for (std::size_t i = 0; i < low.size(); ++i) {
        const Gate& g = low.ops()[i];
        if (g.kind != GateKind::CX) continue;
        const auto edge = topo.edge_index(g.qubits[0], g.qubits[1]);
        events.push_back({p, i, *edge, schedules[p].ops[i].start_ns,
                          schedules[p].ops[i].end_ns, 1.0});
      }
    }
    return events;
  };
  std::vector<CxEvent> events = collect_events();

  if (options.serialize_crosstalk) {
    // Program-level serialization: shift the later program past the
    // earlier one whenever a (hinted) one-hop CX pair overlaps. Coarse but
    // sound — overlap strictly decreases each round.
    //
    // Everything about a pair except its time overlap (programs, edges,
    // one-hop distance, hints) is shift-invariant, so the O(E^2) pair scan
    // runs once; each round then only rechecks overlap on the precomputed
    // eligible pairs. A shift moves just the victim program's events, so
    // the next scan resumes from the victim's earlier pairs plus the tail
    // at/after the shift position instead of restarting at index 0 —
    // pairs before that point without a victim event were already clean
    // and cannot have changed.
    auto statically_eligible = [&](const CxEvent& a, const CxEvent& b) {
      if (a.program == b.program || a.edge == b.edge) return false;
      const Edge& ea = topo.edges()[a.edge];
      const Edge& eb = topo.edges()[b.edge];
      if (ea.shares_qubit(eb)) return false;
      const int dist = std::min(
          {topo.distance(ea.a, eb.a), topo.distance(ea.a, eb.b),
           topo.distance(ea.b, eb.a), topo.distance(ea.b, eb.b)});
      if (dist != 1) return false;
      return !options.serialize_hints.has_value() ||
             options.serialize_hints->gamma(a.edge, b.edge) > 1.0;
    };
    struct EligiblePair {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
    };
    std::vector<EligiblePair> eligible;
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (statically_eligible(events[i], events[j])) {
          eligible.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j)});
        }
      }
    }
    // Eligible-pair positions touching each program, ascending.
    std::vector<std::vector<std::uint32_t>> pairs_of(programs.size());
    for (std::size_t t = 0; t < eligible.size(); ++t) {
      pairs_of[events[eligible[t].a].program].push_back(
          static_cast<std::uint32_t>(t));
      pairs_of[events[eligible[t].b].program].push_back(
          static_cast<std::uint32_t>(t));
    }
    auto overlapping = [&](const EligiblePair& pr) {
      const CxEvent& a = events[pr.a];
      const CxEvent& b = events[pr.b];
      return intervals_overlap(a.start_ns, a.end_ns, b.start_ns, b.end_ns);
    };
    const std::size_t kNoVictim = programs.size();
    std::size_t resume = 0;
    std::size_t last_victim = kNoVictim;
    for (int round = 0; round < 100; ++round) {
      std::size_t found = eligible.size();
      if (last_victim != kNoVictim) {
        for (std::uint32_t t : pairs_of[last_victim]) {
          if (t >= resume) break;
          if (overlapping(eligible[t])) {
            found = t;
            break;
          }
        }
      }
      if (found == eligible.size()) {
        for (std::size_t t = resume; t < eligible.size(); ++t) {
          if (overlapping(eligible[t])) {
            found = t;
            break;
          }
        }
      }
      if (found == eligible.size()) break;
      const CxEvent& a = events[eligible[found].a];
      const CxEvent& b = events[eligible[found].b];
      // Delay the program whose conflicting gate starts later.
      const bool delay_b = b.start_ns >= a.start_ns;
      const std::size_t victim = delay_b ? b.program : a.program;
      const double delta = delay_b ? a.end_ns - b.start_ns
                                   : b.end_ns - a.start_ns;
      for (ScheduledOp& op : schedules[victim].ops) {
        op.start_ns += delta;
        op.end_ns += delta;
      }
      schedules[victim].makespan_ns += delta;
      for (CxEvent& ev : events) {
        if (ev.program == victim) {
          ev.start_ns += delta;
          ev.end_ns += delta;
        }
      }
      resume = found;
      last_victim = victim;
    }
    global_makespan = 0.0;
    for (const Schedule& s : schedules) {
      global_makespan = std::max(global_makespan, s.makespan_ns);
    }
  }
  int crosstalk_events = 0;
  double max_gamma = 1.0;
  const CrosstalkModel& xtalk = device.crosstalk_ground_truth();
  if (options.crosstalk_noise && !xtalk.empty()) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        CxEvent& a = events[i];
        CxEvent& b = events[j];
        if (a.edge == b.edge) continue;
        if (!intervals_overlap(a.start_ns, a.end_ns, b.start_ns, b.end_ns)) {
          continue;
        }
        const double g = xtalk.gamma(a.edge, b.edge);
        if (g > 1.0) {
          // Conditional-error semantics (Murali et al.): the CX error in
          // the presence of any conflicting neighbor is gamma * base, so
          // concurrent partners take the max rather than compounding.
          a.gamma = std::max(a.gamma, g);
          b.gamma = std::max(b.gamma, g);
          ++crosstalk_events;
          max_gamma = std::max(max_gamma, g);
        }
      }
    }
  }
  // Index the amplified gamma per (program, op): flat per-op vectors.
  std::vector<std::vector<double>>& gamma_of = plan.gamma_of;
  gamma_of.resize(programs.size());
  for (std::size_t p = 0; p < compiled.size(); ++p) {
    gamma_of[p].assign(compiled[p]->lowered().size(), 1.0);
  }
  for (const CxEvent& ev : events) gamma_of[ev.program][ev.op] = ev.gamma;

  ParallelRunReport& report = plan.report;
  report.makespan_ns = global_makespan;
  report.crosstalk_events = crosstalk_events;
  report.max_gamma_applied = max_gamma;
  report.qubits_used = static_cast<int>(all_used.size());
  report.throughput =
      static_cast<double>(all_used.size()) / device.num_qubits();
  return plan;
}

/// Program `p`'s static noisy channel sequence on local qubits: ops in
/// schedule order (stable on op index), each preceded by relaxation over
/// its operands' idle gaps and followed by its depolarizing channel.
std::vector<NoisyChannel> program_channels(const BatchPlan& plan,
                                           std::size_t p,
                                           const std::vector<int>& local_of,
                                           const Device& device,
                                           const ExecOptions& options,
                                           const DerivedNoise* derived) {
  const Circuit& circ = plan.compiled[p]->lowered();
  const std::vector<FusedOp>& kernels = plan.compiled[p]->channels();
  const Schedule& schedule = plan.schedules[p];
  const Calibration& cal = device.calibration();
  const Topology& topo = device.topology();

  std::vector<std::size_t> order(circ.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return schedule.ops[x].start_ns < schedule.ops[y].start_ns;
                   });

  std::vector<double> busy_until(device.num_qubits(), 0.0);
  std::vector<NoisyChannel> channels;
  channels.reserve(3 * circ.size());
  for (std::size_t idx : order) {
    const Gate& g = circ.ops()[idx];
    const ScheduledOp& so = schedule.ops[idx];
    if (g.kind == GateKind::Barrier) continue;
    for (int q : g.qubits) {
      const double gap = so.start_ns - busy_until[q];
      if (options.idle_noise && gap > 1e-9) {
        NoisyChannel relax;
        relax.kind = NoisyChannel::Kind::kRelaxation;
        relax.q[0] = local_of[q];
        relax.param = gap;
        relax.t1_us = cal.t1_us[q];
        relax.t2_us = cal.t2_us[q];
        channels.push_back(relax);
      }
      busy_until[q] = so.end_ns;
    }
    if (g.kind == GateKind::Measure) continue;
    NoisyChannel gate;
    gate.op = &kernels[idx];
    for (std::size_t i = 0; i < g.qubits.size(); ++i) {
      gate.q[i] = local_of[g.qubits[i]];
    }
    channels.push_back(gate);
    if (!options.gate_noise) continue;
    NoisyChannel depol = gate;
    depol.kind = NoisyChannel::Kind::kDepolarizing;
    depol.op = nullptr;
    if (g.kind == GateKind::CX) {
      const double gamma = plan.gamma_of[p][idx];
      const int edge = *topo.edge_index(g.qubits[0], g.qubits[1]);
      // x * 1.0 == x bitwise for every finite error rate, so the
      // epoch-precomputed parameter is exact for unamplified gates.
      depol.param = (derived != nullptr && gamma == 1.0)
                        ? derived->cx_depol[static_cast<std::size_t>(edge)]
                        : depolarizing_param(cal.cx_error[edge] * gamma);
    } else {
      depol.param =
          derived != nullptr
              ? derived->q1_depol[static_cast<std::size_t>(g.qubits[0])]
              : depolarizing_param(cal.q1_error[g.qubits[0]]);
    }
    channels.push_back(depol);
  }
  return channels;
}

/// The shared driver of execute_parallel (fused streams) and
/// execute_parallel_reference (per-op replay of the same channels).
ParallelRunReport run_batch(const Device& device,
                            std::vector<PhysicalProgram> programs,
                            const ExecOptions& options,
                            GateMatrixCache* gate_cache,
                            const CompiledProgramCache* program_cache,
                            const DerivedNoise* derived, bool fused) {
  // Cap the run's fan-out — program tasks and any kernel chunks issued
  // from this thread — for the whole run (scoped to this thread).
  const kern::ParallelThreadsGuard thread_cap(options.kernel_threads);
  // Callers without a long-lived cache still deduplicate within the run.
  GateMatrixCache local_cache;
  GateMatrixCache& matrices = gate_cache != nullptr ? *gate_cache : local_cache;
  BatchPlan plan =
      plan_batch(device, programs, options, matrices, program_cache);
  const Calibration& cal = device.calibration();
  Rng rng(options.seed);
  ParallelRunReport report = std::move(plan.report);

  // No gate and no idle channels leave a purely unitary evolution
  // (crosstalk only amplifies gate depolarizing, and readout error applies
  // to the measurement probabilities afterwards), so the fused path replays
  // the executable's fused CompiledProgram stream on a statevector.
  const bool noiseless = !options.gate_noise && !options.idle_noise;
  const std::size_t num_programs = plan.compiled.size();

  // Serial prologue, in program order: local qubit numbering and the
  // measurement list of every program.
  std::vector<int> local_of(device.num_qubits(), -1);
  std::vector<int> widths(num_programs);
  // (device qubit, clbit) of every measurement, per program.
  std::vector<std::vector<std::pair<int, int>>> measured(num_programs);
  for (std::size_t p = 0; p < num_programs; ++p) {
    const Circuit& circ = plan.compiled[p]->lowered();
    const std::vector<int> active = circ.active_qubits();
    for (std::size_t i = 0; i < active.size(); ++i) {
      local_of[active[i]] = static_cast<int>(i);
    }
    widths[p] = static_cast<int>(active.size());
    for (const Gate& g : circ.ops()) {
      if (g.kind == GateKind::Measure) {
        measured[p].emplace_back(g.qubits[0], g.clbit);
      }
    }
    if (measured[p].empty()) {
      throw std::invalid_argument("execute_parallel: program '" +
                                  programs[p].name +
                                  "' has no measurements");
    }
  }

  // One pool task per program: its exact probabilities over local basis
  // states, measurement packing, readout flips and sampling from its own
  // derived RNG stream. Programs couple only through the precomputed
  // crosstalk gamma, so each task reads the shared plan and writes only
  // its own outcome slot.
  std::vector<ProgramOutcome> outcomes(num_programs);
  kern::run_tasks(num_programs, [&](std::size_t p) {
    const int n = widths[p];
    std::vector<double> local_probs;
    if (fused && noiseless) {
      // A unitary evolution stays pure: the executable's fused compilation
      // of its compacted lowered circuit (active qubit i = local bit i —
      // exactly the local_of mapping the packing below relies on) on a
      // statevector.
      Statevector sv(n);
      sv.run(plan.compiled[p]->fused_compacted());
      local_probs = sv.probabilities();
    } else {
      const std::vector<NoisyChannel> channels =
          program_channels(plan, p, local_of, device, options, derived);
      local_probs = fused ? NoisyStream::build(n, channels).run()
                          : replay_channels(n, channels);
    }
    std::vector<std::pair<int, int>>& measurements = measured[p];
    // Sort by clbit so bit j of the packed index is measurement j.
    std::sort(measurements.begin(), measurements.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    const std::size_t m = measurements.size();
    std::vector<double> meas_probs(std::size_t{1} << m, 0.0);
    for (std::size_t basis = 0; basis < local_probs.size(); ++basis) {
      if (local_probs[basis] < 1e-15) continue;
      std::size_t packed = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const int lq = local_of.at(measurements[j].first);
        if ((basis >> lq) & 1U) packed |= std::size_t{1} << j;
      }
      meas_probs[packed] += local_probs[basis];
    }
    if (options.readout_noise) {
      std::vector<double> flips;
      flips.reserve(m);
      for (const auto& [q, c] : measurements) {
        flips.push_back(cal.readout_error[q]);
      }
      apply_readout_flips(meas_probs, flips);
    }
    int num_bits = 0;
    for (const auto& [q, c] : measurements) num_bits = std::max(num_bits, c + 1);
    std::vector<Distribution::Entry> dist_entries;
    for (std::size_t packed = 0; packed < meas_probs.size(); ++packed) {
      if (meas_probs[packed] < 1e-15) continue;
      std::uint64_t outcome = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if ((packed >> j) & 1U) {
          outcome |= std::uint64_t{1} << measurements[j].second;
        }
      }
      dist_entries.emplace_back(outcome, meas_probs[packed]);
    }
    ProgramOutcome& outcome = outcomes[p];
    outcome.name = programs[p].name;
    outcome.distribution = Distribution(num_bits, std::move(dist_entries));
    Rng prog_rng = rng.derive(programs[p].name + "#" + std::to_string(p));
    outcome.counts = sample_counts(outcome.distribution, options.shots,
                                   prog_rng);
  });
  report.programs = std::move(outcomes);
  return report;
}

}  // namespace

ParallelRunReport execute_parallel(const Device& device,
                                   std::vector<PhysicalProgram> programs,
                                   const ExecOptions& options,
                                   GateMatrixCache* gate_cache,
                                   const CompiledProgramCache* program_cache,
                                   const DerivedNoise* derived) {
  return run_batch(device, std::move(programs), options, gate_cache,
                   program_cache, derived, /*fused=*/true);
}

ParallelRunReport execute_parallel_reference(
    const Device& device, std::vector<PhysicalProgram> programs,
    const ExecOptions& options, GateMatrixCache* gate_cache,
    const CompiledProgramCache* program_cache, const DerivedNoise* derived) {
  return run_batch(device, std::move(programs), options, gate_cache,
                   program_cache, derived, /*fused=*/false);
}

ProgramOutcome execute_single(const Device& device,
                              const Circuit& physical_circuit,
                              const ExecOptions& options) {
  std::vector<PhysicalProgram> programs;
  programs.push_back({physical_circuit, physical_circuit.name().empty()
                                            ? "program"
                                            : physical_circuit.name()});
  ParallelRunReport report =
      execute_parallel(device, std::move(programs), options);
  return std::move(report.programs.front());
}

}  // namespace qucp

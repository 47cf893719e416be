#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "circuit/circuit.hpp"
#include "core/runtime.hpp"
#include "mapping/transpiler.hpp"
#include "metrics/metrics.hpp"
#include "schedule/schedule.hpp"
#include "service/fleet.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

namespace {

/// The service's per-batch seed stride (service/service.hpp): batch k
/// executes with seed exec.seed + k * golden ratio.
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
/// Any fixed value: the transpile-options fingerprint only keys the
/// replay's own fresh cache, and every replayed job uses the same options.
constexpr std::uint64_t kOptionsFp = 1;

std::string where(const FlushRecord& f, std::uint64_t batch) {
  return "flush " + std::to_string(f.ordinal) + " batch " +
         std::to_string(batch);
}

void add(qucp::TranspileCacheStats& into, const qucp::TranspileCacheStats& s) {
  into.hits += s.hits;
  into.misses += s.misses;
  into.evictions += s.evictions;
  into.entries += s.entries;
  into.structural_hits += s.structural_hits;
  into.bind_fallbacks += s.bind_fallbacks;
  into.bind_ns += s.bind_ns;
}

/// First difference between a replayed program and the service's result,
/// or empty when they agree bit for bit.
std::string compare(const qucp::ProgramReport& mine,
                    const qucp::ProgramReport& theirs) {
  if (mine.partition != theirs.partition) return "partition";
  if (mine.final_layout != theirs.final_layout) return "final layout";
  if (mine.efs != theirs.efs) return "EFS";
  if (mine.swaps_added != theirs.swaps_added) return "swaps";
  if (mine.ideal.probs() != theirs.ideal.probs()) return "ideal distribution";
  if (mine.noisy.probs() != theirs.noisy.probs()) return "noisy distribution";
  if (mine.counts.data() != theirs.counts.data()) return "counts";
  if (mine.jsd_value != theirs.jsd_value) return "JSD";
  if (mine.pst_value != theirs.pst_value) return "PST";
  return {};
}

struct Replayer {
  const Workload& w;
  Tracer& tracer;
  qucp::BackendRegistry fleet;
  std::unique_ptr<qucp::Partitioner> partitioner;
  qucp::FleetScheduler scheduler;
  std::vector<std::uint64_t> lane_ordinal;
  ReplayOutcome out;

  Replayer(const Workload& wl, const std::vector<qucp::Device>& devices,
           Tracer& t)
      : w(wl),
        tracer(t),
        fleet(devices, wl.options.transpile_cache_capacity),
        partitioner(qucp::make_partitioner(wl.options.method, wl.options.sigma,
                                           wl.options.srb_estimates)),
        scheduler(fleet, wl.options.route_policy),
        lane_ordinal(devices.size(), 0) {}

  void fail(std::string what) {
    if (out.identical) {
      out.identical = false;
      out.mismatch = std::move(what);
    }
  }

  /// One planned batch through the pipeline's layers; `members` are flush
  /// positions in the batch's canonical order.
  void run_batch(const FlushRecord& f, const qucp::CalibrationEpoch& epoch,
                 std::uint64_t batch_index, const std::vector<std::size_t>& members,
                 int parent) {
    const qucp::ServiceOptions& opts = w.options;
    const qucp::Device& device = epoch.device();
    const std::size_t m = members.size();
    const Tracer::Scope batch_span(&tracer, "batch", parent, f.ordinal,
                                   static_cast<std::int64_t>(batch_index));
    const int bs = batch_span.id();
    const auto batch_id = static_cast<std::int64_t>(batch_index);
    auto circuit = [&](std::size_t i) -> const qucp::Circuit& {
      return f.circuits[members[i]];
    };

    std::vector<qucp::PartitionAssignment> assignment(m);
    {
      const Tracer::Scope span(&tracer, "allocate", bs, f.ordinal, batch_id);
      std::vector<qucp::ProgramShape> shapes;
      for (std::size_t i = 0; i < m; ++i) shapes.push_back(qucp::shape_of(circuit(i)));
      const std::vector<std::size_t> order = qucp::allocation_order(shapes);
      std::vector<qucp::ProgramShape> ordered;
      for (std::size_t idx : order) ordered.push_back(shapes[idx]);
      const auto allocations =
          partitioner->allocate(device, ordered, &epoch.candidate_index());
      if (!allocations) {
        fail(where(f, batch_index) + ": replayed allocation does not fit");
        return;
      }
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        assignment[order[pos]] = (*allocations)[pos];
      }
    }

    std::vector<qucp::PhysicalProgram> physical(m);
    std::vector<qucp::ProgramReport> reports(m);
    for (std::size_t i = 0; i < m; ++i) {
      const Tracer::Scope span(&tracer, "transpile", bs, f.ordinal, batch_id,
                               static_cast<std::int64_t>(members[i]));
      qucp::TranspileOptions topts = qucp::hardware_aware_options();
      topts.optimize_input = opts.optimize_circuits;
      topts.optimize_output = opts.optimize_circuits;
      qucp::TranspiledProgram tp = epoch.transpile(
          circuit(i), assignment[i].qubits, topts, kOptionsFp);
      reports[i].partition = assignment[i].qubits;
      reports[i].efs = assignment[i].efs.score;
      reports[i].swaps_added = tp.swaps_added;
      reports[i].final_layout = std::move(tp.final_layout);
      physical[i] = {std::move(tp.physical), circuit(i).name()};
    }

    qucp::ExecOptions exec = opts.exec;
    exec.seed = opts.exec.seed + kGolden * batch_index;
    qucp::ParallelRunReport run;
    {
      const Tracer::Scope span(&tracer, "execute", bs, f.ordinal, batch_id);
      run = epoch.execute(physical, exec);
    }

    for (std::size_t i = 0; i < m; ++i) {
      const auto job = static_cast<std::int64_t>(members[i]);
      {
        const Tracer::Scope span(&tracer, "ideal", bs, f.ordinal, batch_id, job);
        reports[i].ideal =
            qucp::ideal_distribution(*epoch.compiled_program(circuit(i)));
      }
      const Tracer::Scope span(&tracer, "score", bs, f.ordinal, batch_id, job);
      reports[i].noisy = std::move(run.programs[i].distribution);
      reports[i].counts = std::move(run.programs[i].counts);
      reports[i].jsd_value = qucp::jsd(reports[i].noisy, reports[i].ideal);
      reports[i].pst_value =
          qucp::pst(reports[i].noisy, reports[i].ideal.most_likely());
    }

    double reduction = 0.0;
    {
      const Tracer::Scope span(&tracer, "schedule", bs, f.ordinal, batch_id);
      qucp::RuntimeModel model;
      model.shots = exec.shots;
      std::vector<double> solo;
      for (const qucp::PhysicalProgram& p : physical) {
        solo.push_back(
            qucp::schedule_circuit(p.circuit, device, exec.schedule).makespan_ns);
      }
      reduction = qucp::serial_runtime_s(model, solo) /
                  qucp::parallel_runtime_s(model, run.makespan_ns);
    }

    const Tracer::Scope span(&tracer, "verify", bs, f.ordinal, batch_id);
    const qucp::BatchStats& stats = f.handles[members[0]].result().batch;
    if (stats.makespan_ns != run.makespan_ns ||
        stats.throughput != run.throughput ||
        stats.crosstalk_events != run.crosstalk_events ||
        stats.runtime_reduction != reduction) {
      fail(where(f, batch_index) + ": batch statistics differ");
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::string diff =
          compare(reports[i], f.handles[members[i]].result().report);
      if (!diff.empty()) {
        fail(where(f, batch_index) + " job " + std::to_string(members[i]) +
             ": " + diff + " differs from the service's");
      }
    }
    if (f.timed) {
      ++out.batches;
      out.jobs += m;
      out.crosstalk_events_sum += run.crosstalk_events;
      for (const qucp::ProgramReport& r : reports) {
        out.efs_sum += r.efs;
        out.swaps_sum += r.swaps_added;
        out.state_bytes_sum +=
            16.0 * std::pow(4.0, static_cast<double>(r.partition.size()));
      }
    }
  }

  void run_flush(const FlushRecord& f) {
    const Tracer::Scope flush_span(&tracer, "flush", -1, f.ordinal);
    const int fs = flush_span.id();
    const std::size_t n = f.circuits.size();

    std::vector<std::size_t> canonical(n);
    std::vector<qucp::PackJob> pack_jobs;
    {
      const Tracer::Scope span(&tracer, "order", fs, f.ordinal);
      std::vector<std::uint64_t> fp(n);
      for (std::size_t i = 0; i < n; ++i) fp[i] = qucp::circuit_fingerprint(f.circuits[i]);
      std::iota(canonical.begin(), canonical.end(), std::size_t{0});
      std::sort(canonical.begin(), canonical.end(), [&](std::size_t a, std::size_t b) {
        if (fp[a] != fp[b]) return fp[a] < fp[b];
        if (f.circuits[a].name() != f.circuits[b].name()) {
          return f.circuits[a].name() < f.circuits[b].name();
        }
        return a < b;
      });
      pack_jobs.reserve(n);
      for (std::size_t k = 0; k < n; ++k) {
        const qucp::Circuit& c = f.circuits[canonical[k]];
        pack_jobs.push_back({k, qucp::shape_of(c), fp[canonical[k]], false,
                             qucp::structural_fingerprint(c)});
      }
    }

    qucp::FleetPlan plan;
    {
      const Tracer::Scope span(&tracer, "plan", fs, f.ordinal);
      qucp::PackOptions popts;
      popts.max_batch_size = w.options.max_batch_size;
      popts.efs_threshold = w.options.efs_threshold;
      popts.single_batch = w.options.single_batch;
      popts.incremental_admission = w.options.incremental_admission;
      popts.runtime.shots = w.options.exec.shots;
      // A flush starts once the previous one drained: no lane backlog.
      const std::vector<double> backlogs(fleet.size(), 0.0);
      plan = scheduler.plan(pack_jobs, *partitioner, popts, backlogs);
    }
    for (std::size_t k : plan.unplaceable) {
      if (f.handles[canonical[k]].status() != qucp::JobStatus::Failed) {
        fail("flush " + std::to_string(f.ordinal) +
             ": replayed plan rejects a job the service ran");
      }
    }
    if (f.timed) {
      out.spill_events += plan.spill_events;
      out.cross_device_spills += plan.cross_device_spills;
    }

    const std::uint64_t lanes = fleet.size();
    for (std::size_t s = 0; s < plan.batches.size(); ++s) {
      for (const qucp::PackedBatch& pb : plan.batches[s]) {
        const std::uint64_t index = lane_ordinal[s]++ * lanes + s;
        std::vector<std::size_t> members;
        members.reserve(pb.jobs.size());
        for (std::size_t k : pb.jobs) members.push_back(canonical[k]);
        for (std::size_t pos : members) {
          const qucp::JobHandle& h = f.handles[pos];
          if (h.status() != qucp::JobStatus::Done ||
              h.result().batch.backend_id != static_cast<int>(s) ||
              h.result().batch.batch_index != index ||
              h.result().batch.batch_size != members.size()) {
            fail(where(f, index) + ": replayed plan differs from the "
                 "service's batches");
            return;
          }
        }
        run_batch(f, *plan.epochs[s], index, members, fs);
        if (!out.identical) return;
      }
    }
  }
};

}  // namespace

qucp::TranspileCacheStats cache_totals(
    const std::vector<qucp::BackendStats>& backends) {
  qucp::TranspileCacheStats total;
  for (const qucp::BackendStats& b : backends) add(total, b.transpile_cache);
  return total;
}

ReplayOutcome replay(const Workload& w, const std::vector<qucp::Device>& devices,
                     const std::vector<FlushRecord>& flushes, double budget_s,
                     Tracer& tracer) {
  Replayer r(w, devices, tracer);
  const Clock::time_point start = Clock::now();
  for (const FlushRecord& f : flushes) {
    if (f.timed && r.out.timed_flushes > 0 && seconds_since(start) >= budget_s) {
      break;
    }
    r.run_flush(f);
    ++r.out.flushes;
    if (f.timed) ++r.out.timed_flushes;
    qucp::TranspileCacheStats cache;
    for (std::size_t b = 0; b < r.fleet.size(); ++b) {
      add(cache, r.fleet.at(b).cache_stats());
    }
    r.out.cache_after.push_back(cache);
    if (!r.out.identical) break;
  }
  r.out.wall_s = seconds_since(start);
  return std::move(r.out);
}

std::vector<double> run_one_worker(const Workload& w,
                                   const std::vector<qucp::Device>& devices,
                                   const std::vector<FlushRecord>& flushes,
                                   std::size_t count, std::string& mismatch) {
  const auto service = make_service(w, devices, 1);
  std::vector<double> walls;
  for (std::size_t k = 0; k < count && k < flushes.size(); ++k) {
    const FlushRecord& f = flushes[k];
    const Clock::time_point t0 = Clock::now();
    const std::vector<qucp::JobHandle> handles = submit(*service, w, f.circuits);
    service->flush();
    walls.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < handles.size() && mismatch.empty(); ++i) {
      if (handles[i].status() != f.handles[i].status()) {
        mismatch = "one-worker service: job status differs";
      } else if (handles[i].status() == qucp::JobStatus::Done) {
        const std::string diff =
            compare(handles[i].result().report, f.handles[i].result().report);
        if (!diff.empty()) {
          mismatch = "one-worker service: flush " + std::to_string(f.ordinal) +
                     " job " + std::to_string(i) + ": " + diff + " differs";
        }
      }
    }
  }
  service->shutdown();
  return walls;
}

}  // namespace perfbench

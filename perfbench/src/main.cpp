// End-to-end benchmark of the ExecutionService.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>] [--tiny]
//
// Untraced (--trace 0): sets the workload up three times (devices, service,
// inputs and one untimed warm-up flush or episode; median reported), then
// drives submit -> flush -> every result for --seconds and prints the
// end-to-end metrics. Traced (--trace 1): one set-up, the same timed phase
// with client spans, then an outside-in replay of the recorded flushes
// through the layers' public functions (replay.hpp) and a one-worker
// service rerun of the replayed flushes; prints the per-layer metrics.
// Every flush passes the correctness gate (gate.hpp). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Spans, meta and the results digest are written under --out.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gate.hpp"
#include "replay.hpp"
#include "sim/kernels.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
/// Recorded flushes stop at this many jobs (traced runs only).
constexpr std::size_t kRecordJobs = 8192;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out = ".bench_build/out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value) != 0;
    } else if (key == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !(a.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: perfbench_e2e --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--out <dir>] [--tiny]");
  }
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

/// Build and host meta: runs from differently configured builds must never
/// be compared silently.
std::string meta_json(const Args& a) {
  const qucp::kern::CpuFeatures cpu = qucp::kern::detect_cpu_features();
  const char* env_threads = std::getenv("QUCP_KERNEL_THREADS");
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"compiler\": \"%s %s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
      "\"native_kernels\": {\"compiled\": %s, \"active\": %s}, "
      "\"cpu\": {\"avx2\": %s, \"fma\": %s}, \"nproc\": %u, "
      "\"kernel_thread_cap\": %d, \"QUCP_KERNEL_THREADS\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"tiny\": %s}",
#if defined(__clang__)
      "clang",
#else
      "gcc",
#endif
      __VERSION__, PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_BUILD_FLAGS).c_str(),
      qucp::kern::native_kernels_compiled() ? "true" : "false",
      qucp::kern::native_kernels_active() ? "true" : "false",
      cpu.avx2 ? "true" : "false", cpu.fma ? "true" : "false",
      std::thread::hardware_concurrency(), qucp::kern::parallel_threads(),
      env_threads ? json_escape(env_threads).c_str() : "",
      json_escape(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.seconds, a.trace ? 1 : 0, a.tiny ? "true" : "false");
  return buf;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The service, the client and everything one set-up produced.
struct Harness {
  std::vector<qucp::Device> devices;
  std::unique_ptr<qucp::ExecutionService> service;
  std::unique_ptr<Client> client;
  std::vector<FlushRecord> warmup;
  std::int64_t next_ordinal = 0;
  double setup_s = 0.0;
};

/// One submit -> flush -> every-result round trip. Inputs of batch
/// workloads are generated before the clock starts.
FlushRecord run_flush(Harness& s, const Workload& w, bool timed,
                      Tracer* tracer) {
  FlushRecord f;
  f.ordinal = s.next_ordinal++;
  f.timed = timed;
  std::vector<qucp::Circuit> send;
  if (!s.client->builds_in_iteration()) {
    f.circuits = s.client->next();
    send = f.circuits;
  }
  const Tracer::Scope iter(tracer, "iteration", -1, f.ordinal);
  const Clock::time_point t0 = Clock::now();
  if (s.client->builds_in_iteration()) {
    f.circuits = s.client->next();
    send = f.circuits;
  }
  {
    const Tracer::Scope span(tracer, "submit", iter.id(), f.ordinal);
    const Clock::time_point ts = Clock::now();
    f.handles = submit(*s.service, w, std::move(send));
    f.submit_s = seconds_since(ts);
  }
  {
    const Tracer::Scope span(tracer, "flush", iter.id(), f.ordinal);
    const Clock::time_point tf = Clock::now();
    s.service->flush();
    f.flush_s = seconds_since(tf);
  }
  {
    const Tracer::Scope span(tracer, "collect", iter.id(), f.ordinal);
    for (const qucp::JobHandle& h : f.handles) h.wait();
    s.client->consume(f.handles);
  }
  f.wall_s = seconds_since(t0);
  return f;
}

Harness set_up(const Workload& w, const Args& a) {
  const Clock::time_point t0 = Clock::now();
  Harness s;
  s.devices = make_devices(w);
  s.service = make_service(w, s.devices, w.options.num_workers);
  s.client = make_client(w, a.seed, a.tiny);
  for (int i = 0; i < s.client->warmup_flushes(); ++i) {
    s.warmup.push_back(run_flush(s, w, false, nullptr));
  }
  s.setup_s = seconds_since(t0);
  return s;
}

/// Sum of span durations (s) by name over the given flush ordinals.
std::map<std::string, double> layer_seconds(const Tracer& tracer,
                                            std::int64_t first_flush,
                                            std::int64_t end_flush) {
  std::map<std::string, double> out;
  for (const Span& sp : tracer.spans()) {
    if (sp.flush < first_flush || sp.flush >= end_flush) continue;
    out[sp.name] += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
  }
  return out;
}

void write_results(const Args& a, const std::string& meta,
                   const std::string& summary, const Tracer* client_spans,
                   const Tracer* replay_spans) {
  std::filesystem::create_directories(a.out);
  const std::string path = a.out + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"meta\": %s,\n\"summary\": %s", meta.c_str(),
               summary.c_str());
  if (client_spans != nullptr) {
    std::fprintf(f, ",\n\"client_spans\": ");
    client_spans->write_json(f);
  }
  if (replay_spans != nullptr) {
    std::fprintf(f, ",\n\"replay_spans\": ");
    replay_spans->write_json(f);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

std::string metrics_json(const std::vector<Metric>& metrics, GateTally& tally) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) {
      tally.problem("metric " + metrics[i].name + " is not finite");
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload);
  const std::string meta = meta_json(a);
  std::printf("meta: %s\n", meta.c_str());
  const int shots = w.options.exec.shots;

  GateTally tally;
  std::vector<double> setup_times;
  std::vector<std::uint64_t> digests;
  Harness s;
  for (int i = 0; i < (a.trace ? 1 : kSetups); ++i) {
    s = Harness{};  // the previous set-up's service shuts down here
    s = set_up(w, a);
    setup_times.push_back(s.setup_s);
    Fidelity fid;
    for (const FlushRecord& f : s.warmup) {
      check_flush(f, s.devices, shots, tally);
      fid.add(f, *s.client);
    }
    digests.push_back(fid.digest);
  }
  if (std::adjacent_find(digests.begin(), digests.end(),
                         std::not_equal_to<>()) != digests.end()) {
    tally.problem("warm-up results differ between set-ups");
  }
  Fidelity fid;
  for (const FlushRecord& f : s.warmup) fid.add(f, *s.client);
  // Peak over the set-ups: fixed work, so the figure does not depend on how
  // many flushes a slow or fast machine fits into the timed phase.
  const double setup_peak_rss_mb = peak_rss_mb();

  // Timed phase.
  Tracer client_tracer;
  Tracer* tracer = a.trace ? &client_tracer : nullptr;
  std::vector<FlushRecord> recorded;
  std::vector<qucp::TranspileCacheStats> service_cache_after;
  std::size_t recorded_jobs = 0;
  if (a.trace) {
    for (FlushRecord& f : s.warmup) {
      recorded_jobs += f.handles.size();
      recorded.push_back(std::move(f));
    }
    // Warm-up cache counters are only known cumulatively at its end.
    service_cache_after.assign(recorded.size(), {});
    service_cache_after.back() = cache_totals(s.service->stats().backends);
  }
  const std::int64_t first_timed = s.next_ordinal;
  std::vector<double> iter_ms;
  std::vector<double> flush_rates;  ///< jobs per second of each timed flush
  std::uint64_t timed_jobs = 0;
  double timed_wall = 0.0, submit_s = 0.0, flush_s = 0.0;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < a.seconds) {
    FlushRecord f = run_flush(s, w, true, tracer);
    iter_ms.push_back(f.wall_s * 1e3);
    flush_rates.push_back(static_cast<double>(f.handles.size()) / f.wall_s);
    timed_jobs += f.handles.size();
    timed_wall += f.wall_s;
    submit_s += f.submit_s;
    flush_s += f.flush_s;
    check_flush(f, s.devices, shots, tally);
    if (a.trace && recorded_jobs < kRecordJobs) {
      recorded_jobs += f.handles.size();
      service_cache_after.push_back(cache_totals(s.service->stats().backends));
      recorded.push_back(std::move(f));
    }
  }
  s.service->shutdown();
  // Median over flushes: a burst of machine noise moves one flush, not the
  // run's figure.
  const double jobs_per_s = percentile(flush_rates, 0.50);

  std::vector<Metric> metrics;
  std::string extra;
  Tracer replay_tracer;
  if (!a.trace) {
    qucp::RuntimeModel model;
    model.shots = shots;
    metrics = {
        {"jobs_per_s", jobs_per_s, "1/s"},
        {"iter_p50_ms", percentile(iter_ms, 0.50), "ms"},
        {"setup_s", percentile(setup_times, 0.50), "s"},
        {"peak_rss_mb", setup_peak_rss_mb, "MB"},
        {"mean_pst", fid.mean_pst(), "prob"},
        {"mean_jsd", fid.mean_jsd(), "bits"},
        {"hw_throughput", fid.hw_throughput(), "frac"},
        {"modeled_runtime_reduction", fid.runtime_reduction(), "x"},
        {"modeled_drain_s",
         qucp::modeled_fleet_drain_s(fid.handles, s.devices.size(), model), "s"},
    };
  } else {
    const std::int64_t end_recorded = recorded.back().ordinal + 1;
    const ReplayOutcome rep =
        replay(w, s.devices, recorded, 0.25 * a.seconds, replay_tracer);
    if (!rep.identical) tally.problem("replay: " + rep.mismatch);
    std::string mismatch;
    const std::vector<double> one_worker =
        run_one_worker(w, s.devices, recorded, rep.flushes, mismatch);
    if (!mismatch.empty()) tally.problem(mismatch);

    // Everything below covers the replayed timed flushes only.
    const std::int64_t end_replayed = first_timed + static_cast<std::int64_t>(rep.timed_flushes);
    const auto layers = layer_seconds(replay_tracer, first_timed, end_replayed);
    auto sec = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second;
    };
    const double pipeline = sec("allocate") + sec("transpile") + sec("execute") +
                            sec("ideal") + sec("score") + sec("schedule");
    const double layer_total = pipeline + sec("plan");
    double service_wall = 0.0, one_worker_wall = 0.0;
    for (std::size_t k = 0; k < rep.flushes; ++k) {
      if (!recorded[k].timed) continue;
      service_wall += recorded[k].wall_s;
      one_worker_wall += one_worker[k];
    }
    // Coverage: leaf-layer spans over the replay's whole wall time.
    const auto all = layer_seconds(replay_tracer, 0, end_recorded);
    double covered = 0.0;
    for (const char* name : kLayerSpans) {
      const auto it = all.find(name);
      if (it != all.end()) covered += it->second;
    }
    const double coverage = covered / rep.wall_s;
    if (coverage < 0.95) {
      tally.problem("replay spans cover only " + std::to_string(coverage) +
                    " of its wall time");
    }
    // A replay that stopped at a difference may not reach a timed flush;
    // the run has already failed then, and the counters below read zero.
    if (rep.timed_flushes == 0) tally.problem("replay reached no timed flush");
    const std::size_t warm = static_cast<std::size_t>(first_timed);
    const bool replayed_timed = rep.timed_flushes > 0;
    const qucp::TranspileCacheStats c0 =
        replayed_timed ? rep.cache_after[warm - 1] : qucp::TranspileCacheStats{};
    const qucp::TranspileCacheStats c1 =
        replayed_timed ? rep.cache_after[rep.flushes - 1] : qucp::TranspileCacheStats{};
    const double service_misses =
        replayed_timed ? static_cast<double>(service_cache_after[rep.flushes - 1].misses)
                       : 0.0;
    const double hits = static_cast<double>((c1.hits - c0.hits) +
                                            (c1.structural_hits - c0.structural_hits));
    const double lookups = hits + static_cast<double>((c1.misses - c0.misses) +
                                                      (c1.bind_fallbacks - c0.bind_fallbacks));
    const double bind_hits = static_cast<double>(c1.structural_hits - c0.structural_hits);
    const double jobs = static_cast<double>(rep.jobs);
    const double batches = static_cast<double>(rep.batches);
    const double workers =
        static_cast<double>(w.options.num_workers) * static_cast<double>(s.devices.size());
    metrics = {
        {"service.submit_us_per_job", 1e6 * submit_s / static_cast<double>(timed_jobs), "us/job"},
        {"service.pack_us_per_job", 1e6 * sec("plan") / jobs, "us/job"},
        {"service.spills_per_job", static_cast<double>(rep.spill_events) / jobs, "count/job"},
        {"service.cross_device_spills",
         static_cast<double>(rep.cross_device_spills) / static_cast<double>(rep.timed_flushes),
         "count/flush"},
        {"service.jobs_per_batch", jobs / batches, "jobs/batch"},
        {"service.worker_util", pipeline / (service_wall * workers), "frac"},
        {"service.unattributed_frac", 1.0 - layer_total / one_worker_wall, "frac"},
        {"partition.allocate_us_per_batch", 1e6 * sec("allocate") / batches, "us/batch"},
        {"partition.mean_efs", rep.efs_sum / jobs, "efs"},
        {"mapping.transpile_us_per_job", 1e6 * sec("transpile") / jobs, "us/job"},
        {"mapping.cache_hit_frac", lookups > 0 ? hits / lookups : 0.0, "frac"},
        {"mapping.bind_us_per_hit",
         bind_hits > 0 ? 1e-3 * static_cast<double>(c1.bind_ns - c0.bind_ns) / bind_hits : 0.0,
         "us/hit"},
        {"mapping.redundant_misses", service_misses - static_cast<double>(c1.misses),
         "count"},
        {"mapping.swaps_per_job", rep.swaps_sum / jobs, "count/job"},
        {"schedule.model_us_per_batch", 1e6 * sec("schedule") / batches, "us/batch"},
        {"schedule.crosstalk_events_per_batch", rep.crosstalk_events_sum / batches, "count/batch"},
        {"sim.execute_us_per_job", 1e6 * sec("execute") / jobs, "us/job"},
        {"sim.execute_share", sec("execute") / layer_total, "frac"},
        {"sim.ideal_us_per_job", 1e6 * sec("ideal") / jobs, "us/job"},
        {"sim.state_mb_per_batch", rep.state_bytes_sum / batches / 1e6, "MB/batch"},
        {"metrics.score_us_per_job", 1e6 * sec("score") / jobs, "us/job"},
        {"vqe.client_us_per_iter",
         1e6 * (timed_wall - submit_s - flush_s) / static_cast<double>(iter_ms.size()),
         "us/iter"},
        {"vqe.delta_e_pct", s.client->warmup_delta_e_pct(), "%"},
        {"trace.jobs_per_s", jobs_per_s, "1/s"},
        {"trace.iter_p95_ms", percentile(iter_ms, 0.95), "ms"},
        {"trace.coverage_frac", coverage, "frac"},
        {"trace.replayed_jobs", jobs, "count"},
    };
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  ", \"replayed_flushes\": %zu, \"replayed_timed_flushes\": %zu, "
                  "\"replay_wall_s\": %.6f, \"one_worker_wall_s\": %.6f, "
                  "\"replay_identical\": %s",
                  rep.flushes, rep.timed_flushes, rep.wall_s, one_worker_wall,
                  rep.identical && mismatch.empty() ? "true" : "false");
    extra = buf;
  }

  const std::string metrics_str = metrics_json(metrics, tally);
  char digest[512];
  std::snprintf(digest, sizeof digest,
                "{\"workload\": \"%s\", \"seed\": %llu, \"warmup_digest\": "
                "\"%016llx\", \"warmup_jobs\": %llu, \"timed_iterations\": %zu, "
                "\"timed_jobs\": %llu, \"attempted\": %llu, \"succeeded\": %llu, "
                "\"failed\": %llu, \"ideal_checks\": %llu%s}",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(fid.digest),
                static_cast<unsigned long long>(fid.jobs), iter_ms.size(),
                static_cast<unsigned long long>(timed_jobs),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.succeeded),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.ideal_checks), extra.c_str());
  std::printf("digest: %s\n", digest);
  for (const std::string& p : tally.problems) std::printf("PROBLEM: %s\n", p.c_str());
  for (const std::string& m : tally.failures) std::printf("FAILED JOB: %s\n", m.c_str());
  write_results(a, meta,
                std::string("{\"digest\": ") + digest + ", \"metrics\": " + metrics_str + "}",
                a.trace ? &client_tracer : nullptr, a.trace ? &replay_tracer : nullptr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics_str.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, the
  // first freed simulation buffer raises it, later buffers of that size
  // come from per-thread arenas, and how much the arenas happen to retain
  // would make peak_rss_mb vary by a third from run to run. Pinned, big
  // buffers go back to the OS when freed and the peak tracks live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
}

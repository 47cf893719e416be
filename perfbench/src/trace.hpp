#pragma once
// In-memory span recorder for the traced run.
//
// A span is one timed call into a layer, recorded from the outside: name,
// start and end (ns since the tracer was created), the span that caused it,
// and the flush / batch / job it belongs to. Spans stay in memory and are
// written out once, when the benchmark ends, so recording costs one clock
// read and one vector append per boundary.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index of the causing span, -1 for a root
  std::int64_t flush = -1;  ///< flush ordinal within the run
  std::int64_t batch = -1;  ///< service batch index
  std::int64_t job = -1;    ///< job position within its flush
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] int begin(const char* name, int parent, std::int64_t flush,
                          std::int64_t batch = -1, std::int64_t job = -1) {
    spans_.push_back({name, now_ns(), 0, parent, flush, batch, job});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int parent, std::int64_t flush,
          std::int64_t batch = -1, std::int64_t job = -1)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, parent, flush, batch, job) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Writes the spans as a JSON array (one object per line).
  void write_json(std::FILE* f) const {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"flush\": %lld, "
                   "\"batch\": %lld, \"job\": %lld}%s\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.flush),
                   static_cast<long long>(s.batch),
                   static_cast<long long>(s.job),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]");
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

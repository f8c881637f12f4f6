#ifndef KGQBENCH_HARNESS_TRACER_H_
#define KGQBENCH_HARNESS_TRACER_H_

// Harness-side span recorder of the traced run. Spans are taken around
// the benchmark's own calls into kgq's public functions (nothing inside
// the library is instrumented), kept in memory and written once at exit.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace kgqbench {

struct SpanRecord {
  uint32_t parent = 0;  // kNoSpan for a request's root span.
  uint32_t request = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Per-layer totals over the recorded spans.
struct LayerTotal {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus the time child spans cover
};

class Tracer {
 public:
  static constexpr uint32_t kNoSpan = 0xFFFFFFFFu;

  /// Opens the root span "request" of a new request of class `cls`.
  uint32_t BeginRequest(const std::string& cls);
  /// Opens a span under the innermost open one.
  uint32_t Begin(std::string name);
  void End(uint32_t id);
  /// Records a closed span under `parent` without touching the open
  /// stack — how the executor's profile tree enters the trace.
  uint32_t AddClosed(uint32_t parent, std::string name, uint64_t start_ns,
                     uint64_t duration_ns);

  /// Adds obs-registry counter deltas observed during one request.
  void AddCounters(const std::string& cls,
                   const std::map<std::string, uint64_t>& deltas);

  const SpanRecord& span(uint32_t id) const { return spans_[id]; }
  uint64_t Duration(uint32_t id) const {
    return spans_[id].end_ns - spans_[id].start_ns;
  }
  uint32_t current_request() const {
    return static_cast<uint32_t>(request_class_.size() - 1);
  }
  /// Root span of the latest request.
  uint32_t last_root() const { return last_root_; }

  /// Totals by span name, over the requests whose class passes `keep`.
  std::map<std::string, LayerTotal> Totals(
      const std::function<bool(const std::string&)>& keep) const;

  /// Writes every span (with its self time) and the per-class counter
  /// deltas as jsonl. Returns false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::vector<uint64_t> SelfTimes() const;

  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> open_;
  uint32_t last_root_ = kNoSpan;
  std::vector<std::string> request_class_;
  std::map<std::string, std::map<std::string, uint64_t>> counters_;
};

/// RAII span; inert when the tracer is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name) : Tracer::kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace kgqbench

#endif  // KGQBENCH_HARNESS_TRACER_H_

#include "tracer.h"

#include <fstream>
#include <utility>

#include "obs/clock.h"
#include "obs/json_writer.h"

namespace kgqbench {

uint32_t Tracer::BeginRequest(const std::string& cls) {
  request_class_.push_back(cls);
  open_.clear();
  last_root_ = Begin("request");
  return last_root_;
}

uint32_t Tracer::Begin(std::string name) {
  SpanRecord rec;
  rec.parent = open_.empty() ? kNoSpan : open_.back();
  rec.request = current_request();
  rec.name = std::move(name);
  rec.start_ns = kgq::obs::NowNanos();
  spans_.push_back(std::move(rec));
  const uint32_t id = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(uint32_t id) {
  spans_[id].end_ns = kgq::obs::NowNanos();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

uint32_t Tracer::AddClosed(uint32_t parent, std::string name,
                           uint64_t start_ns, uint64_t duration_ns) {
  SpanRecord rec;
  rec.parent = parent;
  rec.request = spans_[parent].request;
  rec.name = std::move(name);
  rec.start_ns = start_ns;
  rec.end_ns = start_ns + duration_ns;
  spans_.push_back(std::move(rec));
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::AddCounters(const std::string& cls,
                         const std::map<std::string, uint64_t>& deltas) {
  std::map<std::string, uint64_t>& into = counters_[cls];
  for (const auto& [name, delta] : deltas) into[name] += delta;
}

std::vector<uint64_t> Tracer::SelfTimes() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != kNoSpan) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<uint64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[i] = dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return self;
}

std::map<std::string, LayerTotal> Tracer::Totals(
    const std::function<bool(const std::string&)>& keep) const {
  const std::vector<uint64_t> self = SelfTimes();
  std::map<std::string, LayerTotal> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (!keep(request_class_[s.request])) continue;
    LayerTotal& t = out[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += self[i];
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<uint64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    kgq::obs::JsonWriter w(out, /*compact=*/true);
    w.BeginObject();
    w.Key("span");
    w.UInt(i);
    w.Key("parent");
    if (s.parent == kNoSpan) {
      w.Null();
    } else {
      w.UInt(s.parent);
    }
    w.Key("request");
    w.UInt(s.request);
    w.Key("class");
    w.String(request_class_[s.request]);
    w.Key("name");
    w.String(s.name);
    w.Key("start_ns");
    w.UInt(s.start_ns);
    w.Key("dur_ns");
    w.UInt(s.end_ns - s.start_ns);
    w.Key("self_ns");
    w.UInt(self[i]);
    w.EndObject();
    out << '\n';
  }
  for (const auto& [cls, counters] : counters_) {
    kgq::obs::JsonWriter w(out, /*compact=*/true);
    w.BeginObject();
    w.Key("class");
    w.String(cls);
    w.Key("counter_deltas");
    w.BeginObject();
    for (const auto& [name, delta] : counters) {
      w.Key(name);
      w.UInt(delta);
    }
    w.EndObject();
    w.EndObject();
    out << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace kgqbench

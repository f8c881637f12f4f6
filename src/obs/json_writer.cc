#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>

namespace kgq {
namespace obs {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void JsonWriter::Indent() {
  if (compact_) return;
  out_ << '\n';
  for (size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::Prepare() {
  if (after_key_) {
    after_key_ = false;
    return;  // Value continues the "key": line.
  }
  if (stack_.empty()) return;  // Top-level value.
  if (!first_in_scope_) out_ << ',';
  first_in_scope_ = false;
  Indent();
}

void JsonWriter::BeginObject() {
  Prepare();
  out_ << '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_ = true;
}

void JsonWriter::EndObject() {
  bool empty = first_in_scope_;
  stack_.pop_back();
  if (!empty) Indent();
  out_ << '}';
  first_in_scope_ = false;
  if (stack_.empty() && !compact_) out_ << '\n';
}

void JsonWriter::BeginArray() {
  Prepare();
  out_ << '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_ = true;
}

void JsonWriter::EndArray() {
  bool empty = first_in_scope_;
  stack_.pop_back();
  if (!empty) Indent();
  out_ << ']';
  first_in_scope_ = false;
  if (stack_.empty() && !compact_) out_ << '\n';
}

void JsonWriter::Key(std::string_view k) {
  if (!first_in_scope_) out_ << ',';
  first_in_scope_ = false;
  Indent();
  WriteQuoted(k);
  out_ << (compact_ ? ":" : ": ");
  after_key_ = true;
}

void JsonWriter::String(std::string_view s) {
  Prepare();
  WriteQuoted(s);
}

void JsonWriter::Int(int64_t v) {
  Prepare();
  out_ << v;
}

void JsonWriter::UInt(uint64_t v) {
  Prepare();
  out_ << v;
}

void JsonWriter::Double(double v, int digits) {
  Prepare();
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN literals.
    out_ << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  out_ << buf;
}

void JsonWriter::Bool(bool v) {
  Prepare();
  out_ << (v ? "true" : "false");
}

void JsonWriter::Null() {
  Prepare();
  out_ << "null";
}

void JsonWriter::WriteQuoted(std::string_view s) {
  quoted_.clear();
  AppendJsonString(&quoted_, s);
  out_ << quoted_;
}

}  // namespace obs
}  // namespace kgq

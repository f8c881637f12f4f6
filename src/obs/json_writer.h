#ifndef KGQ_OBS_JSON_WRITER_H_
#define KGQ_OBS_JSON_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace kgq {
namespace obs {

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// escaped, control bytes take the short forms `\b \f \n \r \t` or
/// `\u00XX`, and every other byte (UTF-8 included) passes through. The
/// one escaper behind JsonWriter and the serve protocol's renderers.
void AppendJsonString(std::string* out, std::string_view s);

/// Minimal streaming JSON writer: the one emitter behind every
/// machine-readable `BENCH_*.json` file and the metric registry's
/// export, so all of them agree on escaping, indentation and number
/// formatting. No DOM, no allocation per value — call sequence mirrors
/// the document structure:
///
///   JsonWriter w(out);
///   w.BeginObject();
///   w.Key("benchmark"); w.String("e2_enum_delay");
///   w.Key("rows");      w.BeginArray();
///   ...                 w.EndArray();
///   w.EndObject();      // emits the trailing newline
///
/// The writer inserts commas and 2-space indentation; misuse (a value
/// without a Key inside an object, unbalanced End calls) is a
/// programming error and only lightly guarded.
class JsonWriter {
 public:
  /// `compact` drops all whitespace (no indentation, no space after
  /// ':', no trailing newline) — the mode for one-line wire responses;
  /// the default pretty mode is for files meant to be read by humans.
  explicit JsonWriter(std::ostream& out, bool compact = false)
      : out_(out), compact_(compact) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Object member key; must be followed by exactly one value or
  /// Begin*() call.
  void Key(std::string_view k);

  void String(std::string_view s);
  void Int(int64_t v);
  void UInt(uint64_t v);
  /// `digits` is the significant-digit budget (printf %.*g).
  void Double(double v, int digits = 9);
  void Bool(bool v);
  void Null();

 private:
  enum class Scope : uint8_t { kObject, kArray };

  /// Writes separators/indentation due before a value or key.
  void Prepare();
  void WriteQuoted(std::string_view s);
  void Indent();

  std::ostream& out_;
  const bool compact_ = false;
  std::vector<Scope> stack_;
  bool first_in_scope_ = true;   // No comma needed at the next element.
  bool after_key_ = false;       // The next value continues a "key": line.
  std::string quoted_;           // Reused buffer for quoted strings.
};

}  // namespace obs
}  // namespace kgq

#endif  // KGQ_OBS_JSON_WRITER_H_

#include "serve/protocol.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>

namespace kgq {
namespace serve {

namespace {

/// Recursive-descent JSON parser over one bounded string_view. All
/// errors are Status values; nothing throws and nothing reads past
/// end_. Built for hostile input: depth-limited, length-limited by the
/// caller, strict about trailing garbage.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    KGQ_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters after JSON value");
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth >= kMaxJsonDepth) {
      return Status::OutOfRange("JSON nesting too deep");
    }
    SkipSpace();
    if (AtEnd()) return Status::ParseError("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      if (AtEnd() || Peek() != '"') {
        return Status::ParseError("expected object key");
      }
      std::string key;
      KGQ_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (AtEnd() || Peek() != ':') {
        return Status::ParseError("expected ':' after object key");
      }
      ++pos_;
      JsonValue value;
      KGQ_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (AtEnd()) return Status::ParseError("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return Status::OK();
      }
      return Status::ParseError("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue item;
      KGQ_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->items.push_back(std::move(item));
      SkipSpace();
      if (AtEnd()) return Status::ParseError("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return Status::OK();
      }
      return Status::ParseError("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (AtEnd()) return Status::ParseError("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) {
        return Status::ParseError("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\\'
      if (AtEnd()) return Status::ParseError("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          KGQ_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Status::ParseError("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t lo = 0;
            KGQ_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Status::ParseError("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Status::ParseError("unpaired low surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Status::ParseError("invalid escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return Status::ParseError("truncated \\u escape");
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Status::ParseError("invalid hex digit in \\u escape");
      }
    }
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseBool(JsonValue* out) {
    if (text_.substr(pos_, 4) == "true") {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return Status::OK();
    }
    if (text_.substr(pos_, 5) == "false") {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return Status::OK();
    }
    return Status::ParseError("invalid literal");
  }

  Status ParseNull(JsonValue* out) {
    if (text_.substr(pos_, 4) == "null") {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return Status::OK();
    }
    return Status::ParseError("invalid literal");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    const size_t first_digit = pos_;
    bool digits = false;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
      digits = true;
    }
    if (pos_ - first_digit > 1 && text_[first_digit] == '0') {
      return Status::ParseError("leading zero in number");
    }
    bool integral = true;
    if (!AtEnd() && Peek() == '.') {
      integral = false;
      ++pos_;
      bool frac = false;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        frac = true;
      }
      if (!frac) return Status::ParseError("digits expected after '.'");
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      bool exp = false;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        exp = true;
      }
      if (!exp) return Status::ParseError("digits expected in exponent");
    }
    if (!digits) return Status::ParseError("invalid number");
    std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return Status::ParseError("unparseable number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    // Exact-integer window is (-2^53, 2^53): at 2^53 itself adjacent
    // integers collide, so ids that large are rejected as inexact.
    out->number_is_int =
        integral && value > -9007199254740992.0 && value < 9007199254740992.0;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Fetches a required/optional member with type checking. Returns
/// nullptr + error status via `*st` when missing or mistyped.
const JsonValue* Member(const JsonValue& obj, std::string_view key,
                        JsonValue::Kind kind, bool required, Status* st) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    if (required) {
      *st = Status::InvalidArgument("missing field \"" + std::string(key) +
                                    "\"");
    }
    return nullptr;
  }
  if (v->kind != kind) {
    *st = Status::InvalidArgument("field \"" + std::string(key) +
                                  "\" has the wrong type");
    return nullptr;
  }
  return v;
}

/// Converts a JSON number member to an unsigned integer ≤ `max`.
Status ToUint(const JsonValue& v, std::string_view key, uint64_t max,
              uint64_t* out) {
  if (!v.number_is_int || v.number < 0 ||
      v.number > static_cast<double>(max)) {
    return Status::InvalidArgument("field \"" + std::string(key) +
                                   "\" must be a non-negative integer");
  }
  *out = static_cast<uint64_t>(v.number);
  return Status::OK();
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) {
  if (text.size() > kMaxRequestBytes) {
    return Status::OutOfRange("request line exceeds " +
                              std::to_string(kMaxRequestBytes) + " bytes");
  }
  return JsonParser(text).Parse();
}

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kAddNode: return "add_node";
    case RequestOp::kInsertEdge: return "insert_edge";
    case RequestOp::kDeleteEdge: return "delete_edge";
    case RequestOp::kPublish: return "publish";
    case RequestOp::kQuery: return "query";
    case RequestOp::kExplain: return "explain";
    case RequestOp::kStats: return "stats";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kAnalytics: return "analytics";
  }
  return "?";
}

const char* QueryLangName(QueryLang lang) {
  switch (lang) {
    case QueryLang::kMatch: return "match";
    case QueryLang::kCrpq: return "crpq";
    case QueryLang::kBgp: return "bgp";
  }
  return "?";
}

Status ParseRequestLine(std::string_view line, Request* out) {
  *out = Request();
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& obj = *parsed;
  if (obj.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  // Recover the id first so even later validation errors echo it.
  Status st = Status::OK();
  if (const JsonValue* id =
          Member(obj, "id", JsonValue::Kind::kNumber, false, &st)) {
    KGQ_RETURN_IF_ERROR(ToUint(*id, "id", ~0ull >> 1, &out->id));
    out->has_id = true;
  }
  KGQ_RETURN_IF_ERROR(st);

  const JsonValue* op =
      Member(obj, "op", JsonValue::Kind::kString, true, &st);
  KGQ_RETURN_IF_ERROR(st);
  const std::string& name = op->string;
  if (name == "add_node") {
    out->op = RequestOp::kAddNode;
  } else if (name == "insert_edge") {
    out->op = RequestOp::kInsertEdge;
  } else if (name == "delete_edge") {
    out->op = RequestOp::kDeleteEdge;
  } else if (name == "publish") {
    out->op = RequestOp::kPublish;
  } else if (name == "query") {
    out->op = RequestOp::kQuery;
  } else if (name == "explain") {
    out->op = RequestOp::kExplain;
  } else if (name == "stats") {
    out->op = RequestOp::kStats;
  } else if (name == "metrics") {
    out->op = RequestOp::kMetrics;
  } else if (name == "analytics") {
    out->op = RequestOp::kAnalytics;
  } else {
    return Status::InvalidArgument("unknown op \"" + name + "\"");
  }

  switch (out->op) {
    case RequestOp::kAddNode: {
      const JsonValue* label =
          Member(obj, "label", JsonValue::Kind::kString, true, &st);
      KGQ_RETURN_IF_ERROR(st);
      out->label = label->string;
      break;
    }
    case RequestOp::kInsertEdge:
    case RequestOp::kDeleteEdge: {
      const JsonValue* from =
          Member(obj, "from", JsonValue::Kind::kNumber, true, &st);
      KGQ_RETURN_IF_ERROR(st);
      const JsonValue* to =
          Member(obj, "to", JsonValue::Kind::kNumber, true, &st);
      KGQ_RETURN_IF_ERROR(st);
      const JsonValue* label =
          Member(obj, "label", JsonValue::Kind::kString, true, &st);
      KGQ_RETURN_IF_ERROR(st);
      uint64_t f = 0, t = 0;
      KGQ_RETURN_IF_ERROR(ToUint(*from, "from", kNoNode - 1, &f));
      KGQ_RETURN_IF_ERROR(ToUint(*to, "to", kNoNode - 1, &t));
      out->from = static_cast<NodeId>(f);
      out->to = static_cast<NodeId>(t);
      out->label = label->string;
      break;
    }
    case RequestOp::kQuery:
    case RequestOp::kExplain: {
      const JsonValue* lang =
          Member(obj, "lang", JsonValue::Kind::kString, true, &st);
      KGQ_RETURN_IF_ERROR(st);
      if (lang->string == "match") {
        out->lang = QueryLang::kMatch;
      } else if (lang->string == "crpq") {
        out->lang = QueryLang::kCrpq;
      } else if (lang->string == "bgp") {
        out->lang = QueryLang::kBgp;
      } else {
        return Status::InvalidArgument("unknown lang \"" + lang->string +
                                       "\" (match, crpq or bgp)");
      }
      const JsonValue* text =
          Member(obj, "text", JsonValue::Kind::kString, true, &st);
      KGQ_RETURN_IF_ERROR(st);
      out->text = text->string;
      if (const JsonValue* threads =
              Member(obj, "threads", JsonValue::Kind::kNumber, false, &st)) {
        uint64_t t = 0;
        KGQ_RETURN_IF_ERROR(ToUint(*threads, "threads", 1024, &t));
        out->threads = static_cast<size_t>(t);
      }
      KGQ_RETURN_IF_ERROR(st);
      if (out->op == RequestOp::kQuery) {
        if (const JsonValue* profile =
                Member(obj, "profile", JsonValue::Kind::kBool, false, &st)) {
          out->profile = profile->boolean;
        }
        KGQ_RETURN_IF_ERROR(st);
      }
      break;
    }
    case RequestOp::kAnalytics: {
      const JsonValue* view =
          Member(obj, "view", JsonValue::Kind::kString, true, &st);
      KGQ_RETURN_IF_ERROR(st);
      if (view->string != "components" && view->string != "pagerank" &&
          view->string != "reach") {
        return Status::InvalidArgument(
            "unknown view \"" + view->string +
            "\" (components, pagerank or reach)");
      }
      out->view = view->string;
      if (const JsonValue* label =
              Member(obj, "label", JsonValue::Kind::kString, false, &st)) {
        out->label = label->string;
      }
      KGQ_RETURN_IF_ERROR(st);
      if (out->view == "reach" && obj.Find("label") == nullptr) {
        return Status::InvalidArgument("view \"reach\" requires \"label\"");
      }
      if (const JsonValue* node =
              Member(obj, "node", JsonValue::Kind::kNumber, false, &st)) {
        uint64_t n = 0;
        KGQ_RETURN_IF_ERROR(ToUint(*node, "node", kNoNode - 1, &n));
        out->node = static_cast<NodeId>(n);
        out->has_node = true;
      }
      KGQ_RETURN_IF_ERROR(st);
      if (const JsonValue* top =
              Member(obj, "top", JsonValue::Kind::kNumber, false, &st)) {
        KGQ_RETURN_IF_ERROR(ToUint(*top, "top", 1 << 20, &out->top));
        if (out->top == 0) {
          return Status::InvalidArgument("\"top\" must be positive");
        }
      }
      KGQ_RETURN_IF_ERROR(st);
      if (out->view == "pagerank" && !out->has_node && out->top == 0) {
        return Status::InvalidArgument(
            "view \"pagerank\" requires \"node\" or \"top\"");
      }
      break;
    }
    case RequestOp::kPublish:
    case RequestOp::kStats:
    case RequestOp::kMetrics:
      break;
  }
  return Status::OK();
}

namespace {

/// Opens a response line: `{"id":N,"ok":...` or `{"ok":...`.
std::string Open(const Request& req, bool ok) {
  std::string out = "{";
  if (req.has_id) {
    out += "\"id\":";
    out += std::to_string(req.id);
    out += ',';
  }
  out += ok ? "\"ok\":true" : "\"ok\":false";
  return out;
}

}  // namespace

std::string RenderError(const Request& req, const Status& status) {
  std::string out = Open(req, false);
  out += ",\"code\":";
  AppendJsonString(&out, StatusCodeName(status.code()));
  out += ",\"error\":";
  AppendJsonString(&out, status.message());
  out += '}';
  return out;
}

std::string RenderNode(const Request& req, NodeId node) {
  std::string out = Open(req, true);
  out += ",\"node\":";
  out += std::to_string(node);
  out += '}';
  return out;
}

std::string RenderApplied(const Request& req, bool applied) {
  std::string out = Open(req, true);
  out += ",\"applied\":";
  out += applied ? "true" : "false";
  out += '}';
  return out;
}

std::string RenderPublish(const Request& req, uint64_t epoch, size_t nodes,
                          size_t edges) {
  std::string out = Open(req, true);
  out += ",\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"nodes\":";
  out += std::to_string(nodes);
  out += ",\"edges\":";
  out += std::to_string(edges);
  out += '}';
  return out;
}

std::string RenderStats(const Request& req, const StatsBody& stats) {
  std::string out = Open(req, true);
  out += ",\"epoch\":";
  out += std::to_string(stats.epoch);
  out += ",\"nodes\":";
  out += std::to_string(stats.nodes);
  out += ",\"edges\":";
  out += std::to_string(stats.edges);
  out += ",\"pending\":";
  out += std::to_string(stats.pending);
  out += ",\"cache_hits\":";
  out += std::to_string(stats.cache_hits);
  out += ",\"cache_misses\":";
  out += std::to_string(stats.cache_misses);
  out += ",\"cache_size\":";
  out += std::to_string(stats.cache_size);
  out += ",\"writes_applied\":";
  out += std::to_string(stats.writes_applied);
  out += ",\"writes_noop\":";
  out += std::to_string(stats.writes_noop);
  // Wall-clock fields last; goldens normalize everything `_ns`-suffixed.
  out += ",\"p50_ns\":";
  out += std::to_string(stats.p50_ns);
  out += ",\"p99_ns\":";
  out += std::to_string(stats.p99_ns);
  out += '}';
  return out;
}

std::string RenderMetrics(const Request& req, const MetricsBody& metrics) {
  std::string out = Open(req, true);
  out += ",\"epoch\":";
  out += std::to_string(metrics.epoch);
  out += ",\"latency\":{\"samples\":";
  out += std::to_string(metrics.samples);
  out += ",\"p50_ns\":";
  out += std::to_string(metrics.p50_ns);
  out += ",\"p95_ns\":";
  out += std::to_string(metrics.p95_ns);
  out += ",\"p99_ns\":";
  out += std::to_string(metrics.p99_ns);
  out += "},\"metrics\":";
  out += metrics.registry_json;
  out += '}';
  return out;
}

std::string RenderAnalytics(const Request& req, const AnalyticsBody& body) {
  std::string out = Open(req, true);
  out += ",\"epoch\":";
  out += std::to_string(body.epoch);
  out += ",\"view\":";
  AppendJsonString(&out, body.view);
  if (body.view == "components") {
    out += ",\"num_components\":";
    out += std::to_string(body.num_components);
    if (body.has_node) {
      out += ",\"node\":";
      out += std::to_string(body.node);
      out += ",\"component\":";
      out += std::to_string(body.component);
    }
  } else if (body.view == "pagerank") {
    if (body.has_node) {
      out += ",\"node\":";
      out += std::to_string(body.node);
      out += ",\"rank\":";
      out += std::to_string(body.rank);
    }
    if (body.has_top) {
      out += ",\"top\":[";
      for (size_t i = 0; i < body.top.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"node\":";
        out += std::to_string(body.top[i].first);
        out += ",\"rank\":";
        out += std::to_string(body.top[i].second);
        out += '}';
      }
      out += ']';
    }
  } else {  // reach
    out += ",\"label\":";
    AppendJsonString(&out, body.label);
    if (body.has_node) {
      out += ",\"node\":";
      out += std::to_string(body.node);
      out += ",\"count\":";
      out += std::to_string(body.reach_nodes.size());
      out += ",\"nodes\":[";
      for (size_t i = 0; i < body.reach_nodes.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(body.reach_nodes[i]);
      }
      out += ']';
    } else {
      out += ",\"nnz\":";
      out += std::to_string(body.nnz);
    }
  }
  out += '}';
  return out;
}

void AppendProfileNode(std::string* out, const obs::ProfileNode& node) {
  *out += "{\"op\":";
  AppendJsonString(out, node.kind);
  if (!node.engine.empty()) {
    *out += ",\"engine\":";
    AppendJsonString(out, node.engine);
  }
  *out += ",\"rows_in\":";
  *out += std::to_string(node.rows_in);
  *out += ",\"rows_out\":";
  *out += std::to_string(node.rows_out);
  *out += ",\"time_ns\":";
  *out += std::to_string(node.time_ns);
  *out += ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ',';
    AppendProfileNode(out, *node.children[i]);
  }
  *out += "]}";
}

std::string RenderAnswer(const Request& req, const QueryAnswer& answer) {
  std::string out = Open(req, true);
  out += ",\"epoch\":";
  out += std::to_string(answer.epoch);
  out += ",\"cached\":";
  out += answer.cached ? "true" : "false";
  out += ",\"columns\":[";
  for (size_t i = 0; i < answer.columns.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(&out, answer.columns[i]);
  }
  out += "],\"rows\":[";
  // Straight from the flat buffer into room sized for the worst case: a
  // value is at most 10 digits plus its comma, a row adds "[],".
  const RowTable& rows = answer.rows;
  const size_t arity = rows.arity();
  const size_t start = out.size();
  out.resize(start + rows.size() * (arity * 11 + 3));
  char* p = out.data() + start;
  const NodeId* value = rows.data().data();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) *p++ = ',';
    *p++ = '[';
    for (size_t j = 0; j < arity; ++j) {
      if (j > 0) *p++ = ',';
      p = std::to_chars(p, p + 10, *value++).ptr;
    }
    *p++ = ']';
  }
  out.resize(static_cast<size_t>(p - out.data()));
  out += ']';
  if (req.profile) {
    // The member is always present on a profiled request, so clients
    // can rely on its shape; null means "no tree was captured" (obs
    // off, or a cache hit on an unprofiled computation).
    out += ",\"profile\":";
    if (answer.profile != nullptr) {
      AppendProfileNode(&out, *answer.profile);
    } else {
      out += "null";
    }
  }
  out += '}';
  return out;
}

std::string RenderExplain(const Request& req, uint64_t epoch,
                          const std::string& plan) {
  std::string out = Open(req, true);
  out += ",\"epoch\":";
  out += std::to_string(epoch);
  out += ",\"plan\":";
  AppendJsonString(&out, plan);
  out += '}';
  return out;
}

}  // namespace serve
}  // namespace kgq

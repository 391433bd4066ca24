#include "util/json_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tg {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string JsonQuote(const std::string& text) {
  return "\"" + JsonEscape(text) + "\"";
}

std::string JsonNumber(double value, int precision) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

// Recursive-descent parser over [p, end). Each Parse* advances p past the
// value it consumed or returns false leaving p at the first bad byte. A null
// output pointer checks the same grammar without building anything, so
// JsonValidate stays allocation-free however large the document.
struct JsonParser {
  const char* p;
  const char* begin;
  const char* end;
  int depth = 0;

  static constexpr int kMaxDepth = 256;

  Status Error() const {
    return Status::InvalidArgument("invalid JSON at byte offset " +
                                   std::to_string(p - begin));
  }

  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (static_cast<size_t>(end - p) < n || std::strncmp(p, lit, n) != 0) {
      return false;
    }
    p += n;
    return true;
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (out == nullptr) return;
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool ParseString(std::string* out) {
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c < 0x20) return false;
      if (c == '\\') {
        ++p;
        if (p >= end) return false;
        unsigned code = 0;
        switch (*p) {
          case '"': code = '"'; break;
          case '\\': code = '\\'; break;
          case '/': code = '/'; break;
          case 'b': code = '\b'; break;
          case 'f': code = '\f'; break;
          case 'n': code = '\n'; break;
          case 'r': code = '\r'; break;
          case 't': code = '\t'; break;
          case 'u': {
            for (int i = 0; i < 4; ++i) {
              ++p;
              if (p >= end || !std::isxdigit(static_cast<unsigned char>(*p))) {
                return false;
              }
              const char h = *p;
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            // Surrogate pairs are passed through as two 3-byte sequences
            // (CESU-8-style); the in-tree writers never emit them.
            break;
          }
          default:
            return false;
        }
        AppendUtf8(out, code);
        ++p;
        continue;
      }
      if (out != nullptr) *out += static_cast<char>(c);
      ++p;
    }
    return false;  // unterminated
  }

  void SkipDigits() {
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
  }

  // JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber(double* out) {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    if (p >= end || !std::isdigit(static_cast<unsigned char>(*p))) return false;
    if (*p == '0') {
      ++p;
    } else {
      SkipDigits();
    }
    if (p < end && *p == '.') {
      ++p;
      if (p >= end || !std::isdigit(static_cast<unsigned char>(*p))) {
        return false;
      }
      SkipDigits();
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      if (p >= end || !std::isdigit(static_cast<unsigned char>(*p))) {
        return false;
      }
      SkipDigits();
    }
    if (out != nullptr) *out = std::strtod(start, nullptr);
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (p >= end || ++depth > kMaxDepth) return false;
    JsonValue::Kind kind;
    bool ok = false;
    switch (*p) {
      case '{':
        kind = JsonValue::Kind::kObject;
        ok = ParseObject(out);
        break;
      case '[':
        kind = JsonValue::Kind::kArray;
        ok = ParseArray(out);
        break;
      case '"':
        kind = JsonValue::Kind::kString;
        ok = ParseString(out != nullptr ? &out->string_ : nullptr);
        break;
      case 't':
        kind = JsonValue::Kind::kBool;
        ok = Literal("true");
        if (out != nullptr) out->bool_ = true;
        break;
      case 'f':
        kind = JsonValue::Kind::kBool;
        ok = Literal("false");
        break;
      case 'n':
        kind = JsonValue::Kind::kNull;
        ok = Literal("null");
        break;
      default:
        kind = JsonValue::Kind::kNumber;
        ok = ParseNumber(out != nullptr ? &out->number_ : nullptr);
    }
    if (out != nullptr) out->kind_ = kind;
    --depth;
    return ok;
  }

  bool ParseObject(JsonValue* out) {
    ++p;  // '{'
    SkipWs();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(out != nullptr ? &key : nullptr)) return false;
      SkipWs();
      if (p >= end || *p != ':') return false;
      ++p;
      JsonValue value;
      if (!ParseValue(out != nullptr ? &value : nullptr)) return false;
      if (out != nullptr) {
        out->object_.emplace_back(std::move(key), std::move(value));
      }
      SkipWs();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    ++p;  // '['
    SkipWs();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(out != nullptr ? &value : nullptr)) return false;
      if (out != nullptr) out->array_.push_back(std::move(value));
      SkipWs();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      return false;
    }
  }
};

// Parses one JSON value plus optional trailing whitespace into `out`, or
// only checks it when `out` is null.
static Status ParseDocument(const std::string& text, JsonValue* out) {
  JsonParser parser{text.data(), text.data(), text.data() + text.size()};
  if (parser.ParseValue(out)) {
    parser.SkipWs();
    if (parser.p == parser.end) return Status::OK();
  }
  return parser.Error();
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  JsonValue value;
  TG_RETURN_IF_ERROR(ParseDocument(text, &value));
  return value;
}

Status JsonValidate(const std::string& text) {
  return ParseDocument(text, nullptr);
}

bool JsonValue::AsBool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::AsDouble(double fallback) const {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

const std::string& JsonValue::AsString() const {
  static const std::string empty;
  return kind_ == Kind::kString ? string_ : empty;
}

size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

const JsonValue& JsonValue::at(size_t i) const {
  static const JsonValue null_value;
  if (kind_ != Kind::kArray || i >= array_.size()) return null_value;
  return array_[i];
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace tg

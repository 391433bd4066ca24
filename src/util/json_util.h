// Minimal JSON output + parsing helpers shared by every exporter that
// hand-writes JSON (trace/metrics exporters, bench timing writer) and every
// reader of checkpoints, shards and manifests. This is deliberately not a
// full JSON library: writers compose strings with JsonEscape/JsonQuote, and
// one strict recursive-descent parser (JsonValue::Parse) reads documents;
// JsonValidate is that parser's verdict, used by tests and the CLI to assert
// that emitted files actually parse.
#ifndef TG_UTIL_JSON_UTIL_H_
#define TG_UTIL_JSON_UTIL_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace tg {

// Escapes a string for inclusion inside a JSON string literal: quotes,
// backslashes, and control characters (incl. \n, \t) become escape
// sequences. Does not add the surrounding quotes.
std::string JsonEscape(const std::string& text);

// JsonEscape plus surrounding double quotes: ready to splice into JSON.
std::string JsonQuote(const std::string& text);

// Formats a double as a valid JSON number: finite values use shortest-ish
// %.17g repr trimmed to %.*g precision, non-finite values (which JSON cannot
// represent) become 0 with no error -- exporters must not emit NaN/Inf.
std::string JsonNumber(double value, int precision = 6);

// Strict validation of a complete JSON document (object, array, string,
// number, true/false/null; UTF-8 passthrough; nesting depth at most 256).
// Runs the JsonValue::Parse grammar without building a value, so it returns
// the same Status as JsonValue::Parse(text).status() in constant memory: OK
// if `text` is exactly one valid JSON value plus optional trailing
// whitespace, otherwise InvalidArgument with the byte offset of the first
// error.
Status JsonValidate(const std::string& text);

// Parsed JSON document node. Deliberately tiny: enough for the in-tree
// consumers (bench_history reading bench_timings.json / BENCH_history.json),
// not a general-purpose library. Objects preserve insertion order; duplicate
// keys keep the first occurrence on lookup. Numbers are doubles (the only
// numeric type JSON has); \uXXXX escapes outside ASCII decode to UTF-8.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses exactly one JSON value (plus optional trailing whitespace).
  // InvalidArgument on malformed input with the byte offset of the first
  // error.
  static Result<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed reads with fallbacks, so consumers can chase optional fields
  // without kind checks at every step.
  bool AsBool(bool fallback = false) const;
  double AsDouble(double fallback = 0.0) const;
  const std::string& AsString() const;  // empty string unless is_string()

  // Array / object size; 0 for scalar kinds.
  size_t size() const;
  // Array element i; null-kind sentinel when out of range or not an array.
  const JsonValue& at(size_t i) const;
  // Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Object entries in document order.
  const std::vector<std::pair<std::string, JsonValue>>& items() const {
    return object_;
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend struct JsonParser;
};

}  // namespace tg

#endif  // TG_UTIL_JSON_UTIL_H_

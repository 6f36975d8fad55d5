// Minimal JSON DOM shared by the trace analyzer and gpumip-report. All
// inputs are machine-written — metrics exports, time-series exports,
// trace-event files, bench baselines — so a small recursive-descent reader
// keeps the tools dependency-free (same stance as gpumip-lint's lexer).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace gpumip::tracetool {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  static constexpr int kMaxDepth = 256;

  explicit JsonReader(const std::string& text) : text_(text) {}

  /// Parses the whole document into `out`. Returns false and sets `error`
  /// (with a byte offset) on malformed input, trailing characters, or
  /// nesting deeper than kMaxDepth (the reader recurses once per level).
  bool parse(JsonValue& out, std::string& error);

 private:
  void skip_ws();
  bool fail(const std::string& what);
  bool expect(char c);
  bool literal(const char* word, std::size_t len);
  bool string(std::string& out);
  bool value(JsonValue& out);

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects enclosing the current value
  std::string error_;
};

/// `v->number` when `v` is a number, else `fallback`.
double number_or(const JsonValue* v, double fallback);

/// `v->str` when `v` is a string, else `fallback`.
std::string string_or(const JsonValue* v, const std::string& fallback);

}  // namespace gpumip::tracetool

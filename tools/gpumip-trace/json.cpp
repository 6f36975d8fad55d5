#include "json.hpp"

#include <cctype>

namespace gpumip::tracetool {

bool JsonReader::parse(JsonValue& out, std::string& error) {
  pos_ = 0;
  depth_ = 0;
  error_.clear();
  if (!value(out)) {
    error = "offset " + std::to_string(pos_) + ": " + error_;
    return false;
  }
  skip_ws();
  if (pos_ != text_.size()) {
    error = "offset " + std::to_string(pos_) + ": trailing characters after document";
    return false;
  }
  return true;
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonReader::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  return false;
}

bool JsonReader::expect(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) {
    return fail(std::string("expected '") + c + "'");
  }
  ++pos_;
  return true;
}

bool JsonReader::literal(const char* word, std::size_t len) {
  if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
  pos_ += len;
  return true;
}

bool JsonReader::string(std::string& out) {
  if (!expect('"')) return false;
  out.clear();
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (c == '\\') {
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          // The exporters never emit non-ASCII; decode the code unit and
          // keep the low byte (enough to round-trip what we write).
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a') + 10U;
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A') + 10U;
            } else {
              return fail("bad \\u escape");
            }
          }
          out.push_back(static_cast<char>(code & 0x7FU));
          break;
        }
        default: return fail("unknown escape");
      }
    } else {
      out.push_back(c);
    }
  }
  return fail("unterminated string");
}

bool JsonReader::value(JsonValue& out) {  // NOLINT(misc-no-recursion)
  skip_ws();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  const char c = text_[pos_];
  if ((c == '{' || c == '[') && ++depth_ > kMaxDepth) return fail("nesting too deep");
  if (c == '{') {
    ++pos_;
    out.type = JsonValue::Type::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      std::string key;
      if (!string(key)) return false;
      if (!expect(':')) return false;
      JsonValue member;
      if (!value(member)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      --depth_;
      return expect('}');
    }
  }
  if (c == '[') {
    ++pos_;
    out.type = JsonValue::Type::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      --depth_;
      return expect(']');
    }
  }
  if (c == '"') {
    out.type = JsonValue::Type::kString;
    return string(out.str);
  }
  if (c == 't') {
    out.type = JsonValue::Type::kBool;
    out.boolean = true;
    return literal("true", 4);
  }
  if (c == 'f') {
    out.type = JsonValue::Type::kBool;
    out.boolean = false;
    return literal("false", 5);
  }
  if (c == 'n') {
    out.type = JsonValue::Type::kNull;
    return literal("null", 4);
  }
  // number
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  if (pos_ == start) return fail("unexpected character");
  out.type = JsonValue::Type::kNumber;
  const std::string token = text_.substr(start, pos_ - start);
  std::size_t used = 0;
  try {
    out.number = std::stod(token, &used);
  } catch (...) {
    return fail("bad number");
  }
  // stod stops at the first character it cannot use, so "1.2.3" would
  // silently read as 1.2 and "1-2" as 1.
  if (used != token.size()) return fail("bad number");
  return true;
}

double number_or(const JsonValue* v, double fallback) {
  return (v != nullptr && v->type == JsonValue::Type::kNumber) ? v->number : fallback;
}

std::string string_or(const JsonValue* v, const std::string& fallback) {
  return (v != nullptr && v->type == JsonValue::Type::kString) ? v->str : fallback;
}

}  // namespace gpumip::tracetool

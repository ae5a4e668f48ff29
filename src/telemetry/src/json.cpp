#include "vcgra/telemetry/json.hpp"

#include <cctype>
#include <cstdlib>

#include "vcgra/common/strings.hpp"

namespace vcgra::telemetry {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) found = &value;  // last duplicate wins
  }
  return found;
}

namespace {

/// Containers nest at most this deep. The parser recurses once per
/// level, so an unbounded depth lets a hostile file (vcgra_stats and
/// vcgra_top read them from disk) overflow the stack.
constexpr int kMaxDepth = 512;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      if (error != nullptr) {
        *error = common::strprintf("%s at byte %zu", message_.c_str(), pos_);
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = common::strprintf("trailing garbage at byte %zu", pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const std::string& message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect_literal(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return fail(common::strprintf("expected '%s'", literal));
      }
      ++pos_;
    }
    return true;
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return fail(common::strprintf("nesting deeper than %d", kMaxDepth));
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::Kind::String;
        return parse_string(&out->string);
      case 't':
        out->kind = JsonValue::Kind::Bool;
        out->boolean = true;
        return expect_literal("true");
      case 'f':
        out->kind = JsonValue::Kind::Bool;
        out->boolean = false;
        return expect_literal("false");
      case 'n':
        out->kind = JsonValue::Kind::Null;
        return expect_literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key string");
      }
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->array.push_back(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\\'
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode (BMP only; unpaired surrogates pass through).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape in string");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (eat('-')) {
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (eat('.')) {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end == nullptr || *end != '\0' ||
        end == token.c_str()) {
      pos_ = start;
      return fail("expected a JSON value");
    }
    out->kind = JsonValue::Kind::Number;
    out->number = value;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string message_;
};

}  // namespace

bool parse_json(const std::string& text, JsonValue* out, std::string* error) {
  Parser parser(text);
  return parser.parse(out, error);
}

}  // namespace vcgra::telemetry

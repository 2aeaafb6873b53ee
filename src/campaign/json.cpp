#include "campaign/json.hpp"

#include <cmath>
#include <cstdlib>

namespace pi2::campaign {

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// "" on success; the parsed document lands in `out`.
  std::string parse(JsonValue& out) {
    skip_ws();
    std::string err = parse_value(out);
    if (!err.empty()) return err;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing content");
    return "";
  }

 private:
  std::string error(const std::string& what) const {
    return what + " at offset " + std::to_string(pos_);
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

  std::string parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.text);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return error(std::string("unexpected character '") + c + "'");
  }

  std::string parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return "";
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected a quoted key");
      }
      std::string key;
      std::string err = parse_string(key);
      if (!err.empty()) return err;
      skip_ws();
      if (!eat(':')) return error("expected ':' after key");
      skip_ws();
      JsonValue value;
      err = parse_value(value);
      if (!err.empty()) return err;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return "";
      return error("expected ',' or '}' in object");
    }
  }

  std::string parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return "";
    while (true) {
      skip_ws();
      JsonValue value;
      std::string err = parse_value(value);
      if (!err.empty()) return err;
      out.items.push_back(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return "";
      return error("expected ',' or ']' in array");
    }
  }

  std::string parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return "";
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char next = text_[pos_++];
      switch (next) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return error("bad \\u escape");
          }
          out += static_cast<char>(value);  // BMP-ASCII subset is enough here
          break;
        }
        default:
          return error("unknown escape");
      }
    }
    return error("unterminated string");
  }

  std::string parse_number(JsonValue& out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(start, &end);
    if (end == start) return error("malformed number");
    if (!std::isfinite(out.number)) return error("non-finite number");
    // Raw token, kept alongside the double: 64-bit seeds overflow the
    // double's 53-bit mantissa, so the seed mapping rereads the digits.
    out.text.assign(start, static_cast<std::size_t>(end - start));
    pos_ += static_cast<std::size_t>(end - start);
    return "";
  }

  std::string parse_keyword(JsonValue& out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return "";
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      pos_ += 5;
      return "";
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.type = JsonValue::Type::kNull;
      pos_ += 4;
      return "";
    }
    return error("unknown keyword");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string parse_json(const std::string& text, JsonValue& out) {
  return JsonParser{text}.parse(out);
}

}  // namespace pi2::campaign

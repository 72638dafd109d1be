#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/env.hpp"

namespace ccq::json {

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& origin)
      : text_(text), origin_(origin) {}

  Value parse() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(origin_, line_, msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  // `depth` counts the arrays and objects enclosing this value.
  Value value(std::size_t depth) {
    const char c = peek();
    Value v;
    v.line = line_;
    if ((c == '{' || c == '[') && depth == kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    switch (c) {
      case '{': {
        v.kind = Value::Kind::kObject;
        ++pos_;
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        while (true) {
          Value key = value(depth + 1);
          if (key.kind != Value::Kind::kString)
            fail("object key must be a string");
          if (key.str.empty()) fail("object key must be non-empty");
          if (v.find(key.str) != nullptr)
            fail("duplicate key '" + key.str + "'");
          expect(':');
          v.obj.emplace_back(key.str, value(depth + 1));
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind = Value::Kind::kArray;
        ++pos_;
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        while (true) {
          v.arr.push_back(value(depth + 1));
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"': {
        v.kind = Value::Kind::kString;
        ++pos_;
        while (true) {
          if (pos_ >= text_.size()) fail("unterminated string");
          const char s = text_[pos_++];
          if (s == '"') break;
          if (s == '\n') fail("raw newline in string");
          if (s == '\\') {
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': v.str.push_back('"'); break;
              case '\\': v.str.push_back('\\'); break;
              case '/': v.str.push_back('/'); break;
              case 'n': v.str.push_back('\n'); break;
              case 't': v.str.push_back('\t'); break;
              default: fail("unsupported escape sequence");
            }
          } else {
            v.str.push_back(s);
          }
        }
        return v;
      }
      default: {
        if (c == 't' || c == 'f' || c == 'n') {
          const char* lit = c == 't' ? "true" : c == 'f' ? "false" : "null";
          const std::size_t len = std::strlen(lit);
          if (text_.compare(pos_, len, lit) != 0) fail("malformed literal");
          pos_ += len;
          if (c == 'n') {
            v.kind = Value::Kind::kNull;
          } else {
            v.kind = Value::Kind::kBool;
            v.b = (c == 't');
          }
          return v;
        }
        // number
        const std::size_t start = pos_;
        if (text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
          ++pos_;
        if (pos_ == start) fail("unexpected character");
        std::size_t used = 0;
        double d = 0;
        const std::string tok = text_.substr(start, pos_ - start);
        try {
          d = std::stod(tok, &used);
        } catch (const std::exception&) {
          fail("malformed number '" + tok + "'");
        }
        if (used != tok.size()) fail("malformed number '" + tok + "'");
        v.kind = Value::Kind::kNumber;
        v.num = d;
        v.str = tok;
        return v;
      }
    }
  }

  const std::string& text_;
  std::string origin_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

}  // namespace

Value parse(const std::string& text, const std::string& origin) {
  return Parser(text, origin).parse();
}

void fail_at(const std::string& origin, std::size_t line,
             const std::string& msg) {
  std::ostringstream os;
  os << origin << ":" << line << ": " << msg;
  throw ModelViolation(os.str());
}

std::uint64_t as_uint(const Value& v, std::uint64_t lo, std::uint64_t hi,
                      const char* what, const std::string& origin) {
  if (v.kind != Value::Kind::kNumber)
    fail_at(origin, v.line, std::string(what) + " must be a number");
  const auto out_of_range = [&] {
    std::ostringstream os;
    os << what << " " << v.str << " out of range [" << lo << ", " << hi << "]";
    fail_at(origin, v.line, os.str());
  };
  // A plain digit string is read exactly: the double in v.num rounds past
  // 2^53, so 9007199254740993 would load as ...992.
  if (std::all_of(v.str.begin(), v.str.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c));
      })) {
    try {
      return parse_uint_strict(v.str, lo, hi, what);
    } catch (const ModelViolation&) {
      out_of_range();  // all digits: outside [lo, hi] or past 64 bits
    }
  }
  const double d = v.num;
  if (d < 0 || d != std::floor(d))
    fail_at(origin, v.line, std::string(what) + " must be a whole number");
  // Rule out 2^64 and beyond before casting: converting such a double to
  // uint64_t is undefined behaviour. Below it the cast of a whole number is
  // exact, so the bounds compare as integers.
  const bool fits = d < 0x1p64;
  const std::uint64_t u = fits ? static_cast<std::uint64_t>(d) : 0;
  if (!fits || u < lo || u > hi) out_of_range();
  // From 2^53 on a double no longer holds every integer, so "1e19" may not
  // be the number its writer meant.
  if (d >= 0x1p53)
    fail_at(origin, v.line,
            std::string(what) + " " + v.str +
                " is not exact as a double; write it as a plain integer");
  return u;
}

double as_prob(const Value& v, const char* what, const std::string& origin) {
  if (v.kind != Value::Kind::kNumber)
    fail_at(origin, v.line, std::string(what) + " must be a number");
  if (v.num < 0 || v.num > 1)
    fail_at(origin, v.line, std::string(what) + " must be in [0, 1]");
  return v.num;
}

double as_number(const Value& v, const char* what,
                 const std::string& origin) {
  if (v.kind != Value::Kind::kNumber)
    fail_at(origin, v.line, std::string(what) + " must be a number");
  return v.num;
}

std::string as_string(const Value& v, const char* what,
                      const std::string& origin) {
  if (v.kind != Value::Kind::kString)
    fail_at(origin, v.line, std::string(what) + " must be a string");
  return v.str;
}

bool as_bool(const Value& v, const char* what, const std::string& origin) {
  if (v.kind != Value::Kind::kBool)
    fail_at(origin, v.line, std::string(what) + " must be true or false");
  return v.b;
}

}  // namespace ccq::json

#pragma once

// Minimal strict JSON: objects, arrays, strings (no escapes beyond
// \" \\ \/ \n \t), numbers, true/false/null. Line numbers are tracked so
// every error names origin:line. Duplicate object keys, trailing content,
// malformed literals and nesting deeper than kMaxDepth are all
// ModelViolations — this is a reader for the repo's own formats (manifests,
// ccqd job frames), not a general library.
//
// Extracted from src/harness/manifest.cpp so the ccqd service protocol
// (src/service/protocol.cpp) parses job frames with exactly the manifest
// parser's strictness: one grammar, one set of error shapes.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ccq::json {

/// Deepest array/object nesting parse() accepts. Manifests and job frames
/// nest at most 4 deep; the cap keeps a hostile frame from recursing the
/// parser off its stack.
constexpr std::size_t kMaxDepth = 64;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;  ///< kString: the text; kNumber: the literal as written
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;
  std::size_t line = 0;  ///< 1-based source line where the value starts

  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parse a complete JSON document; `origin` names the source in errors
/// (ModelViolation "origin:line: message").
Value parse(const std::string& text, const std::string& origin);

/// Error helper shared by the validators below and their callers.
[[noreturn]] void fail_at(const std::string& origin, std::size_t line,
                          const std::string& msg);

// ---- typed accessors ------------------------------------------------------
// Each rejects the wrong kind (and range) with a ModelViolation naming
// `what` at the value's origin:line.

std::uint64_t as_uint(const Value& v, std::uint64_t lo, std::uint64_t hi,
                      const char* what, const std::string& origin);
double as_prob(const Value& v, const char* what, const std::string& origin);
double as_number(const Value& v, const char* what, const std::string& origin);
std::string as_string(const Value& v, const char* what,
                      const std::string& origin);
bool as_bool(const Value& v, const char* what, const std::string& origin);

}  // namespace ccq::json

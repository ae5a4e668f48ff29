// Minimal recursive-descent JSON reader for the telemetry tooling.
//
// Just enough of RFC 8259 to load the exporter's own output — the
// vcgra_stats CLI parses stats snapshots to pretty-print/diff them, and
// the trace checker (CI smoke job, test_telemetry) validates that the
// Chrome trace_event file is well-formed. Not a general-purpose parser:
// numbers become double, \uXXXX escapes decode the BMP only.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vcgra::telemetry {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered object members (duplicate keys keep the last).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Parses `text` as one JSON document. Returns false (with a
/// human-readable message and byte offset in `error`) on malformed
/// input, including trailing garbage after the document and arrays or
/// objects nested more than 512 deep.
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

}  // namespace vcgra::telemetry

//===- support/Json.h - minimal JSON emission and parsing -------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer (objects, arrays, scalars, correct
/// string escaping) and the one strict JSON reader, jsonParse. The
/// writer backs the Chrome trace_event emitter and the bench metrics
/// records; the reader backs perfdiff and every test that checks a
/// produced document, without a JSON library dependency.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SUPPORT_JSON_H
#define GPUPERF_SUPPORT_JSON_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpuperf {

/// Append-only JSON writer. Produces compact output; the caller opens and
/// closes containers explicitly and the writer inserts commas. Misuse
/// (closing more containers than were opened) is an assertion failure in
/// debug builds and produces invalid JSON in release builds -- callers are
/// expected to emit a fixed shape.
class JsonWriter {
public:
  void beginObject() { openContainer('{'); }
  void endObject() { closeContainer('}'); }
  void beginArray() { openContainer('['); }
  void endArray() { closeContainer(']'); }

  /// Emits a key inside an object; the next value call provides its value.
  void key(std::string_view Name);

  void value(std::string_view S);
  void value(const char *S) { value(std::string_view(S)); }
  void value(uint64_t V);
  void value(int64_t V);
  void value(int V) { value(static_cast<int64_t>(V)); }
  void value(unsigned V) { value(static_cast<uint64_t>(V)); }
  void value(double V, int Decimals = 6);
  void value(bool B);

  /// Emits \p Json, one complete JSON value rendered by the caller, as
  /// the next value: the separator, then the bytes as given.
  void rawValue(std::string_view Json) {
    separate();
    Out.append(Json);
  }

  /// Convenience: key + value in one call.
  template <typename T> void kv(std::string_view Name, T V) {
    key(Name);
    value(V);
  }

  /// Reserves room for \p Bytes of output in total.
  void reserve(size_t Bytes) { Out.reserve(Bytes); }

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  void openContainer(char C);
  void closeContainer(char C);
  void separate();
  void appendEscaped(std::string_view S);

  std::string Out;
  /// True when the next emission at the current nesting level needs a
  /// preceding comma.
  bool NeedComma = false;
  /// True right after key(): suppresses the comma before the value.
  bool AfterKey = false;
};

/// A parsed JSON value (see jsonParse). Small tree representation:
/// object members keep source order (and may repeat keys; find returns
/// the first), numbers are doubles -- integers up to 2^53 round-trip
/// exactly, which covers every counter the metrics records emit.
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool Bool = false;
  double Number = 0;
  std::string Str;
  std::vector<JsonValue> Items; ///< Array elements.
  std::vector<std::pair<std::string, JsonValue>> Members; ///< Object.

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// First member named \p Key (null when absent or not an object).
  const JsonValue *find(std::string_view Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Name, V] : Members)
      if (Name == Key)
        return &V;
    return nullptr;
  }
};

/// Parses \p Text as one complete JSON value (RFC 8259 grammar: objects,
/// arrays, strings with escapes, numbers, true/false/null, nested at
/// most 256 deep) with nothing but whitespace after it. String escapes
/// are decoded: \uXXXX becomes UTF-8, and a surrogate must come as a
/// high-low pair. Fails with a message naming the byte offset and the
/// check that fired.
Expected<JsonValue> jsonParse(std::string_view Text);

} // namespace gpuperf

#endif // GPUPERF_SUPPORT_JSON_H

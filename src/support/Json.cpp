//===- support/Json.cpp - minimal JSON emission and parsing ---------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

using namespace gpuperf;

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

namespace {

template <typename Int> void appendInteger(std::string &Out, Int V) {
  char Buf[24]; // 20 digits of UINT64_MAX, or a sign and 19 of INT64_MIN.
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace

void JsonWriter::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (NeedComma)
    Out += ',';
  NeedComma = true;
}

void JsonWriter::openContainer(char C) {
  separate();
  Out += C;
  NeedComma = false;
}

void JsonWriter::closeContainer(char C) {
  assert(!Out.empty() && "closing a container that was never opened");
  Out += C;
  NeedComma = true;
}

void JsonWriter::appendEscaped(std::string_view S) {
  Out += '"';
  // Bytes that need no escape are appended a run at a time.
  size_t RunStart = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + RunStart, I - RunStart);
    RunStart = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      static constexpr char Hex[] = "0123456789abcdef";
      const char Escape[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 15]};
      Out.append(Escape, sizeof(Escape));
    }
    }
  }
  Out.append(S.data() + RunStart, S.size() - RunStart);
  Out += '"';
}

void JsonWriter::key(std::string_view Name) {
  separate();
  appendEscaped(Name);
  Out += ':';
  AfterKey = true;
}

void JsonWriter::value(std::string_view S) {
  separate();
  appendEscaped(S);
}

void JsonWriter::value(uint64_t V) {
  separate();
  appendInteger(Out, V);
}

void JsonWriter::value(int64_t V) {
  separate();
  appendInteger(Out, V);
}

void JsonWriter::value(double V, int Decimals) {
  separate();
  // JSON has no NaN/Inf; emit null, the conventional substitute.
  if (!std::isfinite(V)) {
    Out += "null";
    return;
  }
  Out += formatString("%.*f", Decimals, V);
}

void JsonWriter::value(bool B) {
  separate();
  Out += B ? "true" : "false";
}

//===----------------------------------------------------------------------===//
// jsonParse: strict recursive-descent tree parser
//===----------------------------------------------------------------------===//

namespace {

/// Builds a JsonValue tree and decodes string escapes.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<JsonValue> run() {
    JsonValue V;
    skipWs();
    if (!parseValue(V) || !atEndAfterWs())
      return Expected<JsonValue>::error(formatString(
          "invalid JSON at byte %zu: %s", Pos,
          Error.empty() ? "malformed value" : Error.c_str()));
    return V;
  }

private:
  bool fail(const char *What) {
    if (Error.empty())
      Error = What;
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool atEndAfterWs() {
    skipWs();
    return Pos == Text.size() || fail("trailing bytes after value");
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseValue(JsonValue &V) {
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    bool Ok;
    switch (Text[Pos]) {
    case '{':
      Ok = parseObject(V);
      break;
    case '[':
      Ok = parseArray(V);
      break;
    case '"':
      V.K = JsonValue::Kind::String;
      Ok = parseString(V.Str);
      break;
    case 't':
      V.K = JsonValue::Kind::Bool;
      V.Bool = true;
      Ok = parseLiteral("true");
      break;
    case 'f':
      V.K = JsonValue::Kind::Bool;
      V.Bool = false;
      Ok = parseLiteral("false");
      break;
    case 'n':
      V.K = JsonValue::Kind::Null;
      Ok = parseLiteral("null");
      break;
    default:
      V.K = JsonValue::Kind::Number;
      Ok = parseNumber(V.Number);
    }
    --Depth;
    return Ok;
  }

  bool parseLiteral(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return fail("bad literal");
    Pos += Lit.size();
    return true;
  }

  bool parseObject(JsonValue &V) {
    V.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return true;
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("object key must be a string");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("missing ':' after object key");
      JsonValue Member;
      if (!parseValue(Member))
        return false;
      V.Members.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (consume('}'))
        return true;
      if (!consume(','))
        return fail("missing ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &V) {
    V.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return true;
    while (true) {
      JsonValue Item;
      if (!parseValue(Item))
        return false;
      V.Items.push_back(std::move(Item));
      skipWs();
      if (consume(']'))
        return true;
      if (!consume(','))
        return fail("missing ',' or ']' in array");
    }
  }

  /// Appends \p Code as UTF-8.
  static void appendUtf8(std::string &S, uint32_t Code) {
    if (Code < 0x80) {
      S += static_cast<char>(Code);
    } else if (Code < 0x800) {
      S += static_cast<char>(0xc0 | (Code >> 6));
      S += static_cast<char>(0x80 | (Code & 0x3f));
    } else if (Code < 0x10000) {
      S += static_cast<char>(0xe0 | (Code >> 12));
      S += static_cast<char>(0x80 | ((Code >> 6) & 0x3f));
      S += static_cast<char>(0x80 | (Code & 0x3f));
    } else {
      S += static_cast<char>(0xf0 | (Code >> 18));
      S += static_cast<char>(0x80 | ((Code >> 12) & 0x3f));
      S += static_cast<char>(0x80 | ((Code >> 6) & 0x3f));
      S += static_cast<char>(0x80 | (Code & 0x3f));
    }
  }

  /// Reads the 4 hex digits of a \u escape (Pos at the first digit).
  bool readHex4(uint32_t &Code) {
    Code = 0;
    for (int I = 0; I < 4; ++I) {
      if (Pos >= Text.size() ||
          !std::isxdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("bad \\u escape");
      char C = Text[Pos++];
      uint32_t Digit = C <= '9'   ? static_cast<uint32_t>(C - '0')
                       : C <= 'F' ? static_cast<uint32_t>(C - 'A' + 10)
                                  : static_cast<uint32_t>(C - 'a' + 10);
      Code = Code * 16 + Digit;
    }
    return true;
  }

  bool parseString(std::string &S) {
    ++Pos; // '"'
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        S += C;
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        S += E;
        break;
      case 'b':
        S += '\b';
        break;
      case 'f':
        S += '\f';
        break;
      case 'n':
        S += '\n';
        break;
      case 'r':
        S += '\r';
        break;
      case 't':
        S += '\t';
        break;
      case 'u': {
        uint32_t Code;
        if (!readHex4(Code))
          return false;
        if (Code >= 0xd800 && Code <= 0xdbff) {
          // High surrogate: must pair with \uDC00..\uDFFF.
          if (!(consume('\\') && consume('u')))
            return fail("lone high surrogate");
          uint32_t Low;
          if (!readHex4(Low))
            return false;
          if (Low < 0xdc00 || Low > 0xdfff)
            return fail("bad low surrogate");
          Code = 0x10000 + ((Code - 0xd800) << 10) + (Low - 0xdc00);
        } else if (Code >= 0xdc00 && Code <= 0xdfff) {
          return fail("lone low surrogate");
        }
        appendUtf8(S, Code);
        break;
      }
      default:
        return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(double &Number) {
    size_t Start = Pos;
    consume('-');
    if (consume('0')) {
      // No leading zeros.
    } else {
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("malformed number");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (consume('.')) {
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("digits required after decimal point");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("digits required in exponent");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos == Start + (Text[Start] == '-' ? 1u : 0u))
      return fail("malformed number");
    Number = std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                         nullptr);
    return true;
  }

  static constexpr int MaxDepth = 256;
  std::string_view Text;
  size_t Pos = 0;
  int Depth = 0;
  std::string Error;
};

} // namespace

Expected<JsonValue> gpuperf::jsonParse(std::string_view Text) {
  return Parser(Text).run();
}

//===- probe/ProbeSpec.cpp - declarative probe definitions ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "probe/ProbeSpec.h"

#include "isa/Opcode.h"
// Header-only: SlotUse lives with the stats it classifies; using its
// names here adds no link dependency (gpuperf_sim links gpuperf_probe,
// not the other way around).
#include "sim/Stats.h"
#include "support/Args.h"
#include "support/FileIO.h"
#include "support/Format.h"

using namespace gpuperf;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *gpuperf::probeEventName(ProbeEvent E) {
  switch (E) {
  case ProbeEvent::InstIssued:
    return "inst_issued";
  case ProbeEvent::MemAccess:
    return "mem_access";
  case ProbeEvent::Replay:
    return "replay";
  case ProbeEvent::BankConflict:
    return "bank_conflict";
  case ProbeEvent::SlotLost:
    return "slot_lost";
  case ProbeEvent::BlockScheduled:
    return "block_scheduled";
  case ProbeEvent::BlockDrained:
    return "block_drained";
  case ProbeEvent::WarpExit:
    return "warp_exit";
  }
  return "?";
}

const char *gpuperf::probeFieldName(ProbeField F) {
  switch (F) {
  case ProbeField::PC:
    return "pc";
  case ProbeField::Op:
    return "opcode";
  case ProbeField::Class:
    return "class";
  case ProbeField::Lanes:
    return "lanes";
  case ProbeField::Block:
    return "block";
  case ProbeField::Warp:
    return "warp";
  case ProbeField::Cycle:
    return "cycle";
  case ProbeField::Dual:
    return "dual";
  case ProbeField::Space:
    return "space";
  case ProbeField::Width:
    return "width";
  case ProbeField::Bytes:
    return "bytes";
  case ProbeField::Transactions:
    return "transactions";
  case ProbeField::Serialization:
    return "serialization";
  case ProbeField::Cause:
    return "cause";
  case ProbeField::Slots:
    return "slots";
  case ProbeField::Insts:
    return "insts";
  }
  return "?";
}

const char *gpuperf::probeAggName(ProbeAgg A) {
  switch (A) {
  case ProbeAgg::Count:
    return "count";
  case ProbeAgg::Sum:
    return "sum";
  case ProbeAgg::Min:
    return "min";
  case ProbeAgg::Max:
    return "max";
  case ProbeAgg::Watch:
    return "watch";
  }
  return "?";
}

namespace {

constexpr uint32_t fieldBit(ProbeField F) {
  return 1u << static_cast<uint32_t>(F);
}

constexpr uint32_t IssueFields =
    fieldBit(ProbeField::PC) | fieldBit(ProbeField::Op) |
    fieldBit(ProbeField::Class) | fieldBit(ProbeField::Lanes) |
    fieldBit(ProbeField::Block) | fieldBit(ProbeField::Warp) |
    fieldBit(ProbeField::Cycle) | fieldBit(ProbeField::Dual);

/// Opcode class names, indexed by OpClass.
constexpr const char *OpClassNames[] = {
    "float_math", "int_math",   "int_mul_math", "move",
    "shared_mem", "global_mem", "control"};
constexpr size_t NumOpClassNames =
    sizeof(OpClassNames) / sizeof(OpClassNames[0]);

} // namespace

uint32_t gpuperf::probeEventFields(ProbeEvent E) {
  switch (E) {
  case ProbeEvent::InstIssued:
    return IssueFields;
  case ProbeEvent::MemAccess:
    return IssueFields | fieldBit(ProbeField::Space) |
           fieldBit(ProbeField::Width) | fieldBit(ProbeField::Bytes) |
           fieldBit(ProbeField::Transactions);
  case ProbeEvent::Replay:
    return fieldBit(ProbeField::PC) | fieldBit(ProbeField::Block) |
           fieldBit(ProbeField::Warp) | fieldBit(ProbeField::Cycle);
  case ProbeEvent::BankConflict:
    return fieldBit(ProbeField::PC) | fieldBit(ProbeField::Block) |
           fieldBit(ProbeField::Warp) | fieldBit(ProbeField::Cycle) |
           fieldBit(ProbeField::Serialization);
  case ProbeEvent::SlotLost:
    return fieldBit(ProbeField::PC) | fieldBit(ProbeField::Cause) |
           fieldBit(ProbeField::Slots) | fieldBit(ProbeField::Cycle);
  case ProbeEvent::BlockScheduled:
  case ProbeEvent::BlockDrained:
    return fieldBit(ProbeField::Block) | fieldBit(ProbeField::Cycle);
  case ProbeEvent::WarpExit:
    return fieldBit(ProbeField::Block) | fieldBit(ProbeField::Warp) |
           fieldBit(ProbeField::Insts) | fieldBit(ProbeField::Cycle);
  }
  return 0;
}

std::string gpuperf::renderProbeKey(ProbeField F, int64_t V) {
  switch (F) {
  case ProbeField::Op:
    if (V >= 0 && V < static_cast<int64_t>(Opcode::NumOpcodes))
      return std::string(opcodeMnemonic(static_cast<Opcode>(V)));
    break;
  case ProbeField::Class:
    if (V >= 0 && V < static_cast<int64_t>(NumOpClassNames))
      return OpClassNames[V];
    break;
  case ProbeField::Cause:
    if (V >= 0 && V < static_cast<int64_t>(NumSlotUses))
      return slotUseName(static_cast<SlotUse>(V));
    break;
  case ProbeField::Space:
    if (V == 0)
      return "shared";
    if (V == 1)
      return "global";
    break;
  case ProbeField::Width:
    return formatString("b%lld", static_cast<long long>(V));
  default:
    break;
  }
  return formatString("%lld", static_cast<long long>(V));
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

struct Token {
  enum Kind : uint8_t {
    Word,   ///< Identifier, number, mnemonic.
    LBrace, ///< {
    RBrace, ///< }
    Sep,    ///< Newline or ';' -- directive separator.
    Cmp,    ///< == != < <= > >=
    Assign, ///< A lone '=' (optional after directive keywords).
    End,    ///< End of input.
  };
  Kind K = End;
  std::string Text;
  int Line = 1;
  int Col = 1;
};

class Lexer {
public:
  Lexer(std::string_view Text, std::string_view File)
      : Text(Text), File(File) {}

  /// Tokenizes the whole input; fails with a positioned diagnostic on a
  /// stray character.
  Expected<std::vector<Token>> run() {
    std::vector<Token> Out;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == ' ' || C == '\t' || C == '\r') {
        advance();
        continue;
      }
      if (C == '#') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          advance();
        continue;
      }
      Token T;
      T.Line = Line;
      T.Col = Col;
      if (C == '\n' || C == ';') {
        T.K = Token::Sep;
        T.Text = C == '\n' ? "newline" : ";";
        advance();
      } else if (C == '{' || C == '}') {
        T.K = C == '{' ? Token::LBrace : Token::RBrace;
        T.Text = C;
        advance();
      } else if (C == '=' || C == '!' || C == '<' || C == '>') {
        advance();
        bool HasEq = Pos < Text.size() && Text[Pos] == '=';
        if (HasEq)
          advance();
        if (C == '!' && !HasEq)
          return fail(T.Line, T.Col, "expected '!=' after '!'");
        if (C == '=' && !HasEq) {
          T.K = Token::Assign;
          T.Text = "=";
        } else {
          T.K = Token::Cmp;
          T.Text = std::string(1, C) + (HasEq ? "=" : "");
        }
      } else if (isWordChar(C)) {
        T.K = Token::Word;
        while (Pos < Text.size() && isWordChar(Text[Pos])) {
          T.Text += Text[Pos];
          advance();
        }
      } else {
        return fail(Line, Col,
                    formatString("unexpected character '%c'", C));
      }
      Out.push_back(std::move(T));
    }
    Token E;
    E.K = Token::End;
    E.Line = Line;
    E.Col = Col;
    Out.push_back(E);
    return Out;
  }

  Expected<std::vector<Token>> fail(int L, int C,
                                    const std::string &Msg) const {
    return Expected<std::vector<Token>>::error(formatString(
        "%.*s:%d:%d: %s", static_cast<int>(File.size()), File.data(), L, C,
        Msg.c_str()));
  }

private:
  static bool isWordChar(char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9') || C == '_' || C == '.' || C == '-' ||
           C == '+' || C == 'x' || C == 'X';
  }

  void advance() {
    if (Text[Pos] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  }

  std::string_view Text;
  std::string_view File;
  size_t Pos = 0;
  int Line = 1;
  int Col = 1;
};

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::string_view File)
      : Tokens(std::move(Tokens)), File(File) {}

  Expected<std::vector<ProbeSpec>> run() {
    std::vector<ProbeSpec> Specs;
    skipSeps();
    while (peek().K != Token::End) {
      auto S = parseProbe();
      if (!S)
        return Expected<std::vector<ProbeSpec>>::error(S.message());
      for (const ProbeSpec &Prev : Specs)
        if (Prev.Name == S->Name)
          return failT<std::vector<ProbeSpec>>(
              NameTok, formatString("duplicate probe name '%s'",
                                    S->Name.c_str()));
      Specs.push_back(S.take());
      skipSeps();
    }
    if (Specs.empty())
      return failT<std::vector<ProbeSpec>>(peek(),
                                           "spec file defines no probes");
    return Specs;
  }

private:
  const Token &peek() const { return Tokens[Pos]; }
  const Token &next() { return Tokens[Pos++]; }
  void skipSeps() {
    while (peek().K == Token::Sep)
      ++Pos;
  }

  template <typename T>
  Expected<T> failT(const Token &At, const std::string &Msg) const {
    return Expected<T>::error(formatString(
        "%.*s:%d:%d: %s", static_cast<int>(File.size()), File.data(),
        At.Line, At.Col, Msg.c_str()));
  }
  Expected<ProbeSpec> fail(const Token &At, const std::string &Msg) const {
    return failT<ProbeSpec>(At, Msg);
  }

  /// Expects a Word token; \p What names it in the diagnostic.
  Expected<Token> expectWord(const char *What) {
    const Token &T = peek();
    if (T.K != Token::Word)
      return failT<Token>(
          T, formatString("expected %s, got '%s'", What,
                          T.K == Token::End ? "end of file"
                                            : T.Text.c_str()));
    return next();
  }

  Expected<ProbeSpec> parseProbe() {
    auto Kw = expectWord("'probe'");
    if (!Kw)
      return Expected<ProbeSpec>::error(Kw.message());
    if (Kw->Text != "probe")
      return fail(*Kw, formatString("expected 'probe', got '%s'",
                                    Kw->Text.c_str()));
    auto Name = expectWord("a probe name");
    if (!Name)
      return Expected<ProbeSpec>::error(Name.message());
    NameTok = *Name;
    // The probes JSON object carries a "version" stamp next to the
    // per-probe entries; a probe by that name would collide with it.
    if (Name->Text == "version")
      return fail(NameTok, "'version' is a reserved probe name");
    skipSeps();
    if (peek().K != Token::LBrace)
      return fail(peek(), "expected '{' after the probe name");
    next();

    ProbeSpec S;
    S.Name = Name->Text;
    bool HaveEvent = false, HaveAgg = false;
    Token EventTok, AggTok, ValueTok, KeyTok;
    std::vector<Token> FilterToks;

    for (;;) {
      skipSeps();
      if (peek().K == Token::RBrace) {
        next();
        break;
      }
      auto Dir = expectWord("a directive or '}'");
      if (!Dir)
        return Expected<ProbeSpec>::error(Dir.message());
      // An optional '=' may follow the directive keyword.
      auto eatAssign = [&]() {
        if (peek().K == Token::Assign)
          next();
      };
      if (Dir->Text == "event") {
        if (HaveEvent)
          return fail(*Dir, "duplicate 'event' directive");
        eatAssign();
        auto V = expectWord("an event name");
        if (!V)
          return Expected<ProbeSpec>::error(V.message());
        bool Found = false;
        for (size_t E = 0; E < NumProbeEvents; ++E)
          if (V->Text == probeEventName(static_cast<ProbeEvent>(E))) {
            S.Event = static_cast<ProbeEvent>(E);
            Found = true;
          }
        if (!Found)
          return fail(*V, formatString("unknown event '%s'",
                                       V->Text.c_str()));
        HaveEvent = true;
        EventTok = *V;
      } else if (Dir->Text == "aggregation") {
        if (HaveAgg)
          return fail(*Dir, "duplicate 'aggregation' directive");
        eatAssign();
        auto V = expectWord("an aggregation name");
        if (!V)
          return Expected<ProbeSpec>::error(V.message());
        bool Found = false;
        for (ProbeAgg A : {ProbeAgg::Count, ProbeAgg::Sum, ProbeAgg::Min,
                           ProbeAgg::Max, ProbeAgg::Watch})
          if (V->Text == probeAggName(A)) {
            S.Agg = A;
            Found = true;
          }
        if (!Found)
          return fail(
              *V, formatString(
                      "unknown aggregation '%s' (count|sum|min|max|watch)",
                      V->Text.c_str()));
        HaveAgg = true;
        AggTok = *V;
      } else if (Dir->Text == "value" || Dir->Text == "key") {
        bool IsValue = Dir->Text == "value";
        if (IsValue ? S.HasValue : S.HasKey)
          return fail(*Dir, formatString("duplicate '%s' directive",
                                         Dir->Text.c_str()));
        eatAssign();
        auto V = expectWord("a field name");
        if (!V)
          return Expected<ProbeSpec>::error(V.message());
        auto F = parseField(*V);
        if (!F)
          return Expected<ProbeSpec>::error(F.message());
        if (IsValue) {
          S.HasValue = true;
          S.Value = *F;
          ValueTok = *V;
        } else {
          S.HasKey = true;
          S.Key = *F;
          KeyTok = *V;
        }
      } else if (Dir->Text == "filter") {
        auto FW = expectWord("a field name");
        if (!FW)
          return Expected<ProbeSpec>::error(FW.message());
        auto F = parseField(*FW);
        if (!F)
          return Expected<ProbeSpec>::error(F.message());
        const Token &OpT = peek();
        if (OpT.K != Token::Cmp)
          return fail(OpT, "expected a comparison (== != < <= > >=)");
        next();
        ProbeCmp Cmp = OpT.Text == "==" ? ProbeCmp::Eq
                       : OpT.Text == "!=" ? ProbeCmp::Ne
                       : OpT.Text == "<"  ? ProbeCmp::Lt
                       : OpT.Text == "<=" ? ProbeCmp::Le
                       : OpT.Text == ">"  ? ProbeCmp::Gt
                                          : ProbeCmp::Ge;
        auto VW = expectWord("a filter value");
        if (!VW)
          return Expected<ProbeSpec>::error(VW.message());
        auto Val = parseFieldValue(*F, *VW);
        if (!Val)
          return Expected<ProbeSpec>::error(Val.message());
        S.Filters.push_back(ProbeFilter{*F, Cmp, *Val});
        FilterToks.push_back(*FW);
      } else {
        return fail(*Dir,
                    formatString("unknown directive '%s' "
                                 "(event|aggregation|value|key|filter)",
                                 Dir->Text.c_str()));
      }
      // Directives are separated by newlines or ';'.
      if (peek().K != Token::Sep && peek().K != Token::RBrace)
        return fail(peek(),
                    formatString("expected ';', newline or '}' after the "
                                 "directive, got '%s'",
                                 peek().Text.c_str()));
    }

    // Block-level validation, pointing at the offending directive.
    if (!HaveEvent)
      return fail(NameTok, formatString("probe '%s' has no 'event' "
                                        "directive",
                                        S.Name.c_str()));
    if (!HaveAgg)
      return fail(NameTok, formatString("probe '%s' has no 'aggregation' "
                                        "directive",
                                        S.Name.c_str()));
    bool NeedsValue = S.Agg == ProbeAgg::Sum || S.Agg == ProbeAgg::Min ||
                      S.Agg == ProbeAgg::Max;
    if (NeedsValue && !S.HasValue)
      return fail(AggTok, formatString("aggregation '%s' requires a "
                                       "'value' directive",
                                       probeAggName(S.Agg)));
    if (!NeedsValue && S.HasValue)
      return fail(ValueTok,
                  formatString("aggregation '%s' does not take a value "
                               "(it aggregates %s)",
                               probeAggName(S.Agg),
                               S.Agg == ProbeAgg::Watch
                                   ? "the earliest matching cycle"
                                   : "event counts"));
    uint32_t Mask = probeEventFields(S.Event);
    auto checkField = [&](ProbeField F,
                          const Token &At) -> Expected<ProbeSpec> {
      if (!(Mask & fieldBit(F)))
        return fail(At, formatString("event '%s' has no field '%s'",
                                     probeEventName(S.Event),
                                     probeFieldName(F)));
      return S;
    };
    if (S.HasValue)
      if (auto C = checkField(S.Value, ValueTok); !C)
        return C;
    if (S.HasKey)
      if (auto C = checkField(S.Key, KeyTok); !C)
        return C;
    for (size_t I = 0; I < S.Filters.size(); ++I)
      if (auto C = checkField(S.Filters[I].Field, FilterToks[I]); !C)
        return C;
    return S;
  }

  Expected<ProbeField> parseField(const Token &T) {
    for (size_t F = 0; F < NumProbeFields; ++F)
      if (T.Text == probeFieldName(static_cast<ProbeField>(F)))
        return static_cast<ProbeField>(F);
    return failT<ProbeField>(
        T, formatString("unknown field '%s'", T.Text.c_str()));
  }

  /// Filter values: a plain integer, or a symbolic name resolved by the
  /// field it compares against.
  Expected<int64_t> parseFieldValue(ProbeField F, const Token &T) {
    switch (F) {
    case ProbeField::Op: {
      Opcode Op = parseOpcodeMnemonic(T.Text);
      if (Op != Opcode::NumOpcodes)
        return static_cast<int64_t>(Op);
      break;
    }
    case ProbeField::Class:
      for (size_t I = 0; I < NumOpClassNames; ++I)
        if (T.Text == OpClassNames[I])
          return static_cast<int64_t>(I);
      break;
    case ProbeField::Space:
      if (T.Text == "shared")
        return 0;
      if (T.Text == "global")
        return 1;
      break;
    case ProbeField::Cause:
      for (size_t I = 0; I < NumSlotUses; ++I)
        if (T.Text == slotUseName(static_cast<SlotUse>(I)))
          return static_cast<int64_t>(I);
      break;
    case ProbeField::Width:
      if (T.Text == "b32")
        return 32;
      if (T.Text == "b64")
        return 64;
      if (T.Text == "b128")
        return 128;
      break;
    default:
      break;
    }
    auto V = parseInteger(T.Text.c_str(), INT64_MIN, INT64_MAX);
    if (!V)
      return failT<int64_t>(
          T, formatString("'%s' is not an integer or a known %s name",
                          T.Text.c_str(), probeFieldName(F)));
    return static_cast<int64_t>(*V);
  }

  std::vector<Token> Tokens;
  std::string_view File;
  size_t Pos = 0;
  Token NameTok; ///< The current probe's name token, for diagnostics.
};

} // namespace

Expected<std::vector<ProbeSpec>>
gpuperf::parseProbeSpecs(std::string_view Text, std::string_view FileName) {
  Lexer L(Text, FileName);
  auto Tokens = L.run();
  if (!Tokens)
    return Expected<std::vector<ProbeSpec>>::error(Tokens.message());
  Parser P(Tokens.take(), FileName);
  return P.run();
}

Expected<std::vector<ProbeSpec>>
gpuperf::loadProbeSpecFile(const std::string &Path) {
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Status::error("probe spec file: " + Bytes.message());
  return parseProbeSpecs(
      std::string_view(reinterpret_cast<const char *>(Bytes->data()),
                       Bytes->size()),
      Path);
}

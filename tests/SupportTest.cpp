//===- tests/SupportTest.cpp - support library unit tests -----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "support/Args.h"
#include "support/Error.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/LittleEndian.h"
#include "support/MathUtils.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace gpuperf;

TEST(Format, Basic) {
  EXPECT_EQ(formatString("x=%d y=%s", 42, "abc"), "x=42 y=abc");
  EXPECT_EQ(formatString("%%"), "%");
  const char *Empty = "";
  EXPECT_EQ(formatString(Empty), "");
}

TEST(Format, LongStrings) {
  std::string Long(1000, 'a');
  EXPECT_EQ(formatString("%s!", Long.c_str()), Long + "!");
}

TEST(Format, Double) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(82.5, 1), "82.5");
}

TEST(Error, StatusSuccessAndFailure) {
  Status Ok = Status::success();
  EXPECT_FALSE(Ok.failed());
  EXPECT_TRUE(static_cast<bool>(Ok));

  Status Bad = Status::error("boom");
  EXPECT_TRUE(Bad.failed());
  EXPECT_EQ(Bad.message(), "boom");
}

TEST(Error, ExpectedValue) {
  Expected<int> E(7);
  ASSERT_TRUE(E.hasValue());
  EXPECT_EQ(*E, 7);
  EXPECT_EQ(E.take(), 7);
}

TEST(Error, ExpectedError) {
  auto E = Expected<int>::error("no luck");
  EXPECT_FALSE(E.hasValue());
  EXPECT_EQ(E.message(), "no luck");
  EXPECT_TRUE(E.takeStatus().failed());
}

TEST(Error, ExpectedMoveOnlyType) {
  auto E = Expected<std::unique_ptr<int>>(std::make_unique<int>(5));
  ASSERT_TRUE(E.hasValue());
  auto P = E.take();
  EXPECT_EQ(*P, 5);
}

TEST(Error, ExpectedTakeErrorMovesMessage) {
  auto E = Expected<int>::error("lengthy diagnostic text");
  std::string Msg = E.takeError();
  EXPECT_EQ(Msg, "lengthy diagnostic text");
}

TEST(Error, ExpectedMapTransformsValue) {
  auto Doubled = Expected<int>(21).map([](int V) { return V * 2; });
  ASSERT_TRUE(Doubled.hasValue());
  EXPECT_EQ(*Doubled, 42);

  // The callback can change the payload type.
  auto Text =
      Expected<int>(7).map([](int V) { return std::to_string(V); });
  ASSERT_TRUE(Text.hasValue());
  EXPECT_EQ(*Text, "7");
}

TEST(Error, ExpectedMapPropagatesError) {
  auto E = Expected<int>::error("upstream parse failure")
               .map([](int V) { return V + 1; });
  ASSERT_FALSE(E.hasValue());
  EXPECT_EQ(E.message(), "upstream parse failure");
}

TEST(Error, ExpectedMapMoveOnlyPayload) {
  // map() must move the payload through the callback, not copy it.
  auto E = Expected<std::unique_ptr<int>>(std::make_unique<int>(9))
               .map([](std::unique_ptr<int> P) { return *P + 1; });
  ASSERT_TRUE(E.hasValue());
  EXPECT_EQ(*E, 10);

  // ...and may also *produce* a move-only payload.
  auto P = Expected<int>(3)
               .map([](int V) { return std::make_unique<int>(V); })
               .take();
  EXPECT_EQ(*P, 3);
}

TEST(MathUtils, DivideCeil) {
  EXPECT_EQ(divideCeil(0, 4), 0u);
  EXPECT_EQ(divideCeil(1, 4), 1u);
  EXPECT_EQ(divideCeil(4, 4), 1u);
  EXPECT_EQ(divideCeil(5, 4), 2u);
}

TEST(MathUtils, AlignTo) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(9, 8), 16u);
}

TEST(MathUtils, IsPowerOf2) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(64));
  EXPECT_FALSE(isPowerOf2(96));
}

TEST(MathUtils, IntSqrt) {
  EXPECT_EQ(intSqrt(0), 0u);
  EXPECT_EQ(intSqrt(1), 1u);
  EXPECT_EQ(intSqrt(96 * 96), 96u);
  EXPECT_EQ(intSqrt(97 * 97 - 1), 96u);
}

TEST(Rng, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, RangesRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.nextInRange(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
    float F = R.nextUnitFloat();
    EXPECT_GE(F, -1.0f);
    EXPECT_LE(F, 1.0f);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Table, RendersAlignedColumns) {
  Table T;
  T.setHeader({"name", "value"});
  T.addRow({"alpha", "1.5"});
  T.addRow({"b", "23.25"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  // Numeric cells right-aligned: "23.25" wider than "1.5".
  EXPECT_NE(Out.find("  1.5"), std::string::npos);
}

TEST(Table, EmptyTable) {
  Table T;
  EXPECT_EQ(T.render(), "");
}

//===----------------------------------------------------------------------===//
// ThreadPool / parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (int Jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> Counts(257);
    parallelFor(Jobs, Counts.size(),
                [&](size_t I) { Counts[I].fetch_add(1); });
    for (size_t I = 0; I < Counts.size(); ++I)
      EXPECT_EQ(Counts[I].load(), 1) << "index " << I << " jobs " << Jobs;
  }
}

TEST(ParallelFor, EmptyAndSingleIteration) {
  int Calls = 0;
  parallelFor(8, 0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  parallelFor(8, 1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1);
}

TEST(ParallelFor, MoreJobsThanWork) {
  std::atomic<int> Sum{0};
  parallelFor(64, 3, [&](size_t I) { Sum.fetch_add(int(I) + 1); });
  EXPECT_EQ(Sum.load(), 6);
}

TEST(ParallelFor, NestedDoesNotDeadlock) {
  // An inner parallelFor on the same (shared) pool must complete even
  // when every worker is already busy with the outer loop: completion is
  // tracked per-iteration and the caller always participates.
  std::atomic<int> Total{0};
  parallelFor(4, 4, [&](size_t) {
    parallelFor(4, 8, [&](size_t) { Total.fetch_add(1); });
  });
  EXPECT_EQ(Total.load(), 32);
}

TEST(ParallelFor, SerialJobsRunOnCallingThread) {
  const auto Caller = std::this_thread::get_id();
  parallelFor(1, 16, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_GE(resolveJobs(0), 1);
  EXPECT_GE(resolveJobs(-3), 1);
  EXPECT_EQ(resolveJobs(1), 1);
  EXPECT_EQ(resolveJobs(7), 7);
}

//===----------------------------------------------------------------------===//
// Args: validating integer flag parsing (the atoi-replacement satellite)
//===----------------------------------------------------------------------===//

TEST(Args, ParseIntegerAcceptsWellFormedValues) {
  EXPECT_EQ(*parseInteger("42", 0, 100), 42);
  EXPECT_EQ(*parseInteger("-7", -10, 10), -7);
  EXPECT_EQ(*parseInteger("0x10", 0, 100), 16); // Base-0: hex works.
  EXPECT_EQ(*parseInteger("0", 0, 0), 0);
  EXPECT_EQ(*parseInteger("  8", 0, 10), 8); // strtol skips blanks.
}

TEST(Args, ParseIntegerRejectsMalformedValues) {
  // Everything atoi silently turned into 0 (or truncated) must fail
  // with a diagnostic instead.
  EXPECT_FALSE(parseInteger("", 0, 100).hasValue());
  EXPECT_FALSE(parseInteger("banana", 0, 100).hasValue());
  EXPECT_FALSE(parseInteger("12abc", 0, 100).hasValue());
  EXPECT_FALSE(parseInteger("4.5", 0, 100).hasValue());
  EXPECT_FALSE(parseInteger("1e3", 0, 10000).hasValue());
  EXPECT_FALSE(parseInteger(" ", 0, 100).hasValue());
}

TEST(Args, ParseIntegerEnforcesRange) {
  EXPECT_FALSE(parseInteger("101", 0, 100).hasValue());
  EXPECT_FALSE(parseInteger("-1", 0, 100).hasValue());
  EXPECT_FALSE(
      parseInteger("99999999999999999999999", 0, 1 << 30).hasValue());
  EXPECT_EQ(*parseInteger("100", 0, 100), 100);
}

TEST(Args, ParseUnsignedRejectsNegativesAndGarbage) {
  EXPECT_EQ(*parseUnsigned("0xffffffff", 0xffffffffull), 0xffffffffull);
  // strtoull happily wraps "-1" to 2^64-1; parseUnsigned must not.
  EXPECT_FALSE(parseUnsigned("-1", 100).hasValue());
  EXPECT_FALSE(parseUnsigned("-0", 100).hasValue());
  EXPECT_FALSE(parseUnsigned("junk", 100).hasValue());
  EXPECT_FALSE(parseUnsigned("4294967296", 0xffffffffull).hasValue());
}

//===----------------------------------------------------------------------===//
// FileIO: the plain output writer
//===----------------------------------------------------------------------===//

TEST(FileIO, WriteTextFileWritesInPlaceAndReportsFailures) {
  std::string Path = ::testing::TempDir() + "gpuperf_write_text.txt";
  ASSERT_FALSE(writeTextFile(Path, "abc\n").failed());
  auto Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  EXPECT_EQ(std::string(Bytes->begin(), Bytes->end()), "abc\n");
  std::remove(Path.c_str());

  // A device is written through, never renamed over.
  ASSERT_FALSE(writeTextFile("/dev/null", "x").failed());
  struct stat St;
  ASSERT_EQ(stat("/dev/null", &St), 0);
  EXPECT_TRUE(S_ISCHR(St.st_mode));

  // Every failure names the path: a missing directory fails to open, a
  // full device (the full-disk case) fails the write or the close.
  std::string Missing = ::testing::TempDir() + "no_such_dir/out.json";
  Status Open = writeTextFile(Missing, "x");
  ASSERT_TRUE(Open.failed());
  EXPECT_NE(Open.message().find(Missing), std::string::npos);
  Status Full = writeTextFile("/dev/full", "x");
  ASSERT_TRUE(Full.failed());
  EXPECT_EQ(Full.message(), "short write to '/dev/full'");
}

TEST(FileIO, ReadFileBytesReportsWhyItCannotRead) {
  // A directory opens but cannot be read: the error names the path and
  // the system's reason instead of throwing.
  std::string Dir = ::testing::TempDir();
  auto FromDir = readFileBytes(Dir);
  ASSERT_FALSE(FromDir.hasValue());
  EXPECT_NE(FromDir.message().find(Dir), std::string::npos)
      << FromDir.message();
  EXPECT_NE(FromDir.message().find("Is a directory"), std::string::npos)
      << FromDir.message();

  std::string Missing = Dir + "gpuperf_no_such_file";
  auto FromMissing = readFileBytes(Missing);
  ASSERT_FALSE(FromMissing.hasValue());
  EXPECT_NE(FromMissing.message().find("No such file or directory"),
            std::string::npos)
      << FromMissing.message();

  // Empty and larger-than-one-buffer files come back whole.
  std::string Path = Dir + "gpuperf_read_bytes.bin";
  ASSERT_FALSE(writeTextFile(Path, "").failed());
  auto Empty = readFileBytes(Path);
  ASSERT_TRUE(Empty.hasValue()) << Empty.message();
  EXPECT_TRUE(Empty->empty());
  std::string Big;
  for (int I = 0; I < 100000; ++I)
    Big += static_cast<char>(I * 7);
  ASSERT_FALSE(writeTextFile(Path, Big).failed());
  auto Whole = readFileBytes(Path);
  ASSERT_TRUE(Whole.hasValue()) << Whole.message();
  EXPECT_EQ(std::string(Whole->begin(), Whole->end()), Big);
  std::remove(Path.c_str());

  // A pipe has no size up front (perfdiff <(...)): the buffer grows.
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  std::string Piped = Big.substr(0, 20000); // Fits the pipe buffer.
  ASSERT_EQ(::write(Fds[1], Piped.data(), Piped.size()),
            static_cast<ssize_t>(Piped.size()));
  ::close(Fds[1]);
  auto FromPipe = readFileBytes("/proc/self/fd/" + std::to_string(Fds[0]));
  ::close(Fds[0]);
  ASSERT_TRUE(FromPipe.hasValue()) << FromPipe.message();
  EXPECT_EQ(std::string(FromPipe->begin(), FromPipe->end()), Piped);
}

//===----------------------------------------------------------------------===//
// LittleEndian: the shared FNV-1a digest
//===----------------------------------------------------------------------===//

TEST(LittleEndian, Fnv1aMatchesReferenceVectorsInByteOrder) {
  Fnv1a Empty, A, Foobar;
  A.bytes("a", 1);
  Foobar.bytes("foobar", 6);
  EXPECT_EQ(Empty.value(), 0xcbf29ce484222325ull);
  EXPECT_EQ(A.value(), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Foobar.value(), 0x85944171f73967e8ull);

  // Integers hash as their little-endian bytes on every host.
  Fnv1a Words, Text;
  Words.u32(0x64636261u);
  Words.u64(0x6867666564636261ull);
  Text.bytes("abcdabcdefgh", 12);
  EXPECT_EQ(Words.value(), Text.value());
}

//===----------------------------------------------------------------------===//
// Json: writer output parses under the strict reader
//===----------------------------------------------------------------------===//

TEST(Json, WriterProducesParsableOutput) {
  JsonWriter W;
  W.beginObject();
  W.kv("name", "bench \"quoted\"\n\t\x01");
  W.kv("count", uint64_t(18446744073709551615ull));
  W.kv("signed", int64_t(-42));
  W.key("ratio");
  W.value(0.5, 3);
  W.kv("flag", true);
  W.key("list");
  W.beginArray();
  W.value(1);
  W.value("two");
  W.beginObject();
  W.kv("nested", false);
  W.endObject();
  W.endArray();
  W.endObject();
  auto V = jsonParse(W.str());
  EXPECT_TRUE(V.hasValue()) << V.message() << "\n" << W.str();
  EXPECT_NE(W.str().find("18446744073709551615"), std::string::npos);
  EXPECT_NE(W.str().find("\\u0001"), std::string::npos);
  EXPECT_NE(W.str().find("0.500"), std::string::npos);
}

TEST(Json, RawValueTakesCommasLikeAnyValue) {
  // First array element, between values, right after key(), and inside
  // nested containers: rawValue separates exactly as value() does.
  JsonWriter W;
  W.beginArray();
  W.rawValue("{\"a\":1}");
  W.rawValue("2");
  W.value(3);
  W.rawValue("[4,5]");
  W.beginObject();
  W.key("k");
  W.rawValue("\"v\"");
  W.kv("n", 6);
  W.key("raw");
  W.rawValue("null");
  W.key("inner");
  W.beginArray();
  W.rawValue("true");
  W.beginArray();
  W.rawValue("{}");
  W.endArray();
  W.rawValue("7");
  W.endArray();
  W.endObject();
  W.rawValue("8");
  W.endArray();
  EXPECT_EQ(W.str(), "[{\"a\":1},2,3,[4,5],{\"k\":\"v\",\"n\":6,"
                     "\"raw\":null,\"inner\":[true,[{}],7]},8]");
  auto V = jsonParse(W.str());
  ASSERT_TRUE(V.hasValue()) << V.message();
  ASSERT_EQ(V->Items.size(), 6u);
  EXPECT_EQ(V->Items[4].find("inner")->Items.size(), 3u);
}

TEST(Json, RawValueAloneIsTheDocument) {
  JsonWriter W;
  W.reserve(64);
  W.rawValue("{\"x\":[1,2]}");
  EXPECT_EQ(W.str(), "{\"x\":[1,2]}");
  EXPECT_TRUE(jsonParse(W.str()).hasValue());
}

TEST(Json, WriterEmitsNullForNonFiniteDoubles) {
  JsonWriter W;
  W.beginObject();
  W.kv("inf", 1.0 / 0.0);
  W.kv("nan", 0.0 / 0.0);
  W.endObject();
  EXPECT_EQ(W.str(), "{\"inf\":null,\"nan\":null}");
  EXPECT_TRUE(jsonParse(W.str()).hasValue());
}

TEST(Json, ParseAcceptsWellFormedDocuments) {
  for (const char *Good :
       {"{}", "[]", "null", "true", "-0.5e10", "\"\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u00e9\\\\\"}",
        "  [ 1 , 2 ]  ", "\"\\n\\t\\\"\""}) {
    auto V = jsonParse(Good);
    EXPECT_TRUE(V.hasValue()) << Good << ": " << V.message();
  }
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const char *Bad :
       {"", "{", "}", "{]", "[1,]", "{\"a\":}", "{\"a\" 1}", "01",
        "1.2.3", "+1", "nul", "truex", "\"unterminated", "\"bad\\q\"",
        "\"\\u12g4\"", "{} trailing", "[1] 2", "{\"a\":1,}",
        "{'a':1}", "\"tab\tliteral\"",
        // Lone surrogates: each must be half of a high-low pair.
        "\"\\ud800\"", "\"\\udc00\"", "\"\\ud83dx\"", "\"\\ud83dA\""}) {
    auto V = jsonParse(Bad);
    if (V.hasValue()) {
      ADD_FAILURE() << "accepted " << Bad;
      continue;
    }
    EXPECT_FALSE(V.message().empty()) << Bad;
  }
}

TEST(Json, ParseRejectsRunawayNesting) {
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(jsonParse(Deep).hasValue()) << "depth cap must fire";
  std::string Shallow = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_TRUE(jsonParse(Shallow).hasValue());
}

TEST(Json, WriterEscapesEveryControlCharacter) {
  // All 32 control bytes must leave the writer escaped, and the result
  // must survive the strict reader: a raw 0x00..0x1f in a string is
  // exactly the corruption the metrics pipeline must never emit.
  for (int C = 0; C < 0x20; ++C) {
    JsonWriter W;
    std::string S = "a";
    S.push_back(static_cast<char>(C));
    S += "b";
    W.beginObject();
    W.kv("k", S);
    W.endObject();
    auto V = jsonParse(W.str());
    EXPECT_TRUE(V.hasValue())
        << "control 0x" << std::hex << C << ": " << V.message();
    EXPECT_EQ(W.str().find(static_cast<char>(C)), std::string::npos)
        << "raw control byte 0x" << std::hex << C << " leaked";
  }
}

/// The writer's bytes for one string value.
static std::string jsonString(std::string_view S) {
  JsonWriter W;
  W.value(S);
  return W.take();
}

TEST(Json, WriterControlEscapesAreExact) {
  // \n, \r and \t take their short forms; every other control byte is
  // \u00xx with lowercase hex (so \b and \f are \u0008 and \u000c).
  for (int C = 0; C < 0x20; ++C) {
    std::string Want;
    if (C == '\n')
      Want = "\\n";
    else if (C == '\r')
      Want = "\\r";
    else if (C == '\t')
      Want = "\\t";
    else
      Want = formatString("\\u%04x", C);
    EXPECT_EQ(jsonString(std::string(1, static_cast<char>(C))),
              "\"" + Want + "\"")
        << "control 0x" << std::hex << C;
  }
  EXPECT_EQ(jsonString(std::string("\0\b\f\x1f", 4)),
            R"("\u0000\u0008\u000c\u001f")");
  EXPECT_EQ(jsonString("\x1b[0m"), R"("\u001b[0m")");
  EXPECT_EQ(jsonString("a\x7f\xc3\xa9"), "\"a\x7f\xc3\xa9\"");
}

TEST(Json, WriterEscapesAtRunBoundaries) {
  // Escapes at the start, middle and end of a run of plain bytes, back
  // to back, and alone.
  EXPECT_EQ(jsonString(""), R"("")");
  EXPECT_EQ(jsonString(R"(")"), R"("\"")");
  EXPECT_EQ(jsonString(R"(\)"), R"("\\")");
  EXPECT_EQ(jsonString(R"("ab)"), R"("\"ab")");
  EXPECT_EQ(jsonString(R"(a"b)"), R"("a\"b")");
  EXPECT_EQ(jsonString(R"(ab")"), R"("ab\"")");
  EXPECT_EQ(jsonString(R"(\ab)"), R"("\\ab")");
  EXPECT_EQ(jsonString(R"(a\b)"), R"("a\\b")");
  EXPECT_EQ(jsonString(R"(ab\)"), R"("ab\\")");
  EXPECT_EQ(jsonString(R"("\"\)"), R"("\"\\\"\\")");
  EXPECT_EQ(jsonString("plain"), R"("plain")");
}

TEST(Json, WriterIntegerBytesMatchPrintf) {
  auto Printed = [](const char *Fmt, auto V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), Fmt, V);
    return std::string(Buf);
  };
  auto Signed = [](int64_t V) {
    JsonWriter W;
    W.value(V);
    return W.take();
  };
  auto Unsigned = [](uint64_t V) {
    JsonWriter W;
    W.value(V);
    return W.take();
  };
  for (int64_t V : {int64_t(0), int64_t(-1), int64_t(7), int64_t(-10),
                    INT64_MIN, INT64_MAX})
    EXPECT_EQ(Signed(V), Printed("%lld", static_cast<long long>(V)));
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(10),
                     uint64_t(INT64_MAX) + 1, UINT64_MAX})
    EXPECT_EQ(Unsigned(V),
              Printed("%llu", static_cast<unsigned long long>(V)));
  // The int and unsigned overloads, inside an array.
  JsonWriter W;
  W.beginArray();
  W.value(-2147483647 - 1);
  W.value(4294967295u);
  W.endArray();
  EXPECT_EQ(W.str(), "[-2147483648,4294967295]");
}

TEST(Json, WriterRoundTripsEveryAsciiByte) {
  // jsonParse(JsonWriter output) gives back each byte 0x00..0x7f, alone
  // and all in one string.
  std::string All;
  for (int C = 0; C < 0x80; ++C) {
    std::string One(1, static_cast<char>(C));
    All += One;
    auto V = jsonParse(jsonString(One));
    ASSERT_TRUE(V.hasValue()) << "byte 0x" << std::hex << C << ": "
                              << V.message();
    ASSERT_TRUE(V->isString());
    EXPECT_EQ(V->Str, One) << "byte 0x" << std::hex << C;
  }
  auto V = jsonParse(jsonString(All));
  ASSERT_TRUE(V.hasValue()) << V.message();
  EXPECT_EQ(V->Str, All);
}

TEST(Json, WriterEscapesQuoteAndBackslash) {
  JsonWriter W;
  W.beginObject();
  W.kv("path", "C:\\dir\\\"name\"");
  W.endObject();
  EXPECT_EQ(W.str(), "{\"path\":\"C:\\\\dir\\\\\\\"name\\\"\"}");
  EXPECT_TRUE(jsonParse(W.str()).hasValue());
}

TEST(Json, WriterPassesNonAsciiThrough) {
  // UTF-8 above 0x7f needs no escaping; the bytes must arrive intact.
  JsonWriter W;
  W.beginObject();
  W.kv("name", "caf\xc3\xa9 \xe6\xbc\xa2\xe5\xad\x97");
  W.endObject();
  auto V = jsonParse(W.str());
  EXPECT_TRUE(V.hasValue()) << V.message();
  EXPECT_NE(W.str().find("caf\xc3\xa9"), std::string::npos);
  EXPECT_NE(W.str().find("\xe6\xbc\xa2\xe5\xad\x97"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Json: the parsing side (jsonParse) round-trips what the writer emits
//===----------------------------------------------------------------------===//

TEST(Json, ParseDecodesWriterEscapes) {
  // Writer -> parser round-trip of a hostile string: every byte must
  // come back exactly, including embedded controls and non-ASCII.
  std::string Hostile = "quote\" back\\slash\nnul";
  Hostile.push_back('\0');
  Hostile += "\x01\x1f caf\xc3\xa9";
  JsonWriter W;
  W.beginObject();
  W.kv("s", Hostile);
  W.endObject();
  auto V = jsonParse(W.str());
  ASSERT_TRUE(V.hasValue()) << V.message();
  const JsonValue *S = V->find("s");
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->isString());
  EXPECT_EQ(S->Str, Hostile);
}

TEST(Json, ParseBuildsStructuredTree) {
  auto V = jsonParse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"x\"}");
  ASSERT_TRUE(V.hasValue()) << V.message();
  ASSERT_TRUE(V->isObject());
  const JsonValue *A = V->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->Items.size(), 3u);
  EXPECT_EQ(A->Items[0].Number, 1.0);
  EXPECT_EQ(A->Items[1].Number, 2.5);
  EXPECT_EQ(A->Items[2].Number, -300.0);
  const JsonValue *B = V->find("b");
  ASSERT_NE(B, nullptr);
  ASSERT_NE(B->find("c"), nullptr);
  EXPECT_TRUE(B->find("c")->Bool);
  ASSERT_NE(B->find("d"), nullptr);
  EXPECT_TRUE(B->find("d")->isNull());
  EXPECT_EQ(V->find("missing"), nullptr);
}

TEST(Json, ParseDecodesUnicodeEscapes) {
  // BMP escape, and a surrogate pair for U+1F600 -> 4-byte UTF-8.
  auto V = jsonParse("\"\\u00e9\\u6f22\\ud83d\\ude00\"");
  ASSERT_TRUE(V.hasValue()) << V.message();
  EXPECT_EQ(V->Str, "\xc3\xa9\xe6\xbc\xa2\xf0\x9f\x98\x80");
  // A lone high surrogate is not a valid escape.
  EXPECT_FALSE(jsonParse("\"\\ud83d\"").hasValue());
  EXPECT_FALSE(jsonParse("\"\\ud83dx\"").hasValue());
}

TEST(Json, ParseRoundTripsIntegerCounters) {
  // 2^53 is the largest counter the double representation holds
  // exactly -- the bench records stay far below it.
  auto V = jsonParse("{\"n\": 9007199254740992}");
  ASSERT_TRUE(V.hasValue()) << V.message();
  EXPECT_EQ(static_cast<uint64_t>(V->find("n")->Number),
            9007199254740992ull);
}

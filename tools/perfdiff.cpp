//===- tools/perfdiff.cpp - perf-record comparison gate ---------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Compares two metrics records (bench --json or profile records), or a
// directory of current records against a directory of committed
// baselines, and exits non-zero when any compared value moved at all.
// This is the regression gate behind run_benches.sh --check and the CI
// bench smoke.
//
//   perfdiff baseline.json current.json [--require NAME]... [--ignore KEY]...
//   perfdiff --baselines DIR --current DIR [options]
//
// Records are refused (exit 2) rather than diffed when they are not
// comparable: unreadable/invalid JSON, differing schema_version, or
// differing simulated machine sets -- a number that moved because the
// schema or the machine changed is not a regression signal.
//
// Volatile host-dependent keys (wall_seconds, sim_cycles_per_sec,
// jobs) are never compared. Everything else must match exactly --
// numbers, strings and booleans by value, containers in shape -- because
// the simulator is deterministic.
//
// Exit codes: 0 records match, 1 regression/difference, 2 usage or
// refusal or I/O error.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

using namespace gpuperf;

static int usage() {
  std::fprintf(
      stderr,
      "usage: perfdiff baseline.json current.json [options]\n"
      "       perfdiff --baselines DIR --current DIR [options]\n"
      "\n"
      "  --require NAME            fail (exit 1) unless the current\n"
      "                            record has the field NAME, given as a\n"
      "                            dotted path ('probes.gmem_bytes');\n"
      "                            repeatable -- guards against a gated\n"
      "                            object silently vanishing from new\n"
      "                            records\n"
      "  --ignore NAME             skip the object key NAME entirely\n"
      "                            (repeatable); for fields that\n"
      "                            legitimately differ between the runs\n"
      "                            under comparison, e.g. sim_cycles\n"
      "                            when diffing a resumed sweep against\n"
      "                            an uninterrupted one\n"
      "\n"
      "Records with different schema_version or machine fields are\n"
      "refused, not diffed. The keys wall_seconds, sim_cycles_per_sec\n"
      "and jobs are never compared.\n"
      "\n"
      "exit codes: 0 match, 1 regression, 2 usage/refusal/IO\n");
  return 2;
}

namespace {

struct DiffOptions {
  std::set<std::string> Ignored;      ///< Extra keys from --ignore.
  std::vector<std::string> Require;   ///< Dotted paths from --require.

  /// Host-dependent keys that legitimately differ between runs, plus
  /// whatever the caller asked to skip.
  bool ignoredKey(const std::string &Key) const {
    return Key == "wall_seconds" || Key == "sim_cycles_per_sec" ||
           Key == "jobs" || Ignored.count(Key) != 0;
  }
};

const char *kindName(JsonValue::Kind K) {
  switch (K) {
  case JsonValue::Kind::Null:
    return "null";
  case JsonValue::Kind::Bool:
    return "bool";
  case JsonValue::Kind::Number:
    return "number";
  case JsonValue::Kind::String:
    return "string";
  case JsonValue::Kind::Array:
    return "array";
  case JsonValue::Kind::Object:
    return "object";
  }
  return "?";
}

/// Recursively compares \p B (baseline) against \p C (current),
/// appending one line per difference.
void diffValue(const JsonValue &B, const JsonValue &C,
               const std::string &Path, const DiffOptions &O,
               std::vector<std::string> &Out) {
  if (B.K != C.K) {
    Out.push_back(formatString("%s: kind changed (%s -> %s)",
                               Path.c_str(), kindName(B.K),
                               kindName(C.K)));
    return;
  }
  switch (B.K) {
  case JsonValue::Kind::Null:
    return;
  case JsonValue::Kind::Bool:
    if (B.Bool != C.Bool)
      Out.push_back(formatString("%s: %s -> %s", Path.c_str(),
                                 B.Bool ? "true" : "false",
                                 C.Bool ? "true" : "false"));
    return;
  case JsonValue::Kind::Number: {
    if (B.Number == C.Number)
      return;
    // Relative to the larger magnitude, so the figure is symmetric in
    // its arguments.
    double Scale = std::max(std::fabs(B.Number), std::fabs(C.Number));
    Out.push_back(formatString("%s: %.6g -> %.6g (%+.2f%%)", Path.c_str(),
                               B.Number, C.Number,
                               100.0 * (C.Number - B.Number) / Scale));
    return;
  }
  case JsonValue::Kind::String:
    if (B.Str != C.Str)
      Out.push_back(formatString("%s: \"%s\" -> \"%s\"", Path.c_str(),
                                 B.Str.c_str(), C.Str.c_str()));
    return;
  case JsonValue::Kind::Array: {
    if (B.Items.size() != C.Items.size()) {
      Out.push_back(formatString("%s: length changed (%zu -> %zu)",
                                 Path.c_str(), B.Items.size(),
                                 C.Items.size()));
      return;
    }
    for (size_t I = 0; I < B.Items.size(); ++I)
      diffValue(B.Items[I], C.Items[I],
                formatString("%s[%zu]", Path.c_str(), I), O, Out);
    return;
  }
  case JsonValue::Kind::Object: {
    for (const auto &[Key, BV] : B.Members) {
      if (O.ignoredKey(Key))
        continue;
      std::string Sub = Path.empty() ? Key : Path + "." + Key;
      const JsonValue *CV = C.find(Key);
      if (!CV) {
        Out.push_back(formatString("%s: missing from current record",
                                   Sub.c_str()));
        continue;
      }
      diffValue(BV, *CV, Sub, O, Out);
    }
    for (const auto &[Key, CV] : C.Members) {
      (void)CV;
      if (!O.ignoredKey(Key) && !B.find(Key))
        Out.push_back(formatString(
            "%s%s%s: not present in baseline", Path.c_str(),
            Path.empty() ? "" : ".", Key.c_str()));
    }
    return;
  }
  }
}

Expected<JsonValue> loadRecord(const std::string &Path) {
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeStatus();
  auto V = jsonParse(std::string_view(
      reinterpret_cast<const char *>(Bytes->data()), Bytes->size()));
  if (!V)
    return Status::error("'" + Path + "': " + V.message());
  return V;
}

/// The record's simulated machine identity: the "machine" string or
/// the sorted "machines" list, rendered one-per-token for comparison.
std::string machineKey(const JsonValue &V) {
  if (const JsonValue *M = V.find("machine"); M && M->isString())
    return M->Str;
  if (const JsonValue *Ms = V.find("machines"); Ms && Ms->isArray()) {
    std::vector<std::string> Names;
    for (const JsonValue &E : Ms->Items)
      if (E.isString())
        Names.push_back(E.Str);
    std::sort(Names.begin(), Names.end());
    std::string Out;
    for (const std::string &N : Names)
      Out += N + ";";
    return Out;
  }
  return "";
}

/// Refusal checks: both records must carry the same schema_version and
/// the same machine identity. Returns a message when not comparable.
std::string refusalReason(const JsonValue &B, const JsonValue &C) {
  const JsonValue *BS = B.find("schema_version");
  const JsonValue *CS = C.find("schema_version");
  if (!BS || !BS->isNumber())
    return "baseline has no schema_version";
  if (!CS || !CS->isNumber())
    return "current record has no schema_version";
  if (BS->Number != CS->Number)
    return formatString("schema_version mismatch (%.0f vs %.0f)",
                        BS->Number, CS->Number);
  std::string BM = machineKey(B), CM = machineKey(C);
  if (BM != CM)
    return formatString("machine mismatch ('%s' vs '%s')", BM.c_str(),
                        CM.c_str());
  return "";
}

/// Diffs one baseline/current file pair. Returns 0/1/2 like main.
int diffFiles(const std::string &Baseline, const std::string &Current,
              const DiffOptions &O) {
  auto B = loadRecord(Baseline);
  if (!B) {
    std::fprintf(stderr, "perfdiff: %s\n", B.message().c_str());
    return 2;
  }
  auto C = loadRecord(Current);
  if (!C) {
    std::fprintf(stderr, "perfdiff: %s\n", C.message().c_str());
    return 2;
  }
  if (std::string Why = refusalReason(*B, *C); !Why.empty()) {
    std::fprintf(stderr, "perfdiff: refusing to compare %s vs %s: %s\n",
                 Baseline.c_str(), Current.c_str(), Why.c_str());
    return 2;
  }
  std::vector<std::string> Diffs;
  // --require guards fields the baseline may predate: a missing
  // baseline key is only reported as informational drift, so without
  // this an object could vanish from new records and the gate would
  // still pass once the baseline was regenerated without it.
  for (const std::string &Name : O.Require) {
    const JsonValue *V = &*C;
    size_t Pos = 0;
    while (V) {
      size_t Dot = Name.find('.', Pos);
      std::string Part = Name.substr(
          Pos, Dot == std::string::npos ? std::string::npos : Dot - Pos);
      V = V->isObject() ? V->find(Part) : nullptr;
      if (Dot == std::string::npos)
        break;
      Pos = Dot + 1;
    }
    if (!V)
      Diffs.push_back(formatString(
          "%s: required (--require) but missing from current record",
          Name.c_str()));
  }
  diffValue(*B, *C, "", O, Diffs);
  if (Diffs.empty()) {
    std::printf("perfdiff: %s vs %s: ok\n", Baseline.c_str(),
                Current.c_str());
    return 0;
  }
  std::printf("perfdiff: %s vs %s: %zu regression%s\n", Baseline.c_str(),
              Current.c_str(), Diffs.size(),
              Diffs.size() == 1 ? "" : "s");
  for (const std::string &D : Diffs)
    std::printf("  %s\n", D.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Files;
  std::string BaselineDir, CurrentDir;
  DiffOptions Opts;

  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--require") == 0 && I + 1 < Argc) {
      std::string Name = Argv[++I];
      if (Name.empty()) {
        std::fprintf(stderr, "perfdiff: --require: empty field name\n");
        return 2;
      }
      Opts.Require.push_back(Name);
    } else if (std::strcmp(Argv[I], "--ignore") == 0 && I + 1 < Argc) {
      std::string Name = Argv[++I];
      if (Name.empty()) {
        std::fprintf(stderr, "perfdiff: --ignore: empty key name\n");
        return 2;
      }
      Opts.Ignored.insert(Name);
    } else if (std::strcmp(Argv[I], "--baselines") == 0 && I + 1 < Argc) {
      BaselineDir = Argv[++I];
    } else if (std::strcmp(Argv[I], "--current") == 0 && I + 1 < Argc) {
      CurrentDir = Argv[++I];
    } else if (Argv[I][0] == '-') {
      return usage();
    } else {
      Files.push_back(Argv[I]);
    }
  }

  // Two-file mode.
  if (BaselineDir.empty() && CurrentDir.empty()) {
    if (Files.size() != 2)
      return usage();
    return diffFiles(Files[0], Files[1], Opts);
  }

  // Directory mode: every baseline record must have a current
  // counterpart with the same file name.
  if (BaselineDir.empty() || CurrentDir.empty() || !Files.empty())
    return usage();
  std::error_code EC;
  std::vector<std::string> Names;
  for (const auto &Entry :
       std::filesystem::directory_iterator(BaselineDir, EC)) {
    if (Entry.path().extension() == ".json")
      Names.push_back(Entry.path().filename().string());
  }
  if (EC) {
    std::fprintf(stderr, "perfdiff: cannot list '%s': %s\n",
                 BaselineDir.c_str(), EC.message().c_str());
    return 2;
  }
  if (Names.empty()) {
    std::fprintf(stderr, "perfdiff: no .json baselines in '%s'\n",
                 BaselineDir.c_str());
    return 2;
  }
  std::sort(Names.begin(), Names.end());
  int Exit = 0;
  for (const std::string &Name : Names) {
    std::string Current =
        (std::filesystem::path(CurrentDir) / Name).string();
    if (!std::filesystem::exists(Current)) {
      std::fprintf(stderr,
                   "perfdiff: baseline %s has no current record %s\n",
                   Name.c_str(), Current.c_str());
      Exit = std::max(Exit, 2);
      continue;
    }
    int RC = diffFiles(
        (std::filesystem::path(BaselineDir) / Name).string(), Current,
        Opts);
    Exit = std::max(Exit, RC);
  }
  return Exit;
}

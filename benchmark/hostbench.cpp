//===- benchmark/hostbench.cpp - host-performance benchmark driver --------===//
//
// Part of the gpuperf host-performance benchmark.
//
// Runs one workload for a time budget and prints its metrics, or compares
// two directories of run records:
//
//   hostbench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//             [--out FILE] [--trace-out FILE]
//   hostbench --compare DIR_A DIR_B
//   hostbench --list
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,
//    "unit":..},..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Everything else goes to standard error. See README.md.
//
// Exit codes: 0 ok (including failed operations, which the JSON reports),
// 1 set-up failure or (--compare) a regression, 2 usage.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Workloads.h"

#include "sim/SMSimulator.h"
#include "support/Args.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace hostbench;
namespace fs = std::filesystem;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
  bool HigherIsBetter;
  double Bound; ///< Allowed worsening of the median (end-to-end only).
  /// Compared on medians alone, however wide its spread: set-up is the
  /// shortest and noisiest measurement, but work moved into it must
  /// still show.
  bool SpreadExempt = false;
};

/// The end-to-end metrics, mirrored in BENCHMARK.json (fail_rate is not
/// there: the driver reads the attempted/failed counts directly).
const MetricDef EndToEnd[] = {
    {"wall_s", "s", false, 0.24},
    {"setup_s", "s", false, 0.25, /*SpreadExempt=*/true},
    {"cpu_s", "s", false, 0.24},
    {"sim_cycles_per_s", "1/s", true, 0.24},
    {"peak_rss_mb", "MB", false, 0.20},
};
const MetricDef FailRate = {"fail_rate", "ratio", false, 0.0};
/// Records only: the pass time before normalization, and the machine's
/// median speed relative to ReferenceSeconds during the run.
const MetricDef RawWall = {"raw_wall_s", "s", false, 0.0};
const MetricDef MachineSpeed = {"machine_speed", "ratio", true, 0.0};

/// The per-layer metrics of the traced run, mirrored in BENCHMARK.json.
/// Layers a workload does not call read 0.
const MetricDef PerLayer[] = {
    {"sim.launch_s", "s", false, 0},
    {"sim.share", "ratio", false, 0},
    {"sim.ns_per_sm_cycle", "ns", false, 0},
    {"sim.ns_per_warp_inst", "ns", false, 0},
    {"sim.warp_insts_per_cycle", "inst/cycle", true, 0},
    {"sim.sm_cycles", "count", false, 0},
    {"sim.cpu_util", "ratio", true, 0},
    {"kernelgen.generate_s", "s", false, 0},
    {"kernelgen.share", "ratio", false, 0},
    {"sgemm.upload_s", "s", false, 0},
    {"sgemm.reference_s", "s", false, 0},
    {"sgemm.verify_s", "s", false, 0},
    {"ubench.generate_s", "s", false, 0},
    {"ubench.measure_s", "s", false, 0},
    {"perfdb.open_s", "s", false, 0},
    {"perfdb.close_s", "s", false, 0},
    {"perfdb.hit_us", "us", false, 0},
    {"perfdb.hit_ratio", "ratio", true, 0},
    {"perfdb.misses", "count", false, 0},
    {"perfdb.append_ms", "ms", false, 0},
    {"sweep.overhead_s", "s", false, 0},
    {"model.analyze_s", "s", false, 0},
    {"trace.overhead", "ratio", false, 0},
    {"profile.overhead", "ratio", false, 0},
    {"probe.overhead", "ratio", false, 0},
    {"observe.overhead", "ratio", false, 0},
    {"trace.events", "count", false, 0},
    {"analysis.report_s", "s", false, 0},
    {"bench.trace_overhead", "ratio", false, 0},
    {"bench.unattributed_share", "ratio", false, 0},
};

/// Set-up is measured this many times per run, each in a fresh process.
constexpr int SetupSamples = 5;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// What the reference work takes when nothing else slows the machine
/// (the fast end of its distribution on the hardware README.md names).
/// It only sets the scale of normalized times.
constexpr double ReferenceSeconds = 0.0125;

volatile uint64_t ReferenceSink;

/// Times one execution of the benchmark's own reference work: sorting
/// and indexing pseudo-random keys. It is branchy, allocating,
/// cache-sensitive code like the simulator's, so when other tenants of a
/// shared machine slow the simulator they slow it in proportion, and
/// dividing by it removes that drift (README.md has the measurements).
/// It never calls the library: no change to the program moves it.
double referenceSeconds() {
  static std::vector<uint32_t> Keys(1 << 17);
  auto T0 = Clock::now();
  uint32_t X = 7;
  for (uint32_t &K : Keys) {
    X = X * 1664525u + 1013904223u;
    K = X;
  }
  std::sort(Keys.begin(), Keys.end());
  std::map<uint32_t, uint32_t> Index;
  for (uint32_t I = 0; I < 20000; ++I)
    Index[Keys[(I * 7919u) & 0x1ffff]] = I;
  uint64_t Sum = 0;
  for (uint32_t I = 0; I < 20000; ++I) {
    auto It = Index.find(Keys[(I * 104729u) & 0x1ffff]);
    Sum += It == Index.end() ? 0 : It->second;
  }
  ReferenceSink = Sum;
  return secondsSince(T0);
}

/// Factor that converts a time measured between two reference runs into
/// seconds at the reference speed.
double speedFactor(double RefBefore, double RefAfter) {
  return ReferenceSeconds / ((RefBefore + RefAfter) / 2);
}

[[noreturn]] void usage(const char *Why) {
  if (Why)
    std::fprintf(stderr, "hostbench: %s\n", Why);
  std::fprintf(stderr,
               "usage: hostbench --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1]\n"
               "                 [--out FILE] [--trace-out FILE]\n"
               "       hostbench --compare DIR_A DIR_B\n"
               "       hostbench --list\n"
               "workloads:");
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string selfExe() {
  std::error_code EC;
  return fs::read_symlink("/proc/self/exe", EC).string();
}

/// Runs this executable with \p Args in a child process and returns its
/// wall time from spawn to exit, or a negative value when it fails.
double timeChild(const std::vector<std::string> &Args) {
  std::string Exe = selfExe();
  std::vector<char *> Argv = {Exe.data()};
  std::vector<std::string> Copy = Args;
  for (std::string &A : Copy)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  auto T0 = Clock::now();
  pid_t Pid;
  if (posix_spawn(&Pid, Exe.c_str(), nullptr, nullptr, Argv.data(),
                  environ) != 0)
    return -1;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return -1;
  double Seconds = secondsSince(T0);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? Seconds : -1;
}

/// Every execution of one operation of the pass.
struct OpRecord {
  std::string Name;
  std::vector<double> Wall, Cpu; ///< Normalized to ReferenceSeconds.
  std::vector<double> RawWall, Speed;
  uint64_t SimCycles = 0; ///< Of the first execution (all are equal).
  uint64_t Digest = 0;    ///< Of the first execution.
  bool Stable = true;     ///< Every execution reproduced Digest.
  uint64_t Attempted = 0, Failed = 0; ///< Over all executions.
  std::string FirstError;
  std::map<std::string, double> Counters; ///< Summed over executions.

  double reps() const { return static_cast<double>(Wall.size()); }
};

using MetricValues = std::vector<std::pair<const MetricDef *, double>>;

std::string metricsJson(const MetricValues &Values) {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I < Values.size(); ++I) {
    double V = std::isfinite(Values[I].second) ? Values[I].second : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ",\"" : "\"") + std::string(Values[I].first->Name) +
           "\":{\"value\":" + Buf + ",\"unit\":\"" +
           Values[I].first->Unit + "\"}";
  }
  return Out + "}";
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::error_code EC;
  if (fs::path(Path).has_parent_path())
    fs::create_directories(fs::path(Path).parent_path(), EC);
  std::ofstream F(Path, std::ios::binary);
  F << Text;
  F.close();
  if (!F)
    std::fprintf(stderr, "hostbench: cannot write '%s'\n", Path.c_str());
  return static_cast<bool>(F);
}

/// Per-layer metrics from the traced run's spans and counters. A layer's
/// time per pass is, for each operation, its self time (normalized like
/// the operation's wall time) averaged over the operation's executions,
/// summed over the pass.
MetricValues perLayerMetrics(const std::vector<OpRecord> &Ops,
                             const SpanRecorder &Spans,
                             const std::map<int, double> &ExecSpeed,
                             const std::map<std::string, double> &Calib,
                             double SpanCostNs) {
  std::map<std::string, size_t> OpIndex;
  for (size_t K = 0; K < Ops.size(); ++K)
    OpIndex[Ops[K].Name] = K;
  const std::vector<Span> &S = Spans.spans();
  std::vector<int64_t> Self = selfTimes(S);
  std::map<int, size_t> OpOfExec;
  std::vector<std::map<std::string, double>> LayerNs(Ops.size());
  std::vector<double> RootNs(Ops.size()), RootSelfNs(Ops.size());
  double TimedSpans = 0, TimedRootNs = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I].Calibration)
      continue;
    if (S[I].Parent < 0)
      OpOfExec[S[I].Op] = OpIndex.at(S[I].Name);
    size_t K = OpOfExec.at(S[I].Op);
    double Speed = ExecSpeed.at(S[I].Op);
    ++TimedSpans;
    if (S[I].Parent < 0) {
      RootNs[K] += S[I].durationNs() * Speed;
      RootSelfNs[K] += Self[I] * Speed;
      TimedRootNs += S[I].durationNs();
    } else {
      LayerNs[K][S[I].Name] += Self[I] * Speed;
    }
  }
  double PassNs = 0, UnattributedNs = 0;
  for (size_t K = 0; K < Ops.size(); ++K) {
    PassNs += RootNs[K] / Ops[K].reps();
    UnattributedNs += RootSelfNs[K] / Ops[K].reps();
  }
  auto Layer = [&](const char *Name) {
    double Ns = 0;
    for (size_t K = 0; K < Ops.size(); ++K)
      if (auto It = LayerNs[K].find(Name); It != LayerNs[K].end())
        Ns += It->second / Ops[K].reps();
    return Ns;
  };
  auto Count = [&](const char *Name) {
    double N = 0;
    for (const OpRecord &Op : Ops)
      if (auto It = Op.Counters.find(Name); It != Op.Counters.end())
        N += It->second / Op.reps();
    return N;
  };
  auto Ratio = [](double A, double B) { return B != 0 ? A / B : 0.0; };
  auto Cal = [&](const char *Name) {
    auto It = Calib.find(Name);
    return It == Calib.end() ? 0.0 : It->second;
  };

  std::map<std::string, double> V = {
      {"sim.launch_s", Layer("sim.launch") / 1e9},
      {"sim.share", Ratio(Layer("sim.launch"), PassNs)},
      {"sim.ns_per_sm_cycle",
       Ratio(Layer("sim.launch"), Count("sim.sm_cycles"))},
      {"sim.ns_per_warp_inst",
       Ratio(Layer("sim.launch"), Count("sim.warp_insts"))},
      {"sim.warp_insts_per_cycle",
       Ratio(Count("sim.warp_insts"), Count("sim.sm_cycles"))},
      {"sim.sm_cycles", Count("sim.sm_cycles")},
      {"sim.cpu_util", Ratio(Count("sim.cpu_s"), Count("sim.jobs_wall_s"))},
      {"kernelgen.generate_s", Layer("kernelgen.generate") / 1e9},
      {"kernelgen.share", Ratio(Layer("kernelgen.generate"), PassNs)},
      {"sgemm.upload_s", Layer("sgemm.upload") / 1e9},
      {"sgemm.reference_s", Layer("sgemm.reference") / 1e9},
      {"sgemm.verify_s", Layer("sgemm.verify") / 1e9},
      {"ubench.generate_s", Layer("ubench.generate") / 1e9},
      {"ubench.measure_s", Layer("ubench.measure") / 1e9},
      {"perfdb.open_s", Layer("perfdb.open") / 1e9},
      {"perfdb.close_s", Layer("perfdb.close") / 1e9},
      {"perfdb.hit_us",
       Ratio(Layer("perfdb.hit") / 1e3, Count("perfdb.direct_lookups"))},
      {"perfdb.hit_ratio",
       Ratio(Count("perfdb.hits"), Count("perfdb.lookups"))},
      {"perfdb.misses", Count("perfdb.misses")},
      {"perfdb.append_ms", Cal("perfdb.append_ms")},
      {"sweep.overhead_s", Layer("sweep") / 1e9},
      {"model.analyze_s", Layer("model.analyze") / 1e9},
      {"trace.overhead", Cal("trace.overhead")},
      {"profile.overhead", Cal("profile.overhead")},
      {"probe.overhead", Cal("probe.overhead")},
      {"observe.overhead", Cal("observe.overhead")},
      {"trace.events", Count("trace.events")},
      {"analysis.report_s", Layer("analysis.report") / 1e9},
      {"bench.trace_overhead", Ratio(TimedSpans * SpanCostNs, TimedRootNs)},
      {"bench.unattributed_share", Ratio(UnattributedNs, PassNs)},
  };
  MetricValues Out;
  for (const MetricDef &M : PerLayer)
    Out.push_back({&M, V.at(M.Name)});
  return Out;
}

/// Cost of recording one span (begin + end), from a throwaway recorder.
double measureSpanCostNs() {
  constexpr int N = 4096;
  SpanRecorder R(true);
  auto T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    SpanRecorder::Scope S(R, "sim.launch");
  return secondsSince(T0) * 1e9 / N;
}

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 20;
  bool Trace = false;
  bool SetupOnly = false;
  std::string Out, TraceOut, Scratch;
};

/// --setup-only: build the workload and run its warm-up, nothing else.
int setupOnly(const RunOptions &O) {
  std::string Error;
  auto W = makeWorkload(O.Workload, O.Seed, O.Scratch, Error);
  if (!W) {
    std::fprintf(stderr, "hostbench: %s\n", Error.c_str());
    return 1;
  }
  SpanRecorder Off(false);
  RunContext Ctx{Off, false};
  OpResult R = W->Warmup.Run(Ctx);
  if (R.Failed)
    std::fprintf(stderr, "hostbench: warm-up failed: %s\n",
                 R.FirstError.c_str());
  return R.Failed ? 1 : 0;
}

/// Set-up times measured from outside, in fresh --setup-only processes:
/// exec, static initialization, building the workload and one warm-up
/// operation. Empty when a child fails.
std::vector<double> measureSetups(const RunOptions &O) {
  std::vector<double> Setups;
  for (int I = 0; I < SetupSamples; ++I) {
    double RefBefore = referenceSeconds();
    double T = timeChild({"--workload", O.Workload, "--seed",
                          std::to_string(O.Seed), "--setup-only"});
    if (T < 0) {
      std::fprintf(stderr, "hostbench: set-up of %s failed\n",
                   O.Workload.c_str());
      return {};
    }
    Setups.push_back(T * speedFactor(RefBefore, referenceSeconds()));
  }
  return Setups;
}

int runWorkload(const RunOptions &O) {
  std::vector<double> Setups = measureSetups(O);
  if (Setups.empty())
    return 1;

  std::string Error;
  auto SetupStart = Clock::now();
  auto W = makeWorkload(O.Workload, O.Seed, O.Scratch, Error);
  if (!W) {
    std::fprintf(stderr, "hostbench: %s\n", Error.c_str());
    return 1;
  }
  SpanRecorder Spans(O.Trace);
  RunContext Ctx{Spans, O.Trace};
  OpResult Warm = W->Warmup.Run(Ctx);
  if (Warm.Failed) {
    std::fprintf(stderr, "hostbench: warm-up failed: %s\n",
                 Warm.FirstError.c_str());
    return 1;
  }
  Spans = SpanRecorder(O.Trace); // The warm-up is not part of the trace.
  double OwnSetup = secondsSince(SetupStart);

  auto WindowStart = Clock::now();
  std::map<std::string, double> Calib;
  if (O.Trace && W->Calibrate)
    Calib = W->Calibrate(Ctx);

  // Closed loop: one client, one operation at a time. The first pass
  // always completes so every operation has at least one sample; after
  // it, an operation starts only if its last execution would still fit
  // in the window. Each operation's times are normalized by the
  // reference runs on either side of it.
  std::vector<OpRecord> Ops(W->Pass.size());
  std::map<int, double> ExecSpeed; ///< Traced: root span op id -> factor.
  size_t Executed = 0;
  bool Done = false;
  double RefBefore = referenceSeconds();
  for (size_t Pass = 0; !Done; ++Pass) {
    for (size_t K = 0; K < W->Pass.size(); ++K) {
      const Operation &Op = W->Pass[K];
      OpRecord &Rec = Ops[K];
      if (Pass > 0 &&
          secondsSince(WindowStart) + Rec.RawWall.back() > O.Seconds) {
        Done = true;
        break;
      }
      uint64_t Cycles0 = gpuperf::totalSimulatedCycles();
      double Cpu0 = cpuSeconds();
      auto T0 = Clock::now();
      int Root = Spans.begin(Op.Name);
      OpResult R = Op.Run(Ctx);
      Spans.end(Root);
      double Wall = secondsSince(T0), Cpu = cpuSeconds() - Cpu0;
      uint64_t Cycles = gpuperf::totalSimulatedCycles() - Cycles0;
      double RefAfter = referenceSeconds();
      double Speed = speedFactor(RefBefore, RefAfter);
      RefBefore = RefAfter;
      Rec.Wall.push_back(Wall * Speed);
      Rec.Cpu.push_back(Cpu * Speed);
      Rec.RawWall.push_back(Wall);
      Rec.Speed.push_back(Speed);
      if (Root >= 0)
        ExecSpeed[Spans.spans()[Root].Op] = Speed;
      if (Pass == 0) {
        Rec.Name = Op.Name;
        Rec.SimCycles = Cycles;
        Rec.Digest = R.Digest;
      }
      Rec.Stable &= R.Digest == Rec.Digest && Cycles == Rec.SimCycles;
      Rec.Attempted += R.Attempted;
      Rec.Failed += R.Failed;
      if (Rec.FirstError.empty())
        Rec.FirstError = R.FirstError;
      for (const auto &[Name, V] : R.Counters)
        Rec.Counters[Name] += V;
      ++Executed;
    }
  }
  double Timed = secondsSince(WindowStart);

  uint64_t Attempted = 0, Failed = 0;
  uint64_t Digest = FnvBasis;
  bool Stable = true;
  double WallS = 0, CpuS = 0, RawWallS = 0, Cycles = 0;
  std::vector<double> Speeds;
  std::string FirstError;
  for (const OpRecord &Rec : Ops) {
    Attempted += Rec.Attempted;
    Failed += Rec.Failed;
    if (FirstError.empty())
      FirstError = Rec.FirstError;
    Digest = fnvU64(Digest, Rec.Digest);
    Stable &= Rec.Stable;
    WallS += median(Rec.Wall);
    CpuS += median(Rec.Cpu);
    RawWallS += median(Rec.RawWall);
    Speeds.insert(Speeds.end(), Rec.Speed.begin(), Rec.Speed.end());
    Cycles += static_cast<double>(Rec.SimCycles);
  }
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  MetricValues E2E = {
      {&EndToEnd[0], WallS},
      {&EndToEnd[1], median(Setups)},
      {&EndToEnd[2], CpuS},
      {&EndToEnd[3], WallS > 0 ? Cycles / WallS : 0},
      {&EndToEnd[4], U.ru_maxrss / 1024.0},
  };
  MetricValues Record = E2E;
  Record.push_back({&FailRate, Attempted ? double(Failed) / Attempted : 0});
  Record.push_back({&RawWall, RawWallS});
  Record.push_back({&MachineSpeed, median(Speeds)});
  MetricValues Layers;
  if (O.Trace)
    Layers =
        perLayerMetrics(Ops, Spans, ExecSpeed, Calib, measureSpanCostNs());
  bool Correct = Failed == 0 && Stable;

  // Human-readable summary.
  std::fprintf(stderr, "%s seed %llu%s: %zu operations in %.1f s; set-up "
                       "%.3f s here, samples",
               O.Workload.c_str(), (unsigned long long)O.Seed,
               O.Trace ? " (traced)" : "", Executed, Timed, OwnSetup);
  for (double T : Setups)
    std::fprintf(stderr, " %.3f", T);
  std::fprintf(stderr, "\n");
  for (const OpRecord &Rec : Ops)
    std::fprintf(stderr,
                 "  %-40s x%zu  median %.4f s (raw %.4f s)  cpu %.4f s\n",
                 Rec.Name.c_str(), Rec.Wall.size(), median(Rec.Wall),
                 median(Rec.RawWall), median(Rec.Cpu));
  for (const auto &[M, V] : Record)
    std::fprintf(stderr, "  %-26s %.6g %s\n", M->Name, V, M->Unit);
  for (const auto &[M, V] : Layers)
    std::fprintf(stderr, "  %-26s %.6g %s\n", M->Name, V, M->Unit);
  if (!Correct)
    std::fprintf(stderr, "hostbench: %llu of %llu failed%s%s\n",
                 (unsigned long long)Failed, (unsigned long long)Attempted,
                 Stable ? "" : "; results differed between executions",
                 FirstError.empty() ? "" : ("; first: " + FirstError).c_str());

  char Head[160];
  std::snprintf(Head, sizeof(Head),
                "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
                Correct ? "true" : "false", (unsigned long long)Attempted,
                (unsigned long long)Failed);
  if (!O.Out.empty()) {
    std::ostringstream Rec;
    Rec << Head << "\"workload\":\"" << O.Workload << "\",\"seed\":" << O.Seed
        << ",\"traced\":" << (O.Trace ? "true" : "false")
        << ",\"seconds\":" << O.Seconds << ",\"sim_digest\":\""
        << gpuperf::formatString("%016llx", (unsigned long long)Digest)
        << "\",\"metrics\":" << metricsJson(Record)
        << ",\"layers\":" << metricsJson(Layers) << "}\n";
    writeFile(O.Out, Rec.str());
  }
  if (O.Trace)
    writeFile(O.TraceOut, Spans.chromeTraceJson());
  std::printf("%s\"metrics\":%s}\n", Head,
              metricsJson(O.Trace ? Layers : E2E).c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// --compare
//===----------------------------------------------------------------------===//

/// workload -> metric -> values, from the untraced records in \p Dir.
using RecordSet =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

bool loadRecords(const std::string &Dir, RecordSet &Out) {
  std::error_code EC;
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".json")
      Files.push_back(E.path());
  if (EC) {
    std::fprintf(stderr, "hostbench: cannot read '%s': %s\n", Dir.c_str(),
                 EC.message().c_str());
    return false;
  }
  for (const fs::path &P : Files) {
    std::ifstream F(P);
    std::stringstream Text;
    Text << F.rdbuf();
    auto V = gpuperf::jsonParse(Text.str());
    if (!V)
      continue; // Trace files and anything else that is not a record.
    const gpuperf::JsonValue *Workload = V->find("workload");
    const gpuperf::JsonValue *Traced = V->find("traced");
    const gpuperf::JsonValue *Metrics = V->find("metrics");
    if (!Workload || !Workload->isString() || !Traced || Traced->Bool ||
        !Metrics || !Metrics->isObject())
      continue;
    for (const auto &[Name, M] : Metrics->Members)
      if (const gpuperf::JsonValue *Value = M.find("value"))
        Out[Workload->Str][Name].push_back(Value->Number);
  }
  return true;
}

int compareDirs(const std::string &DirA, const std::string &DirB) {
  RecordSet A, B;
  if (!loadRecords(DirA, A) || !loadRecords(DirB, B))
    return 2;
  std::vector<const MetricDef *> Defs;
  for (const MetricDef &M : EndToEnd)
    Defs.push_back(&M);
  Defs.push_back(&FailRate);
  bool AnyRegressed = false;
  size_t Compared = 0;
  std::printf("%-12s %-17s %-33s %-33s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3] iqr", "B median [q1, q3] iqr", "change",
              "bound", "verdict");
  for (const std::string &W : workloadNames()) {
    if (!A.count(W) || !B.count(W))
      continue;
    for (const MetricDef *M : Defs) {
      const std::vector<double> &VA = A[W][M->Name], &VB = B[W][M->Name];
      if (VA.empty() || VB.empty())
        continue;
      Summary SA = summarize(VA), SB = summarize(VB);
      Verdict V = compareRuns(VA, VB, M->Bound, M->HigherIsBetter,
                              M->SpreadExempt);
      AnyRegressed |= V == Verdict::Regressed;
      ++Compared;
      auto Side = [](const Summary &S) {
        return gpuperf::formatString("%.4g [%.4g, %.4g] %.1f%%", S.Median,
                                     S.Q1, S.Q3, 100 * S.spread());
      };
      std::printf("%-12s %-17s %-33s %-33s %+7.1f%% %5.1f%%  %s\n",
                  W.c_str(), M->Name, Side(SA).c_str(), Side(SB).c_str(),
                  100 * worseBy(SA.Median, SB.Median, false), 100 * M->Bound,
                  verdictName(V));
    }
  }
  if (Compared == 0) {
    std::fprintf(stderr, "hostbench: no workload has records in both '%s' "
                         "and '%s'\n",
                 DirA.c_str(), DirB.c_str());
    return 2;
  }
  return AnyRegressed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string CompareA, CompareB;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage((Arg + " requires a value").c_str());
      return Argv[++I];
    };
    auto Integer = [&](long long Min, long long Max) {
      auto N = gpuperf::parseInteger(Value(), Min, Max);
      if (!N)
        usage((Arg + ": " + N.message()).c_str());
      return *N;
    };
    if (Arg == "--workload")
      O.Workload = Value();
    else if (Arg == "--seed")
      O.Seed = static_cast<uint64_t>(Integer(0, INT64_MAX));
    else if (Arg == "--seconds")
      O.Seconds = static_cast<int>(Integer(1, 3600));
    else if (Arg == "--trace")
      O.Trace = Integer(0, 1) == 1;
    else if (Arg == "--out")
      O.Out = Value();
    else if (Arg == "--trace-out")
      O.TraceOut = Value();
    else if (Arg == "--setup-only")
      O.SetupOnly = true;
    else if (Arg == "--list") {
      for (const std::string &W : workloadNames())
        std::printf("%s\n", W.c_str());
      return 0;
    }
    else if (Arg == "--compare") {
      CompareA = Value();
      CompareB = Value();
    } else
      usage(("unknown option '" + Arg + "'").c_str());
  }
  if (!CompareA.empty())
    return compareDirs(CompareA, CompareB);
  if (O.Workload.empty())
    usage("--workload or --compare is required");
  bool Known = false;
  for (const std::string &W : workloadNames())
    Known |= W == O.Workload;
  if (!Known)
    usage(("unknown workload '" + O.Workload + "'").c_str());

  // Temporary files and traces live next to the executable, inside the
  // build directory; set-up children derive the same directory.
  fs::path BinDir = fs::path(selfExe()).parent_path();
  O.Scratch = (BinDir / "scratch").string();
  if (O.TraceOut.empty())
    O.TraceOut = (BinDir / "traces" /
                  (O.Workload + "-seed" + std::to_string(O.Seed) + ".json"))
                     .string();
  std::error_code EC;
  fs::create_directories(O.Scratch, EC);
  return O.SetupOnly ? setupOnly(O) : runWorkload(O);
}

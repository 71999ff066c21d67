//===- benchmark/Workloads.cpp - the five benchmark workloads -------------===//
//
// Part of the gpuperf host-performance benchmark.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/HotspotReport.h"
#include "kernelgen/Baselines.h"
#include "model/UpperBound.h"
#include "probe/ProbeEngine.h"
#include "probe/ProbeSpec.h"
#include "sgemm/Reference.h"
#include "sgemm/SgemmRunner.h"
#include "sim/SMSimulator.h"
#include "support/Format.h"
#include "support/MathUtils.h"
#include "support/Rng.h"
#include "ubench/OpPattern.h"
#include "ubench/PerfDatabase.h"
#include "ubench/SweepRunner.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>

#include <sys/resource.h>
#include <unistd.h>

using namespace gpuperf;
using namespace hostbench;

namespace {

template <typename Fn>
auto inSpan(SpanRecorder &S, std::string_view Name, Fn &&F) {
  SpanRecorder::Scope Scope(S, Name);
  return F();
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t salt(const std::string &Key) {
  return fnv1a(FnvBasis, Key.data(), Key.size());
}

uint32_t floatBits(float F) {
  uint32_t U;
  std::memcpy(&U, &F, 4);
  return U;
}

uint64_t digestLaunch(uint64_t Hash, const LaunchResult &L, double Gflops) {
  Hash = fnvDouble(Hash, L.TotalCycles);
  for (uint64_t Slots : L.Stats.Breakdown.Slots)
    Hash = fnvU64(Hash, Slots);
  return fnvDouble(Hash, Gflops);
}

//===----------------------------------------------------------------------===//
// SGEMM operations (wave_fermi, wave_kepler, full_verify, observed)
//===----------------------------------------------------------------------===//

struct SgemmOp {
  const MachineDesc *M = nullptr;
  SgemmImpl Impl = SgemmImpl::AsmTuned;
  SgemmSchedule Schedule = SgemmSchedule::Drip;
  SimMode Mode = SimMode::ProjectOneWave;
  int Jobs = 1;
  bool Verify = false;
  float Beta = 0.0f;
  int MSize = 0, NSize = 0, KSize = 0;
  uint64_t DataSeed = 1;
  /// When set, the launch records a SimTrace, a KernelProfile and these
  /// probes (the gpuprof / gpurun --probe use case), and each is rendered.
  std::shared_ptr<const ProbeEngine> Observe;

  std::string name() const {
    return formatString("%s %s%s %dx%dx%d", M->Name.c_str(),
                        sgemmImplName(Impl),
                        Schedule == SgemmSchedule::List ? "+list" : "", MSize,
                        NSize, KSize);
  }

  SgemmKernelConfig config() const {
    SgemmKernelConfig Cfg =
        baselineConfig(Impl, *M, GemmVariant::NN, MSize, NSize, KSize);
    Cfg.Schedule = Schedule;
    return Cfg;
  }
};

/// Host and device state of one SGEMM operation, built the way
/// runSgemmConfig builds it (same padding, fill order and RNG stream), so
/// its launch computes the same result.
struct PreparedSgemm {
  SgemmKernelConfig Cfg;
  int MP = 0, NP = 0, KP = 0;
  Kernel K;
  std::vector<float> A, B, C; ///< Padded, column-major.
  GlobalMemory GM{0};
  uint32_t CAddr = 0;
  LaunchConfig Launch;
};

Status prepareSgemm(SpanRecorder &S, const SgemmOp &Op, PreparedSgemm &P) {
  P.Cfg = Op.config();
  P.MP = static_cast<int>(alignTo(Op.MSize, P.Cfg.blockTile()));
  P.NP = static_cast<int>(alignTo(Op.NSize, P.Cfg.blockTile()));
  P.KP = static_cast<int>(alignTo(Op.KSize, P.Cfg.L));
  P.Cfg.M = P.Cfg.Lda = P.Cfg.Ldc = P.MP;
  P.Cfg.N = P.NP;
  P.Cfg.K = P.Cfg.Ldb = P.KP;
  auto K = inSpan(S, "kernelgen.generate",
                  [&] { return generateSgemmKernel(*Op.M, P.Cfg); });
  if (!K)
    return K.takeStatus();
  P.K = K.take();

  SpanRecorder::Scope Upload(S, "sgemm.upload");
  Rng R(Op.DataSeed);
  auto Fill = [&R](std::vector<float> &V, int Ld, int Rows, int Cols) {
    for (int Col = 0; Col < Cols; ++Col)
      for (int Row = 0; Row < Rows; ++Row)
        V[static_cast<size_t>(Col) * Ld + Row] = R.nextUnitFloat();
  };
  P.A.assign(static_cast<size_t>(P.MP) * P.KP, 0.0f);
  P.B.assign(static_cast<size_t>(P.KP) * P.NP, 0.0f);
  P.C.assign(static_cast<size_t>(P.MP) * P.NP, 0.0f);
  Fill(P.A, P.MP, Op.MSize, Op.KSize);
  Fill(P.B, P.KP, Op.KSize, Op.NSize);
  if (Op.Beta != 0.0f)
    Fill(P.C, P.MP, Op.MSize, Op.NSize);
  P.GM = GlobalMemory((P.A.size() + P.B.size() + P.C.size()) * 4 + (1 << 16));
  uint32_t Addr[3];
  const std::vector<float> *Src[3] = {&P.A, &P.B, &P.C};
  for (int I = 0; I < 3; ++I) {
    auto Base = P.GM.tryAllocate(Src[I]->size() * 4);
    if (!Base)
      return Base.takeStatus();
    Addr[I] = *Base;
    for (size_t J = 0; J < Src[I]->size(); ++J)
      P.GM.storeFloat(static_cast<uint32_t>(Addr[I] + 4 * J), (*Src[I])[J]);
  }
  P.CAddr = Addr[2];

  SgemmLaunchShape Shape = sgemmLaunchShape(P.Cfg);
  P.Launch.Dims.GridX = Shape.GridX;
  P.Launch.Dims.GridY = Shape.GridY;
  P.Launch.Dims.BlockX = Shape.BlockX;
  P.Launch.Params = {Addr[0], Addr[1], Addr[2], floatBits(1.0f),
                     floatBits(Op.Beta)};
  P.Launch.Mode = Op.Mode;
  P.Launch.Jobs = Op.Jobs;
  return Status::success();
}

/// launchKernel inside a "sim.launch" span, counting what the per-cycle
/// and per-instruction host costs are divided by.
Expected<LaunchResult> launchSgemm(SpanRecorder &S, PreparedSgemm &P,
                                   const MachineDesc &M, OpResult &Out) {
  SpanRecorder::Scope Launch(S, "sim.launch");
  uint64_t Cycles0 = totalSimulatedCycles();
  double Cpu0 = cpuSeconds(), Wall0 = wallSeconds();
  auto LR = launchKernel(M, P.K, P.Launch, P.GM);
  Out.Counters["sim.sm_cycles"] += totalSimulatedCycles() - Cycles0;
  Out.Counters["sim.cpu_s"] += cpuSeconds() - Cpu0;
  Out.Counters["sim.jobs_wall_s"] += (wallSeconds() - Wall0) * P.Launch.Jobs;
  if (LR)
    Out.Counters["sim.warp_insts"] += LR->Stats.WarpInstsIssued;
  return LR;
}

OpResult runStepwise(RunContext &Ctx, const SgemmOp &Op) {
  OpResult Out;
  SpanRecorder &S = Ctx.Spans;
  PreparedSgemm P;
  if (Status St = prepareSgemm(S, Op, P); St.failed()) {
    Out.fail(St.message());
    return Out;
  }
  SimTrace Trace;
  KernelProfile Profile;
  ProbeEngine Probes;
  if (Op.Observe) {
    P.Launch.Trace = &Trace;
    P.Launch.Profile = &Profile;
    Probes = Op.Observe->emptyClone();
    P.Launch.Probes = &Probes;
  }
  auto LR = launchSgemm(S, P, *Op.M, Out);
  if (!LR) {
    Out.fail(LR.message());
    return Out;
  }
  double Gflops = LR->gflops(*Op.M, 2.0 * P.MP * P.NP * P.KP);
  Out.Digest = digestLaunch(Out.Digest, *LR, Gflops);

  if (Op.Observe) {
    SpanRecorder::Scope Report(S, "analysis.report");
    (void)chromeTraceJson(Trace, *Op.M);
    (void)renderAnnotatedReport(*Op.M, P.K, Profile);
    (void)Probes.report();
    Out.Counters["trace.events"] += Trace.Events.size();
  }
  if (Op.Verify) {
    inSpan(S, "sgemm.reference", [&] {
      referenceSgemm(GemmVariant::NN, P.MP, P.NP, P.KP, 1.0f, P.A.data(),
                     P.MP, P.B.data(), P.KP, Op.Beta, P.C.data(), P.MP);
    });
    SpanRecorder::Scope Verify(S, "sgemm.verify");
    size_t Bad = 0;
    for (size_t I = 0; I < P.C.size(); ++I)
      Bad += P.GM.loadFloat(static_cast<uint32_t>(P.CAddr + 4 * I)) != P.C[I];
    if (Bad)
      Out.fail(formatString("C differs from referenceSgemm in %zu of %zu "
                            "elements",
                            Bad, P.C.size()));
  }
  return Out;
}

OpResult runSgemmOp(RunContext &Ctx, const SgemmOp &Op) {
  if (Ctx.Traced || Op.Observe)
    return runStepwise(Ctx, Op);
  OpResult Out;
  SgemmProblem Problem;
  Problem.M = Op.MSize;
  Problem.N = Op.NSize;
  Problem.K = Op.KSize;
  Problem.Beta = Op.Beta;
  SgemmRunOptions O;
  O.Mode = Op.Mode;
  O.Verify = Op.Verify;
  O.Seed = Op.DataSeed;
  O.Jobs = Op.Jobs;
  auto R = runSgemmConfig(*Op.M, Op.config(), Problem, O);
  if (!R) {
    Out.fail(R.message());
    return Out;
  }
  Out.Digest = digestLaunch(Out.Digest, R->Launch, R->Gflops);
  return Out;
}

/// Launch time of each observation sink relative to a sink-free launch
/// of the same prepared operation: trace, profile, probes, all three.
/// The variants run in one order and then in reverse, so a machine that
/// speeds up or slows down steadily biases none of them.
std::map<std::string, double>
calibrateObservation(RunContext &Ctx, const std::vector<SgemmOp> &Ops) {
  SpanRecorder &S = Ctx.Spans;
  SpanRecorder::Scope Root(S, "calibrate.observe");
  const char *Names[] = {"trace.overhead", "profile.overhead",
                         "probe.overhead", "observe.overhead"};
  double Seconds[5] = {}; // No sink, then Names in order.
  for (const SgemmOp &Op : Ops) {
    PreparedSgemm P;
    if (prepareSgemm(S, Op, P).failed())
      continue; // The same operation fails, and is counted, in the pass.
    OpResult Scratch;
    for (int V : {0, 1, 2, 3, 4, 4, 3, 2, 1, 0}) {
      SimTrace Trace;
      KernelProfile Profile;
      ProbeEngine Probes = Op.Observe->emptyClone();
      P.Launch.Trace = V == 1 || V == 4 ? &Trace : nullptr;
      P.Launch.Profile = V == 2 || V == 4 ? &Profile : nullptr;
      P.Launch.Probes = V == 3 || V == 4 ? &Probes : nullptr;
      double T0 = wallSeconds();
      (void)launchSgemm(S, P, *Op.M, Scratch);
      Seconds[V] += wallSeconds() - T0;
    }
  }
  std::map<std::string, double> Out;
  for (int I = 0; I < 4; ++I)
    Out[Names[I]] = Seconds[0] > 0 ? Seconds[I + 1] / Seconds[0] - 1 : 0;
  return Out;
}

/// One operation of an SGEMM workload's pass.
struct Shape {
  const MachineDesc &(*Machine)();
  SgemmImpl Impl;
  int M, N, K;
  /// Left unjittered: the pass's largest operation, which sets
  /// peak_rss_mb; jittering it would make peak memory follow the seed.
  bool Fixed = false;
  SgemmSchedule Schedule = SgemmSchedule::Drip;
};

std::unique_ptr<Workload> sgemmWorkload(const std::string &Name,
                                        uint64_t Seed,
                                        const std::vector<Shape> &Shapes,
                                        const SgemmOp &Common) {
  auto W = std::make_unique<Workload>();
  std::vector<SgemmOp> Ops;
  for (size_t I = 0; I < Shapes.size(); ++I) {
    const Shape &Sh = Shapes[I];
    auto Dim = [&](const char *Which, int Base) {
      return Sh.Fixed ? Base
                      : jitterDim(Seed,
                                  salt(formatString("%s/%zu/%s", Name.c_str(),
                                                    I, Which)),
                                  Base);
    };
    SgemmOp Op = Common;
    Op.M = &Sh.Machine();
    Op.Impl = Sh.Impl;
    Op.Schedule = Sh.Schedule;
    Op.MSize = Dim("m", Sh.M);
    Op.NSize = Dim("n", Sh.N);
    Op.KSize = Dim("k", Sh.K);
    Op.DataSeed =
        seedHash(Seed, salt(formatString("%s/%zu/data", Name.c_str(), I)));
    W->Pass.push_back(
        {Op.name(), [Op](RunContext &Ctx) { return runSgemmOp(Ctx, Op); }});
    Ops.push_back(Op);
  }
  // The first operation's code paths at one 96x96 tile, so the warm-up
  // touches every lazily initialized table without dominating setup_s.
  SgemmOp Warm = Ops.front();
  Warm.MSize = Warm.NSize = Warm.KSize = 96;
  W->Warmup = {"warmup",
               [Warm](RunContext &Ctx) { return runSgemmOp(Ctx, Warm); }};
  if (Common.Observe) {
    // One operation per machine is enough to price each sink.
    std::vector<SgemmOp> PerMachine;
    for (const SgemmOp &Op : Ops)
      if (std::none_of(PerMachine.begin(), PerMachine.end(),
                       [&](const SgemmOp &O) { return O.M == Op.M; }))
        PerMachine.push_back(Op);
    W->Calibrate = [PerMachine](RunContext &Ctx) {
      return calibrateObservation(Ctx, PerMachine);
    };
  }
  return W;
}

//===----------------------------------------------------------------------===//
// ubench_cold: journaled microbenchmark sweeps, then warm lookups
//===----------------------------------------------------------------------===//

/// The fig2/fig4/table2 sweeps and the upper-bound model, measured into a
/// journaled PerfDatabase in a fresh directory every pass (every
/// measurement misses and is appended and fsync'd), then the database is
/// closed (compacting it), reopened, and every key is looked up again.
class UbenchCold {
public:
  UbenchCold(uint64_t Seed, std::string Scratch)
      : Seed(Seed), Scratch(std::move(Scratch)),
        Patterns(table2Patterns()) {}

  /// A run can end mid-pass: close what is open and drop its files.
  ~UbenchCold() {
    Checkpoint.reset();
    Db[0].reset();
    Db[1].reset();
    std::error_code EC;
    if (!Dir.empty())
      std::filesystem::remove_all(Dir, EC);
  }

  UbenchCold(const UbenchCold &) = delete;
  UbenchCold &operator=(const UbenchCold &) = delete;

  static const MachineDesc &machine(int I) {
    return I == 0 ? gtx580() : gtx680();
  }

  // The steps of one pass, in order.
  OpResult openCold(RunContext &Ctx);
  OpResult fig2(RunContext &Ctx, int Machine);
  OpResult fig4(RunContext &Ctx, int Machine);
  OpResult table2(RunContext &Ctx);
  OpResult analyze(RunContext &Ctx, int Machine);
  OpResult closeCold(RunContext &Ctx);
  OpResult reopen(RunContext &Ctx);
  OpResult warm(RunContext &Ctx);
  OpResult closeWarm(RunContext &Ctx);

  OpResult warmup(RunContext &Ctx);
  std::map<std::string, double> calibrate(RunContext &Ctx);

private:
  /// Unrolled body length of the generated microbenchmarks, before
  /// jitter: a sixth of the benches' 2048 so one pass of all four sweeps
  /// on both machines fits several times in a run.
  static constexpr int BodyBase = 320;

  struct Entry {
    int Machine;
    Kernel K;
    MeasureConfig Cfg;
    double Value;
  };

  std::string cachePath(int I) const {
    return Dir + "/" + machine(I).Name + ".gpdb";
  }
  int body(const std::string &Key) const {
    return jitterDim(Seed, salt(Key), BodyBase);
  }

  OpResult sweep(RunContext &Ctx, const std::string &Name, size_t Points,
                 const std::function<std::string(size_t)> &Point);
  double measure(RunContext &Ctx, int Machine, Kernel K,
                 const MeasureConfig &Cfg);
  std::string analyzeRow(RunContext &Ctx, UpperBoundModel &Model, size_t I);

  uint64_t Seed;
  std::string Scratch;
  std::vector<Table2Row> Patterns;
  std::string Dir; ///< This pass's database directory.
  unsigned Passes = 0;
  std::unique_ptr<PerfDatabase> Db[2];
  std::unique_ptr<SweepCheckpoint> Checkpoint;
  std::vector<Entry> Entries;               ///< Measured this pass.
  std::vector<std::string> AnalyzeRows[2]; ///< Cold results per machine.
};

OpResult UbenchCold::sweep(RunContext &Ctx, const std::string &Name,
                           size_t Points,
                           const std::function<std::string(size_t)> &Point) {
  SpanRecorder &S = Ctx.Spans;
  OpResult Out;
  Out.Attempted = Points;
  // Only the two fields ROADMAP item 2 keeps: one worker (the sweep's
  // own overhead is then wall minus point time) and the checkpoint.
  SweepOptions O;
  O.Jobs = 1;
  O.Checkpoint = Checkpoint.get();
  SweepResult R = inSpan(S, "sweep", [&] {
    return runSupervisedSweep(O, Name, Points, [&](size_t I, const auto &) {
      SpanRecorder::Scope PointSpan(S, "sweep.point");
      return SweepPointAttempt::ok({Point(I)});
    });
  });
  for (const SweepPointFailure &F : R.Report.Incomplete)
    Out.fail(formatString("%s point %zu incomplete: %s", Name.c_str(),
                          F.Point, F.Reason.c_str()));
  Out.Digest = fnvU64(Out.Digest, R.Report.RowsHash);
  return Out;
}

double UbenchCold::measure(RunContext &Ctx, int Machine, Kernel K,
                           const MeasureConfig &Cfg) {
  double V = inSpan(Ctx.Spans, "ubench.measure",
                    [&] { return Db[Machine]->measureKernel(K, Cfg); });
  Entries.push_back({Machine, std::move(K), Cfg, V});
  return V;
}

OpResult UbenchCold::openCold(RunContext &Ctx) {
  OpResult Out;
  Dir = formatString("%s/ubench-%d-%u", Scratch.c_str(), (int)getpid(),
                     Passes++);
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  if (!std::filesystem::create_directories(Dir, EC)) {
    Out.fail("cannot create " + Dir + ": " + EC.message());
    return Out;
  }
  Entries.clear();
  inSpan(Ctx.Spans, "perfdb.open", [&] {
    for (int I = 0; I < 2; ++I)
      Db[I] = std::make_unique<PerfDatabase>(machine(I), cachePath(I));
  });
  inSpan(Ctx.Spans, "sweep.checkpoint", [&] {
    Checkpoint = std::make_unique<SweepCheckpoint>(Dir + "/sweeps.gpck",
                                                   /*Resume=*/false);
  });
  return Out;
}

OpResult UbenchCold::fig2(RunContext &Ctx, int Machine) {
  const MachineDesc &M = machine(Machine);
  static const int Ratios[] = {0, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32};
  return sweep(Ctx, "fig2_" + M.Name, std::size(Ratios), [&](size_t I) {
    std::string Row = formatString("%d", Ratios[I]);
    for (MemWidth W : {MemWidth::B32, MemWidth::B64, MemWidth::B128}) {
      MixBenchParams P;
      P.FfmaPerLds = Ratios[I];
      P.Width = W;
      P.BodyInsts = body(formatString("fig2/%s/%d/%d", M.Name.c_str(),
                                      Ratios[I], memWidthBytes(W)));
      Kernel K = inSpan(Ctx.Spans, "ubench.generate",
                        [&] { return generateMixBench(M, P); });
      Row += formatString(" %a", measure(Ctx, Machine, std::move(K),
                                         MeasureConfig()));
    }
    return Row;
  });
}

OpResult UbenchCold::fig4(RunContext &Ctx, int Machine) {
  const MachineDesc &M = machine(Machine);
  const std::vector<int> Threads =
      Machine == 0
          ? std::vector<int>{32, 64, 128, 192, 256, 384, 512, 768, 1024}
          : std::vector<int>{32, 64, 128, 256, 512, 768, 1024, 1536, 2048};
  return sweep(Ctx, "fig4_" + M.Name, Threads.size(), [&](size_t I) {
    // The active-thread split PerfDatabase::mixThroughput uses.
    MeasureConfig Cfg;
    Cfg.BlocksPerSM = (Threads[I] + M.MaxThreadsPerBlock - 1) /
                      M.MaxThreadsPerBlock;
    Cfg.ThreadsPerBlock = Threads[I] / Cfg.BlocksPerSM;
    std::string Row = formatString("%d", Threads[I]);
    for (bool Dependent : {true, false}) {
      MixBenchParams P;
      P.FfmaPerLds = 6;
      P.Width = MemWidth::B64;
      P.Dependent = Dependent;
      P.BodyInsts = body(formatString("fig4/%s/%d/%d", M.Name.c_str(),
                                      Threads[I], Dependent));
      Kernel K = inSpan(Ctx.Spans, "ubench.generate",
                        [&] { return generateMixBench(M, P); });
      Row += formatString(" %a", measure(Ctx, Machine, std::move(K), Cfg));
    }
    return Row;
  });
}

OpResult UbenchCold::table2(RunContext &Ctx) {
  MeasureConfig Cfg;
  Cfg.ThreadsPerBlock = 1024;
  Cfg.BlocksPerSM = 1;
  return sweep(Ctx, "table2", Patterns.size(), [&](size_t I) {
    int Body = body(formatString("table2/%zu", I));
    Kernel K = inSpan(Ctx.Spans, "ubench.generate", [&] {
      return generateOpPatternBench(gtx680(), Patterns[I].Pattern, Body);
    });
    return formatString("%s %a", Patterns[I].Syntax.c_str(),
                        measure(Ctx, 1, std::move(K), Cfg));
  });
}

std::string UbenchCold::analyzeRow(RunContext &Ctx, UpperBoundModel &Model,
                                   size_t I) {
  static const MemWidth Widths[] = {MemWidth::B32, MemWidth::B64,
                                    MemWidth::B128};
  SgemmModelParams P;
  P.BR = 2 + 2 * static_cast<int>(I / 3);
  P.LdsWidth = Widths[I % 3];
  UpperBoundReport R =
      inSpan(Ctx.Spans, "model.analyze", [&] { return Model.analyze(P); });
  return formatString("%d %d %d %a %a", P.BR, memWidthBytes(P.LdsWidth),
                      R.Feasible, R.FT, R.PotentialGflops);
}

OpResult UbenchCold::analyze(RunContext &Ctx, int Machine) {
  UpperBoundModel Model(*Db[Machine]);
  AnalyzeRows[Machine].assign(9, "");
  return sweep(Ctx, "analyze_" + machine(Machine).Name, 9, [&](size_t I) {
    return AnalyzeRows[Machine][I] = analyzeRow(Ctx, Model, I);
  });
}

OpResult UbenchCold::closeCold(RunContext &Ctx) {
  OpResult Out;
  Out.Counters["perfdb.misses"] = Db[0]->misses() + Db[1]->misses();
  inSpan(Ctx.Spans, "sweep.checkpoint", [&] { Checkpoint.reset(); });
  inSpan(Ctx.Spans, "perfdb.close", [&] {
    Db[0].reset();
    Db[1].reset();
  });
  return Out;
}

OpResult UbenchCold::reopen(RunContext &Ctx) {
  OpResult Out;
  inSpan(Ctx.Spans, "perfdb.open", [&] {
    for (int I = 0; I < 2; ++I)
      Db[I] = std::make_unique<PerfDatabase>(machine(I), cachePath(I));
  });
  for (int I = 0; I < 2; ++I)
    if (Db[I]->entryCount() == 0)
      Out.fail(cachePath(I) + " reopened empty");
  return Out;
}

OpResult UbenchCold::warm(RunContext &Ctx) {
  OpResult Out;
  size_t Hits0 = Db[0]->hits() + Db[1]->hits();
  size_t Misses0 = Db[0]->misses() + Db[1]->misses();
  size_t Changed = 0;
  inSpan(Ctx.Spans, "perfdb.hit", [&] {
    for (const Entry &E : Entries) {
      double V = Db[E.Machine]->measureKernel(E.K, E.Cfg);
      Changed += std::memcmp(&V, &E.Value, sizeof(V)) != 0;
      Out.Digest = fnvDouble(Out.Digest, V);
    }
  });
  for (int I = 0; I < 2; ++I) {
    UpperBoundModel Model(*Db[I]);
    for (size_t P = 0; P < AnalyzeRows[I].size(); ++P)
      Changed += analyzeRow(Ctx, Model, P) != AnalyzeRows[I][P];
  }
  size_t Hits = Db[0]->hits() + Db[1]->hits() - Hits0;
  size_t Misses = Db[0]->misses() + Db[1]->misses() - Misses0;
  Out.Attempted = Hits + Misses;
  for (size_t I = 0; I < Misses; ++I)
    Out.fail("warm lookup missed");
  for (size_t I = 0; I < Changed; ++I)
    Out.fail("warm lookup returned a different value");
  Out.Counters["perfdb.direct_lookups"] = static_cast<double>(Entries.size());
  Out.Counters["perfdb.lookups"] = static_cast<double>(Hits + Misses);
  Out.Counters["perfdb.hits"] = static_cast<double>(Hits);
  return Out;
}

OpResult UbenchCold::closeWarm(RunContext &Ctx) {
  OpResult Out;
  inSpan(Ctx.Spans, "perfdb.close", [&] {
    Db[0].reset();
    Db[1].reset();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  });
  return Out;
}

OpResult UbenchCold::warmup(RunContext &Ctx) {
  // One journaled measurement per machine through a checkpointed sweep:
  // every code path of the pass, at a fraction of its cost.
  OpResult Out = openCold(Ctx);
  if (Out.Failed)
    return Out;
  for (int I = 0; I < 2; ++I)
    Out.absorb(sweep(Ctx, "warmup_" + machine(I).Name, 1, [&](size_t) {
      MixBenchParams P;
      P.BodyInsts = BodyBase;
      Kernel K = generateMixBench(machine(I), P);
      return formatString("%a",
                          measure(Ctx, I, std::move(K), MeasureConfig()));
    }));
  for (auto Step : {&UbenchCold::closeCold, &UbenchCold::reopen,
                    &UbenchCold::warm, &UbenchCold::closeWarm})
    Out.absorb((this->*Step)(Ctx));
  return Out;
}

std::map<std::string, double> UbenchCold::calibrate(RunContext &Ctx) {
  // The journal's cost per acknowledged record: the same tiny, distinct
  // kernels missed in an in-memory database and in a journaled one.
  SpanRecorder &S = Ctx.Spans;
  SpanRecorder::Scope Root(S, "calibrate.perfdb");
  std::vector<Kernel> Tiny;
  for (int I = 0; I < 48; ++I) {
    MixBenchParams P;
    P.FfmaPerLds = I % 16;
    P.Width = static_cast<MemWidth>(I / 16);
    P.BodyInsts = 32;
    Tiny.push_back(generateMixBench(gtx580(), P));
  }
  MeasureConfig Cfg;
  Cfg.ThreadsPerBlock = 32;
  Cfg.BlocksPerSM = 1;
  std::string CalDir =
      formatString("%s/ubench-%d-calibrate", Scratch.c_str(), (int)getpid());
  std::error_code EC;
  std::filesystem::remove_all(CalDir, EC);
  std::filesystem::create_directories(CalDir, EC);
  // Fresh databases each round, in the order memory, journal, journal,
  // memory, so steady drift in machine speed cancels out.
  double Seconds[2] = {};
  int Round = 0;
  for (int Journaled : {0, 1, 1, 0}) {
    PerfDatabase Db(gtx580(), Journaled ? formatString("%s/%d.gpdb",
                                                       CalDir.c_str(), Round)
                                        : "");
    SpanRecorder::Scope Span(S, Journaled ? "perfdb.journaled"
                                          : "perfdb.memory");
    double T0 = wallSeconds();
    for (const Kernel &K : Tiny)
      (void)Db.measureKernel(K, Cfg);
    Seconds[Journaled] += wallSeconds() - T0;
    ++Round;
  }
  std::filesystem::remove_all(CalDir, EC);
  return {{"perfdb.append_ms", (Seconds[1] - Seconds[0]) /
                                   (2.0 * static_cast<double>(Tiny.size())) *
                                   1e3}};
}

std::unique_ptr<Workload> ubenchWorkload(uint64_t Seed,
                                         const std::string &Scratch) {
  auto U = std::make_shared<UbenchCold>(Seed, Scratch);
  auto Step = [&U](std::string Name,
                   std::function<OpResult(UbenchCold &, RunContext &)> Fn) {
    return Operation{std::move(Name),
                     [U, Fn](RunContext &Ctx) { return Fn(*U, Ctx); }};
  };
  auto W = std::make_unique<Workload>();
  for (int M = 0; M < 2; ++M) {
    const std::string On = " " + UbenchCold::machine(M).Name;
    if (M == 0)
      W->Pass.push_back(Step("perfdb.open cold", &UbenchCold::openCold));
    W->Pass.push_back(Step("fig2" + On, [M](UbenchCold &U, RunContext &C) {
      return U.fig2(C, M);
    }));
    W->Pass.push_back(Step("fig4" + On, [M](UbenchCold &U, RunContext &C) {
      return U.fig4(C, M);
    }));
    if (M == 1)
      W->Pass.push_back(Step("table2" + On, &UbenchCold::table2));
    W->Pass.push_back(Step("analyze" + On, [M](UbenchCold &U, RunContext &C) {
      return U.analyze(C, M);
    }));
  }
  W->Pass.push_back(Step("perfdb.close cold", &UbenchCold::closeCold));
  W->Pass.push_back(Step("perfdb.reopen", &UbenchCold::reopen));
  W->Pass.push_back(Step("perfdb.warm lookups", &UbenchCold::warm));
  W->Pass.push_back(Step("perfdb.close warm", &UbenchCold::closeWarm));
  W->Warmup = Step("warmup", &UbenchCold::warmup);
  W->Calibrate = [U](RunContext &Ctx) { return U->calibrate(Ctx); };
  return W;
}

} // namespace

double hostbench::cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

const std::vector<std::string> &hostbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "wave_fermi", "wave_kepler", "full_verify", "ubench_cold", "observed"};
  return Names;
}

std::unique_ptr<Workload> hostbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed,
                                                  const std::string &Scratch,
                                                  std::string &Error) {
  using I = SgemmImpl;
  const SgemmSchedule List = SgemmSchedule::List;
  SgemmOp Common;
  if (Name == "wave_fermi") {
    // Figure 6's shape: one projected wave per size, sizes 480..4320.
    Common.Mode = SimMode::ProjectOneWave;
    return sgemmWorkload(Name, Seed,
                         {{gtx580, I::AsmTuned, 480, 480, 480},
                          {gtx580, I::MagmaLike, 960, 960, 960},
                          {gtx580, I::CublasLike, 1440, 1440, 1440},
                          {gtx580, I::MagmaLike, 2400, 2400, 2400},
                          {gtx580, I::AsmTuned, 3360, 3360, 3360},
                          {gtx580, I::CublasLike, 4320, 4320, 4320, true}},
                         Common);
  }
  if (Name == "wave_kepler") {
    // Figure 7's shape plus the list scheduler at two sizes.
    Common.Mode = SimMode::ProjectOneWave;
    return sgemmWorkload(Name, Seed,
                         {{gtx680, I::AsmTuned, 480, 480, 480},
                          {gtx680, I::MagmaLike, 960, 960, 960},
                          {gtx680, I::CublasLike, 1440, 1440, 1440},
                          {gtx680, I::AsmTuned, 2400, 2400, 2400, true},
                          {gtx680, I::AsmTuned, 480, 480, 480, false, List},
                          {gtx680, I::AsmTuned, 1440, 1440, 1440, false,
                           List}},
                         Common);
  }
  if (Name == "full_verify") {
    // Every block simulated and C checked exactly. M and N sit mid-tile
    // (96k + 48), so every shape is padded and jitter never changes the
    // padded grid; 36 blocks leave a partial last wave on both machines.
    Common.Mode = SimMode::Full;
    Common.Verify = true;
    Common.Beta = 0.5f;
    Common.Jobs = 2;
    return sgemmWorkload(Name, Seed,
                         {{gtx580, I::CublasLike, 336, 432, 192},
                          {gtx680, I::MagmaLike, 432, 336, 192},
                          {gtx580, I::AsmTuned, 528, 528, 128},
                          {gtx680, I::AsmTuned, 528, 528, 128}},
                         Common);
  }
  if (Name == "observed") {
    // gpuprof / gpurun --probe: trace, profile and the stock probes on.
    auto Specs = loadProbeSpecFile(HOSTBENCH_PROBE_FILE);
    if (!Specs) {
      Error = Specs.message();
      return nullptr;
    }
    Common.Mode = SimMode::Full;
    Common.Observe = std::make_shared<ProbeEngine>(Specs.take());
    return sgemmWorkload(Name, Seed,
                         {{gtx580, I::MagmaLike, 240, 240, 128},
                          {gtx680, I::CublasLike, 240, 240, 128},
                          {gtx580, I::AsmTuned, 240, 336, 128},
                          {gtx680, I::AsmTuned, 336, 240, 128}},
                         Common);
  }
  if (Name == "ubench_cold")
    return ubenchWorkload(Seed, Scratch);
  Error = "unknown workload '" + Name + "'";
  return nullptr;
}

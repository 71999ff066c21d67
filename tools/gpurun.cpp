//===- tools/gpurun.cpp - kernel launch driver ------------------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Loads a binary module and runs one kernel on the simulated GPU,
// printing the timing statistics -- the quick path for assembly-level
// microbenchmarking, which is the paper's core methodology. It is also
// the one observation CLI: --metrics, --trace, --probe and --profile
// (the per-instruction profiler: annotated report on stdout, versioned
// JSON record to FILE) attach to the same launch.
//
//   gpurun module.gpub [kernel] [--machine GTX580|GTX680]
//          [--grid X[,Y]] [--block N] [--param word]... [--mem bytes]
//          [--watchdog cycles] [--jobs N] [--schedule drip|list]
//          [--metrics] [--trace FILE] [--trace-ring N] [--profile FILE]
//          [--probe FILE] [--probe-out FILE]
//
// Parameters are 32-bit words loaded into the constant bank (LDC);
// --mem reserves a global allocation whose base address is appended as
// the *first* parameter when present.
//
// Exit codes: 0 success, 1 load/launch error, 2 usage, 3 runtime trap
// (the structured diagnostic goes to stderr).
//
//===----------------------------------------------------------------------===//

#include "analysis/HotspotReport.h"
#include "kernelgen/Scheduler.h"
#include "probe/ProbeEngine.h"
#include "sim/Launcher.h"
#include "support/Args.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace gpuperf;

static int usage() {
  std::fprintf(
      stderr,
      "usage: gpurun module.gpub [kernel] [--machine GTX580|GTX680]\n"
      "              [--grid X[,Y]] [--block N] [--param word]...\n"
      "              [--mem bytes] [--watchdog cycles] [--jobs N]\n"
      "              [--metrics] [--trace FILE] [--trace-ring N]\n"
      "              [--profile FILE] [--probe FILE] [--probe-out FILE]\n"
      "              [--schedule drip|list]\n"
      "\n"
      "  --schedule list     re-schedule the kernel before launching:\n"
      "                      bank-rotate math operands, list-schedule\n"
      "                      every straight-line region against the\n"
      "                      machine's latency/issue model, and (Kepler)\n"
      "                      regenerate the control notations to match;\n"
      "                      'drip' (default) runs the module as loaded\n"
      "  --watchdog cycles   per-wave cycle budget before the launch\n"
      "                      fails with a WATCHDOG_TIMEOUT trap\n"
      "                      (default: derived from code size and warps)\n"
      "  --jobs N            threads simulating SMs concurrently; the\n"
      "                      result is bit-identical for every N\n"
      "                      (default: one per hardware thread; 1 =\n"
      "                      serial)\n"
      "  --metrics           print the per-cause issue-slot breakdown:\n"
      "                      where every scheduler slot of every cycle\n"
      "                      went (issued, scoreboard, bank_conflict,\n"
      "                      dispatch_limit, lds_throughput, barrier,\n"
      "                      no_eligible_warp)\n"
      "  --trace FILE        write a Chrome trace_event JSON timeline of\n"
      "                      per-warp issues and per-scheduler stalls\n"
      "                      (open in chrome://tracing or Perfetto)\n"
      "  --trace-ring N      retained trace events per track before the\n"
      "                      oldest are evicted (default 4096); evictions\n"
      "                      are reported in the JSON and on stderr\n"
      "  --probe FILE        evaluate the declarative probe specs in FILE\n"
      "                      over the launch's simulation events and print\n"
      "                      the results (see probes/ for stock specs);\n"
      "                      bit-identical for every --jobs value\n"
      "  --probe-out FILE    additionally write the probe results as a\n"
      "                      versioned JSON record (requires --probe)\n"
      "  --profile FILE      profile every static instruction (issues,\n"
      "                      dual issues, replays, lost slots by cause),\n"
      "                      print the annotated disassembly report, and\n"
      "                      write the versioned JSON record to FILE\n"
      "\n"
      "exit codes: 0 ok, 1 load/launch error, 2 usage, 3 runtime trap\n");
  return 2;
}

static constexpr const char *Tool = "gpurun";

int main(int Argc, char **Argv) {
  const char *Input = nullptr;
  std::string KernelName;
  const MachineDesc *M = nullptr;
  LaunchConfig Config;
  Config.Dims.BlockX = 256;
  Config.Dims.GridX = 1;
  Config.Jobs = 0; // The CLI defaults to one job per hardware thread.
  size_t MemBytes = 0;
  bool Metrics = false;
  bool Reschedule = false;
  std::string TracePath;
  SimTrace Trace;
  std::string ProfilePath;
  KernelProfile Profile;
  std::string ProbePath;
  std::string ProbeOutPath;
  ProbeEngine Probes;

  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--machine") == 0 && I + 1 < Argc) {
      M = findMachine(Argv[++I]);
      if (!M) {
        std::fprintf(stderr, "gpurun: unknown machine\n");
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--grid") == 0 && I + 1 < Argc) {
      std::string Spec = Argv[++I];
      size_t Comma = Spec.find(',');
      if (Comma != std::string::npos) {
        Config.Dims.GridY = static_cast<int>(flagInt(
            Tool, "--grid", Spec.substr(Comma + 1).c_str(), 1, 1 << 30));
        Spec.resize(Comma);
      }
      Config.Dims.GridX = static_cast<int>(
          flagInt(Tool, "--grid", Spec.c_str(), 1, 1 << 30));
    } else if (std::strcmp(Argv[I], "--block") == 0 && I + 1 < Argc) {
      Config.Dims.BlockX = static_cast<int>(
          flagInt(Tool, "--block", Argv[++I], 1, 1 << 20));
    } else if (std::strcmp(Argv[I], "--param") == 0 && I + 1 < Argc) {
      Config.Params.push_back(static_cast<uint32_t>(
          flagUnsigned(Tool, "--param", Argv[++I], 0xffffffffull)));
    } else if (std::strcmp(Argv[I], "--mem") == 0 && I + 1 < Argc) {
      MemBytes = static_cast<size_t>(
          flagUnsigned(Tool, "--mem", Argv[++I], ~0ull >> 1));
    } else if (std::strcmp(Argv[I], "--watchdog") == 0 && I + 1 < Argc) {
      Config.WatchdogCycles =
          flagUnsigned(Tool, "--watchdog", Argv[++I], ~0ull);
    } else if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc) {
      Config.Jobs =
          static_cast<int>(flagInt(Tool, "--jobs", Argv[++I], 0, 65536));
    } else if (std::strcmp(Argv[I], "--schedule") == 0 && I + 1 < Argc) {
      auto Choice = parseChoice(Argv[++I], {"drip", "list"});
      if (!Choice) {
        std::fprintf(stderr, "gpurun: --schedule: %s\n",
                     Choice.message().c_str());
        return 2;
      }
      Reschedule = *Choice == 1;
    } else if (std::strcmp(Argv[I], "--metrics") == 0) {
      Metrics = true;
    } else if (std::strcmp(Argv[I], "--trace") == 0 && I + 1 < Argc) {
      TracePath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--trace=", 8) == 0) {
      TracePath = Argv[I] + 8;
    } else if (std::strcmp(Argv[I], "--trace-ring") == 0 && I + 1 < Argc) {
      Trace.RingCapacity = static_cast<size_t>(
          flagInt(Tool, "--trace-ring", Argv[++I], 1, 1 << 30));
    } else if (std::strcmp(Argv[I], "--profile") == 0 && I + 1 < Argc) {
      ProfilePath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--profile=", 10) == 0) {
      ProfilePath = Argv[I] + 10;
    } else if (std::strcmp(Argv[I], "--probe") == 0 && I + 1 < Argc) {
      ProbePath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--probe=", 8) == 0) {
      ProbePath = Argv[I] + 8;
    } else if (std::strcmp(Argv[I], "--probe-out") == 0 && I + 1 < Argc) {
      ProbeOutPath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--probe-out=", 12) == 0) {
      ProbeOutPath = Argv[I] + 12;
    } else if (Argv[I][0] == '-') {
      return usage();
    } else if (!Input) {
      Input = Argv[I];
    } else if (KernelName.empty()) {
      KernelName = Argv[I];
    } else {
      return usage();
    }
  }
  if (!Input)
    return usage();
  if (!ProbeOutPath.empty() && ProbePath.empty()) {
    std::fprintf(stderr, "gpurun: --probe-out requires --probe\n");
    return 2;
  }
  if (!ProbePath.empty()) {
    auto Specs = loadProbeSpecFile(ProbePath);
    if (!Specs) {
      std::fprintf(stderr, "gpurun: --probe: %s\n",
                   Specs.message().c_str());
      return 2;
    }
    Probes = ProbeEngine(Specs.take());
  }

  auto Mod = Module::readFromFile(Input);
  if (!Mod) {
    std::fprintf(stderr, "gpurun: %s\n", Mod.message().c_str());
    return 1;
  }
  if (!M)
    M = Mod->Arch == GpuGeneration::Kepler ? &gtx680() : &gtx580();
  const Kernel *K = KernelName.empty()
                        ? (Mod->Kernels.empty() ? nullptr
                                                : &Mod->Kernels[0])
                        : Mod->findKernel(KernelName);
  if (!K) {
    std::fprintf(stderr, "gpurun: kernel not found\n");
    return 1;
  }
  Kernel Scheduled;
  if (Reschedule) {
    Scheduled = *K;
    int Swaps = rotateRegisterBanks(*M, Scheduled);
    SchedulerStats SS = scheduleKernel(*M, Scheduled);
    std::printf("schedule           %d region%s, %d instruction%s moved, "
                "%d bank swap%s\n",
                SS.Regions, SS.Regions == 1 ? "" : "s", SS.Moved,
                SS.Moved == 1 ? "" : "s", Swaps, Swaps == 1 ? "" : "s");
    K = &Scheduled;
  }

  GlobalMemory GM;
  if (MemBytes) {
    auto Base = GM.tryAllocate(MemBytes);
    if (!Base) {
      std::fprintf(stderr, "gpurun: --mem %zu: %s\n", MemBytes,
                   Base.message().c_str());
      return 1;
    }
    Config.Params.insert(Config.Params.begin(), *Base);
  }
  if (!TracePath.empty())
    Config.Trace = &Trace;
  if (!ProfilePath.empty())
    Config.Profile = &Profile;
  if (Probes.enabled())
    Config.Probes = &Probes;
  TrapInfo Trap;
  auto R = launchKernel(*M, *K, Config, GM, &Trap);
  if (!R) {
    if (Trap.valid()) {
      std::fprintf(stderr, "gpurun: %s\n", Trap.toString().c_str());
      return 3;
    }
    std::fprintf(stderr, "gpurun: %s\n", R.message().c_str());
    return 1;
  }
  const SimStats &S = R->Stats;
  std::printf("kernel %s on %s: grid %dx%d, block %d "
              "(%d blocks/SM resident, limited by %s)\n",
              K->Name.c_str(), M->Name.c_str(), Config.Dims.GridX,
              Config.Dims.GridY, Config.Dims.BlockX, R->Occ.ActiveBlocks,
              occupancyBindingLimitNames(R->Occ).c_str());
  std::printf("cycles             %12.0f\n", R->TotalCycles);
  std::printf("time               %12.3f us\n", R->seconds(*M) * 1e6);
  std::printf("thread insts       %12llu (%.2f per cycle per SM)\n",
              static_cast<unsigned long long>(S.ThreadInstsIssued),
              R->TotalCycles > 0
                  ? S.ThreadInstsIssued / R->TotalCycles / M->NumSMs
                  : 0.0);
  std::printf("FFMA insts         %12llu\n",
              static_cast<unsigned long long>(S.ffmaThreadInsts()));
  std::printf("global bytes       %12llu\n",
              static_cast<unsigned long long>(S.GlobalBytes));
  std::printf("shared conflicts   %12llu\n",
              static_cast<unsigned long long>(S.SharedConflictEvents));
  std::printf("scheduler replays  %12llu\n",
              static_cast<unsigned long long>(S.ReplayPenalties));

  if (Metrics) {
    // Issue-slot breakdown: each simulated cycle, each warp scheduler
    // owned exactly one slot, accounted to exactly one cause. The totals
    // therefore sum to aggregate SM-cycles x schedulers -- printed last
    // so the identity is checkable by eye (and by the test suite).
    int Scheds = M->WarpSchedulersPerSM > 1 ? M->WarpSchedulersPerSM : 1;
    uint64_t Total = S.Breakdown.total();
    std::printf("\nissue-slot breakdown (%d scheduler%s x %llu "
                "aggregate SM-cycles)\n",
                Scheds, Scheds == 1 ? "" : "s",
                static_cast<unsigned long long>(S.perSMCycles()));
    for (size_t U = 0; U < NumSlotUses; ++U) {
      uint64_t Slots = S.Breakdown.Slots[U];
      std::printf("  %-18s %14llu (%5.1f%%)\n",
                  slotUseName(static_cast<SlotUse>(U)),
                  static_cast<unsigned long long>(Slots),
                  Total ? 100.0 * Slots / Total : 0.0);
    }
    bool Holds =
        Total == S.perSMCycles() * static_cast<uint64_t>(Scheds);
    std::printf("  %-18s %14llu (%s aggregate cycles x schedulers)\n",
                "total", static_cast<unsigned long long>(Total),
                Holds ? "==" : "!=");
    if (!Holds) {
      std::fprintf(stderr,
                   "gpurun: issue-slot invariant violated (total %llu != "
                   "%llu x %d)\n",
                   static_cast<unsigned long long>(Total),
                   static_cast<unsigned long long>(S.perSMCycles()),
                   Scheds);
      return 1;
    }
  }

  if (!TracePath.empty()) {
    if (Status St = writeChromeTrace(Trace, *M, TracePath); !St) {
      std::fprintf(stderr, "gpurun: --trace: %s\n", St.message().c_str());
      return 1;
    }
    std::printf("trace              %zu events -> %s%s\n",
                Trace.Events.size(), TracePath.c_str(),
                Trace.DroppedEvents
                    ? formatString(" (%llu oldest events dropped by the "
                                   "per-track ring)",
                                   static_cast<unsigned long long>(
                                       Trace.DroppedEvents))
                          .c_str()
                    : "");
    if (Trace.DroppedEvents)
      std::fprintf(stderr,
                   "gpurun: warning: the trace is truncated: %llu oldest "
                   "events were evicted by the per-track ring "
                   "(capacity %zu); raise --trace-ring to keep them\n",
                   static_cast<unsigned long long>(Trace.DroppedEvents),
                   Trace.RingCapacity);
  }

  if (Probes.enabled()) {
    std::printf("\nprobe results (%s)\n%s", ProbePath.c_str(),
                Probes.report().c_str());
    if (!ProbeOutPath.empty()) {
      std::string Json =
          probeRecordJson(Probes, MetricsSchemaVersion, M->Name, K->Name);
      if (Status St = writeTextFile(ProbeOutPath, Json); !St) {
        std::fprintf(stderr, "gpurun: --probe-out: %s\n",
                     St.message().c_str());
        return 1;
      }
      std::printf("probe record       %zu bytes -> %s\n", Json.size(),
                  ProbeOutPath.c_str());
    }
  }

  if (!ProfilePath.empty()) {
    std::printf("\n%s",
                renderAnnotatedReport(*M, *K, Profile).c_str());
    ProfileRecordInfo Info;
    Info.Schedule = Reschedule ? "list" : "drip";
    Info.GridX = Config.Dims.GridX;
    Info.GridY = Config.Dims.GridY;
    Info.BlockX = Config.Dims.BlockX;
    Info.BlockY = Config.Dims.BlockY;
    Info.TotalCycles = R->TotalCycles;
    std::string Json = profileRecordJson(*M, *K, Profile, Info);
    if (Status St = writeTextFile(ProfilePath, Json); !St) {
      std::fprintf(stderr, "gpurun: --profile: %s\n", St.message().c_str());
      return 1;
    }
    std::printf("profile            %zu bytes -> %s\n", Json.size(),
                ProfilePath.c_str());
  }
  return 0;
}

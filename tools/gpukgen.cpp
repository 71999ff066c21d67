//===- tools/gpukgen.cpp - SGEMM kernel/module generator --------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Generates one of the paper's named SGEMM implementations as a binary
// module, so scripts and CI can drive gpurun (and its --profile, --probe
// and --trace observers) on the exact kernels the test suite and benches
// study without writing C++.
//
//   gpukgen out.gpub [--machine GTX580|GTX680] [--variant nn|nt]
//           [--impl tuned|naive|cublas|magma] [--mnk M,N,K] [--launch]
//
// --launch prints, on stdout, the gpurun argument string for the
// generated kernel (machine, grid, block, --mem sized for A/B/C with
// 256-aligned bump addresses, and the five kernel parameters with
// alpha=1, beta=0); everything else goes to stderr. Typical use:
//
//   gpukgen build/sgemm.gpub --machine GTX680 --mnk 192,192,64 --launch
//       (redirect stdout to args.txt)
//   gpurun build/sgemm.gpub $(cat args.txt) --probe probes/gmem_bytes.probe
//
// Exit codes: 0 success, 1 generation/write error, 2 usage.
//
//===----------------------------------------------------------------------===//

#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"
#include "support/Args.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace gpuperf;

static int usage() {
  std::fprintf(
      stderr,
      "usage: gpukgen out.gpub [--machine GTX580|GTX680]\n"
      "               [--variant nn|nt] [--impl tuned|naive|cublas|magma]\n"
      "               [--mnk M,N,K] [--launch]\n"
      "\n"
      "  --mnk M,N,K   problem size (default 192,192,64)\n"
      "  --launch      print the matching gpurun argument string on\n"
      "                stdout (--machine/--grid/--block/--mem/--param...)\n"
      "\n"
      "exit codes: 0 ok, 1 generation/write error, 2 usage\n");
  return 2;
}

static constexpr const char *Tool = "gpukgen";

int main(int Argc, char **Argv) {
  const char *Output = nullptr;
  const MachineDesc *M = &gtx680();
  GemmVariant Variant = GemmVariant::NN;
  SgemmImpl Impl = SgemmImpl::AsmTuned;
  int SizeM = 192, SizeN = 192, SizeK = 64;
  bool PrintLaunch = false;

  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--machine") == 0 && I + 1 < Argc) {
      M = findMachine(Argv[++I]);
      if (!M) {
        std::fprintf(stderr, "gpukgen: unknown machine\n");
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--variant") == 0 && I + 1 < Argc) {
      auto Choice = parseChoice(Argv[++I], {"nn", "nt"});
      if (!Choice) {
        std::fprintf(stderr, "gpukgen: --variant: %s\n",
                     Choice.message().c_str());
        return 2;
      }
      Variant = *Choice == 0 ? GemmVariant::NN : GemmVariant::NT;
    } else if (std::strcmp(Argv[I], "--impl") == 0 && I + 1 < Argc) {
      auto Choice =
          parseChoice(Argv[++I], {"tuned", "naive", "cublas", "magma"});
      if (!Choice) {
        std::fprintf(stderr, "gpukgen: --impl: %s\n",
                     Choice.message().c_str());
        return 2;
      }
      Impl = static_cast<SgemmImpl>(*Choice);
    } else if (std::strcmp(Argv[I], "--mnk") == 0 && I + 1 < Argc) {
      std::string Spec = Argv[++I];
      size_t C1 = Spec.find(',');
      size_t C2 = C1 == std::string::npos ? C1 : Spec.find(',', C1 + 1);
      if (C1 == std::string::npos || C2 == std::string::npos) {
        std::fprintf(stderr, "gpukgen: --mnk expects M,N,K\n");
        return 2;
      }
      SizeM = static_cast<int>(
          flagInt(Tool, "--mnk", Spec.substr(0, C1).c_str(), 1, 1 << 20));
      SizeN = static_cast<int>(
          flagInt(Tool, "--mnk", Spec.substr(C1 + 1, C2 - C1 - 1).c_str(),
                  1, 1 << 20));
      SizeK = static_cast<int>(
          flagInt(Tool, "--mnk", Spec.substr(C2 + 1).c_str(), 1, 1 << 20));
    } else if (std::strcmp(Argv[I], "--launch") == 0) {
      PrintLaunch = true;
    } else if (Argv[I][0] == '-') {
      return usage();
    } else if (!Output) {
      Output = Argv[I];
    } else {
      return usage();
    }
  }
  if (!Output)
    return usage();

  SgemmKernelConfig Cfg =
      baselineConfig(Impl, *M, Variant, SizeM, SizeN, SizeK);
  auto K = generateSgemmKernel(*M, Cfg);
  if (!K) {
    std::fprintf(stderr, "gpukgen: %s\n", K.message().c_str());
    return 1;
  }

  Module Mod;
  Mod.Arch = M->Generation;
  Mod.Kernels.push_back(K.take());
  if (Status St = Mod.writeToFile(Output); St.failed()) {
    std::fprintf(stderr, "gpukgen: %s\n", St.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "gpukgen: wrote %s (%s %s %dx%dx%d) -> %s\n",
               Mod.Kernels[0].Name.c_str(), sgemmImplName(Impl),
               Variant == GemmVariant::NN ? "NN" : "NT", SizeM, SizeN,
               SizeK, Output);

  if (PrintLaunch) {
    // Mirror the bump allocator behind gpurun --mem: the allocation base
    // is 256 and is prepended as the first parameter, so A's address is
    // the base itself and B/C follow at 256-aligned offsets.
    auto Round256 = [](size_t N) { return (N + 255) & ~size_t(255); };
    size_t ABytes = size_t(SizeM) * SizeK * 4;
    size_t BBytes = size_t(SizeK) * SizeN * 4;
    size_t CBytes = size_t(SizeM) * SizeN * 4;
    uint32_t BAddr = 256 + static_cast<uint32_t>(Round256(ABytes));
    uint32_t CAddr = BAddr + static_cast<uint32_t>(Round256(BBytes));
    size_t MemBytes = Round256(ABytes) + Round256(BBytes) + CBytes + 512;
    SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
    std::printf("--machine %s --grid %d,%d --block %d --mem %zu "
                "--param %u --param %u --param 0x3f800000 --param 0\n",
                M->Name.c_str(), Shape.GridX, Shape.GridY, Shape.BlockX,
                MemBytes, BAddr, CAddr);
  }
  return 0;
}

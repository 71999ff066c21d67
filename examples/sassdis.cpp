//===- examples/sassdis.cpp - a disassembler/analyzer command-line tool ---===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// A small binary-module workflow tool, in the spirit of the paper's
// reverse-engineering setup: generate an SGEMM kernel, serialize it to a
// module file (the cubin-like "GPUB" format, with Kepler control words
// interleaved), load it back, disassemble it and run the Figure 8
// analyses on it.
//
// Usage: sassdis [GTX580|GTX680] [NN|NT|TN|TT] [out.gpub]
//
//===----------------------------------------------------------------------===//

#include "analysis/BinaryAnalysis.h"
#include "asmtool/Disassembler.h"
#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"

#include <cstdio>
#include <cstring>

using namespace gpuperf;

int main(int Argc, char **Argv) {
  const MachineDesc *M = &gtx680();
  GemmVariant Variant = GemmVariant::NN;
  const char *Path = "sgemm.gpub";
  if (Argc > 1 && findMachine(Argv[1]))
    M = findMachine(Argv[1]);
  if (Argc > 2) {
    for (GemmVariant V : {GemmVariant::NN, GemmVariant::NT,
                          GemmVariant::TN, GemmVariant::TT})
      if (std::strcmp(Argv[2], gemmVariantName(V)) == 0)
        Variant = V;
  }
  if (Argc > 3)
    Path = Argv[3];

  // Generate and serialize.
  auto Cfg = baselineConfig(SgemmImpl::AsmTuned, *M, Variant, 960, 960,
                            960);
  auto K = generateSgemmKernel(*M, Cfg);
  if (!K) {
    std::fprintf(stderr, "generation failed: %s\n", K.message().c_str());
    return 1;
  }
  Module Mod;
  Mod.Arch = M->Generation;
  Mod.Kernels.push_back(*K);
  if (Status S = Mod.writeToFile(Path); S.failed()) {
    std::fprintf(stderr, "write failed: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("wrote %zu-byte module to %s (%s)\n", Mod.serialize().size(),
              Path,
              M->Generation == GpuGeneration::Kepler
                  ? "with interleaved control-notation words"
                  : "no control words on Fermi");

  // Load it back and analyze, as one would a foreign binary.
  auto Back = Module::readFromFile(Path);
  if (!Back) {
    std::fprintf(stderr, "load failed: %s\n", Back.message().c_str());
    return 1;
  }
  const Kernel &BK = Back->Kernels[0];
  std::printf("\n%s\n", renderKernelReport(BK).c_str());

  std::string Text = disassembleKernel(BK);
  std::printf("first 24 lines of disassembly:\n");
  size_t Pos = 0;
  for (int Line = 0; Line < 24 && Pos != std::string::npos; ++Line) {
    size_t End = Text.find('\n', Pos);
    std::printf("  %s\n", Text.substr(Pos, End - Pos).c_str());
    Pos = End == std::string::npos ? End : End + 1;
  }
  std::printf("  ... (%zu instructions total)\n", BK.Code.size());
  return 0;
}

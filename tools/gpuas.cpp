//===- tools/gpuas.cpp - assembler driver ----------------------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Assembles a text file in the native assembly language into a binary
// module (the role asfermi played for the paper).
//
//   gpuas input.asm [-o out.gpub] [--notation none|heuristic|tuned]
//
// The --notation option rewrites the Kepler scheduling control words with
// the chosen quality before writing the module.
//
//===----------------------------------------------------------------------===//

#include "asmtool/Assembler.h"
#include "asmtool/NotationTuner.h"
#include "support/Args.h"
#include "support/FileIO.h"

#include <cstdio>
#include <cstring>

using namespace gpuperf;

static int usage() {
  std::fprintf(stderr,
               "usage: gpuas input.asm [-o out.gpub] "
               "[--notation none|heuristic|tuned]\n"
               "\n"
               "  --notation  rewrite the Kepler scheduling control words\n"
               "              with the chosen quality before writing\n"
               "\n"
               "exit codes: 0 ok, 1 assembly/write error, 2 usage\n");
  return 2;
}

int main(int Argc, char **Argv) {
  const char *Input = nullptr;
  std::string Output;
  bool HaveNotation = false;
  NotationQuality Notation = NotationQuality::Heuristic;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "-o") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "gpuas: -o: expected an output path\n");
        return usage();
      }
      Output = Argv[++I];
    } else if (std::strcmp(Arg, "--notation") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "gpuas: --notation: expected a quality\n");
        return usage();
      }
      Expected<int> Choice =
          parseChoice(Argv[++I], {"none", "heuristic", "tuned"});
      if (!Choice.hasValue()) {
        std::fprintf(stderr, "gpuas: --notation: %s\n",
                     Choice.message().c_str());
        return usage();
      }
      Notation = *Choice == 0   ? NotationQuality::None
                 : *Choice == 1 ? NotationQuality::Heuristic
                                : NotationQuality::Tuned;
      HaveNotation = true;
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "gpuas: unknown option '%s'\n", Arg);
      return usage();
    } else if (!Input) {
      Input = Arg;
    } else {
      std::fprintf(stderr, "gpuas: unexpected extra operand '%s'\n", Arg);
      return usage();
    }
  }
  if (!Input)
    return usage();
  if (Output.empty()) {
    Output = Input;
    size_t Dot = Output.rfind('.');
    if (Dot != std::string::npos)
      Output.resize(Dot);
    Output += ".gpub";
  }

  auto Source = readFileBytes(Input);
  if (!Source) {
    std::fprintf(stderr, "gpuas: %s\n", Source.message().c_str());
    return 1;
  }

  auto M = assembleText(std::string_view(
      reinterpret_cast<const char *>(Source->data()), Source->size()));
  if (!M) {
    std::fprintf(stderr, "gpuas: %s: %s\n", Input, M.message().c_str());
    return 1;
  }
  if (HaveNotation) {
    if (M->Arch == GpuGeneration::Kepler) {
      for (Kernel &K : M->Kernels)
        tuneNotations(gtx680(), K, Notation);
    } else {
      std::fprintf(stderr,
                   "gpuas: warning: --notation ignored for non-Kepler "
                   "module\n");
    }
  }
  if (Status S = M->writeToFile(Output); S.failed()) {
    std::fprintf(stderr, "gpuas: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("gpuas: wrote %s (%zu kernels)\n", Output.c_str(),
              M->Kernels.size());
  return 0;
}

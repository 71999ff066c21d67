//===- isa/Module.cpp - kernels and the binary module format --------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "isa/Module.h"

#include "isa/Encoding.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/LittleEndian.h"

#include <cstring>
#include <fstream>

using namespace gpuperf;

static constexpr uint32_t ModuleMagic = 0x42555047; // "GPUB" little-endian.
static constexpr uint32_t ModuleVersion = 1;

// Absolute sanity caps for deserialization, far above anything the
// toolchain produces. File-size-proportional checks below already bound
// allocations; these additionally reject absurd headers in huge files.
static constexpr uint32_t MaxModuleKernels = 1u << 16;
static constexpr uint32_t MaxKernelNameBytes = 1u << 12;
static constexpr uint32_t MaxKernelInsts = 1u << 22;

void Kernel::addDefaultNotations() {
  Notations.assign(requiredNotationCount(), ControlNotation());
}

void Kernel::recomputeRegUsage() {
  int MaxReg = -1;
  for (const Instruction &I : Code) {
    for (uint8_t R : I.sourceRegs())
      MaxReg = std::max(MaxReg, static_cast<int>(R));
    for (uint8_t R : I.destRegs())
      MaxReg = std::max(MaxReg, static_cast<int>(R));
  }
  RegsPerThread = MaxReg + 1;
}

const Kernel *Module::findKernel(const std::string &Name) const {
  for (const Kernel &K : Kernels)
    if (K.Name == Name)
      return &K;
  return nullptr;
}

Kernel *Module::findKernel(const std::string &Name) {
  for (Kernel &K : Kernels)
    if (K.Name == Name)
      return &K;
  return nullptr;
}

std::vector<uint8_t> Module::serialize() const {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.writeU32(ModuleMagic);
  W.writeU32(ModuleVersion);
  W.writeU32(static_cast<uint32_t>(Arch));
  W.writeU32(static_cast<uint32_t>(Kernels.size()));
  for (const Kernel &K : Kernels) {
    W.writeString(K.Name);
    W.writeU32(static_cast<uint32_t>(K.RegsPerThread));
    W.writeU32(static_cast<uint32_t>(K.SharedBytes));
    W.writeU32(static_cast<uint32_t>(K.Code.size()));
    W.writeU32(K.hasNotations() ? 1 : 0);
    if (K.hasNotations()) {
      assert(K.Notations.size() == K.requiredNotationCount() &&
             "notation count does not cover the code");
      // Interleave: one control word before each group of 7 instructions,
      // as in real Kepler binaries (Section 3.2).
      for (size_t I = 0; I < K.Code.size(); ++I) {
        if (I % NotationGroupSize == 0)
          W.writeU64(K.Notations[I / NotationGroupSize].pack());
        W.writeU64(encodeInstruction(K.Code[I]));
      }
    } else {
      for (const Instruction &Inst : K.Code)
        W.writeU64(encodeInstruction(Inst));
    }
  }
  return Out;
}

Status Module::writeToFile(const std::string &Path) const {
  std::vector<uint8_t> Bytes = serialize();
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return Status::error(formatString("cannot open %s for writing",
                                      Path.c_str()));
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  if (!Out)
    return Status::error(formatString("write to %s failed", Path.c_str()));
  return Status::success();
}

Expected<Module> Module::readFromFile(const std::string &Path) {
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeStatus();
  return deserialize(*Bytes);
}

Expected<Module> Module::deserialize(const std::vector<uint8_t> &Bytes) {
  using EM = Expected<Module>;
  ByteReader R(Bytes);
  uint32_t Magic = 0, Version = 0, Arch = 0, NumKernels = 0;
  if (!R.readU32(Magic) || Magic != ModuleMagic)
    return EM::error("bad module magic. Expected \"GPUB\"");
  if (!R.readU32(Version) || Version != ModuleVersion)
    return EM::error(formatString("unsupported module version %u", Version));
  if (!R.readU32(Arch) ||
      Arch > static_cast<uint32_t>(GpuGeneration::Kepler))
    return EM::error("invalid architecture id");
  if (!R.readU32(NumKernels))
    return EM::error("truncated module header");
  // Each kernel needs at least its 20-byte header; a corrupt count must
  // not drive huge allocations.
  if (NumKernels > MaxModuleKernels || NumKernels > R.remaining() / 20)
    return EM::error("kernel count exceeds the file size");

  Module M;
  M.Arch = static_cast<GpuGeneration>(Arch);
  for (uint32_t KI = 0; KI < NumKernels; ++KI) {
    Kernel K;
    uint32_t Regs = 0, Shared = 0, NumInsts = 0, HasNotations = 0;
    if (!R.readString(K.Name) || !R.readU32(Regs) || !R.readU32(Shared) ||
        !R.readU32(NumInsts) || !R.readU32(HasNotations))
      return EM::error(formatString("truncated kernel header %u", KI));
    if (K.Name.size() > MaxKernelNameBytes)
      return EM::error(formatString("implausible kernel name length %zu",
                                    K.Name.size()));
    if (Regs > 255 || Shared > 1u << 20)
      return EM::error(formatString(
          "implausible kernel header (%u registers, %u shared bytes)",
          Regs, Shared));
    // Every instruction occupies at least 8 bytes in the stream.
    if (NumInsts > MaxKernelInsts || NumInsts > R.remaining() / 8)
      return EM::error("instruction count exceeds the file size");
    K.RegsPerThread = static_cast<int>(Regs);
    K.SharedBytes = static_cast<int>(Shared);
    K.Code.reserve(NumInsts);
    for (uint32_t I = 0; I < NumInsts; ++I) {
      if (HasNotations && I % NotationGroupSize == 0) {
        uint64_t CtrlWord = 0;
        if (!R.readU64(CtrlWord))
          return EM::error("truncated code stream (control word)");
        auto N = ControlNotation::unpack(CtrlWord);
        if (!N)
          return EM::error(formatString(
              "kernel %s, instruction group %u: %s", K.Name.c_str(),
              I / NotationGroupSize, N.message().c_str()));
        K.Notations.push_back(*N);
      }
      uint64_t Word = 0;
      if (!R.readU64(Word))
        return EM::error("truncated code stream (instruction word)");
      auto Inst = decodeInstruction(Word);
      if (!Inst)
        return EM::error(formatString("kernel %s, instruction %u: %s",
                                      K.Name.c_str(), I,
                                      Inst.message().c_str()));
      K.Code.push_back(*Inst);
    }
    M.Kernels.push_back(std::move(K));
  }
  if (!R.atEnd())
    return EM::error("trailing bytes after last kernel");
  return M;
}

//===- tests/IsaTest.cpp - ISA, encoding, module format unit tests --------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "isa/ControlNotation.h"
#include "isa/Encoding.h"
#include "isa/Instruction.h"
#include "isa/Module.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace gpuperf;

// --- Opcode traits ------------------------------------------------------------

TEST(Opcode, MnemonicRoundTrip) {
  for (int Op = 0; Op < static_cast<int>(Opcode::NumOpcodes); ++Op) {
    Opcode O = static_cast<Opcode>(Op);
    EXPECT_EQ(parseOpcodeMnemonic(opcodeMnemonic(O)), O);
  }
  EXPECT_EQ(parseOpcodeMnemonic("BOGUS"), Opcode::NumOpcodes);
}

TEST(Opcode, Classification) {
  EXPECT_TRUE(isMathOpcode(Opcode::FFMA));
  EXPECT_TRUE(isMathOpcode(Opcode::IMAD));
  EXPECT_FALSE(isMathOpcode(Opcode::LDS));
  EXPECT_FALSE(isMathOpcode(Opcode::BRA));
  EXPECT_EQ(opcodeInfo(Opcode::IMUL).Class, OpClass::IntMulMath);
  EXPECT_EQ(opcodeInfo(Opcode::LDS).Class, OpClass::SharedMem);
  EXPECT_EQ(opcodeInfo(Opcode::LD).Class, OpClass::GlobalMem);
}

// --- Instruction semantics ------------------------------------------------------

TEST(Instruction, SourceAndDestRegs) {
  Instruction I = makeFFMA(10, 11, 12, 13);
  RegList Srcs = I.sourceRegs();
  EXPECT_EQ(Srcs.Count, 3);
  EXPECT_TRUE(Srcs.contains(11));
  EXPECT_TRUE(Srcs.contains(12));
  EXPECT_TRUE(Srcs.contains(13));
  RegList Dsts = I.destRegs();
  EXPECT_EQ(Dsts.Count, 1);
  EXPECT_TRUE(Dsts.contains(10));
}

TEST(Instruction, WideLoadsWidenDest) {
  Instruction I = makeLDS(MemWidth::B128, 8, 20, 0);
  RegList Dsts = I.destRegs();
  EXPECT_EQ(Dsts.Count, 4);
  for (uint8_t R = 8; R < 12; ++R)
    EXPECT_TRUE(Dsts.contains(R));
}

TEST(Instruction, WideStoresWidenSource) {
  Instruction I = makeSTS(MemWidth::B64, 20, 16, 30);
  RegList Srcs = I.sourceRegs();
  EXPECT_EQ(Srcs.Count, 3); // Address + two data words.
  EXPECT_TRUE(Srcs.contains(20));
  EXPECT_TRUE(Srcs.contains(30));
  EXPECT_TRUE(Srcs.contains(31));
}

TEST(Instruction, RZIsExcluded) {
  Instruction I = makeFADD(RegRZ, RegRZ, 5);
  EXPECT_EQ(I.sourceRegs().Count, 1);
  EXPECT_EQ(I.destRegs().Count, 0);
}

TEST(Instruction, RepeatedOperandDetection) {
  // FFMA RA, RB, RB, RA: 3 source slots, 2 distinct.
  Instruction I = makeFFMA(4, 6, 6, 4);
  EXPECT_EQ(I.numSourceSlots(), 3);
  EXPECT_EQ(I.numDistinctSourceRegs(), 2);
  EXPECT_TRUE(I.dstIsAlsoSource());

  Instruction J = makeFFMA(0, 1, 4, 5);
  EXPECT_EQ(J.numSourceSlots(), 3);
  EXPECT_EQ(J.numDistinctSourceRegs(), 3);
  EXPECT_FALSE(J.dstIsAlsoSource());
}

TEST(Instruction, ImmediateReplacesSecondSlot) {
  Instruction I = makeIADDImm(3, 4, -100);
  EXPECT_TRUE(I.immReplacesSrc1());
  EXPECT_EQ(I.sourceRegs().Count, 1);
  EXPECT_EQ(I.numSourceSlots(), 1);

  Instruction Mem = makeLDS(MemWidth::B32, 0, 1, 16);
  EXPECT_FALSE(Mem.immReplacesSrc1()); // Offset, not an operand.
}

TEST(Instruction, ToStringForms) {
  EXPECT_EQ(makeFFMA(0, 1, 2, 3).toString(), "FFMA R0, R1, R2, R3");
  EXPECT_EQ(makeLDS(MemWidth::B64, 8, 20, 64).toString(),
            "LDS.64 R8, [R20+64]");
  EXPECT_EQ(makeSTS(MemWidth::B32, 5, -8, 7).toString(),
            "STS [R5-8], R7");
  EXPECT_EQ(makeISETP(CmpOp::GE, 0, 5, 6).toString(),
            "ISETP.GE P0, R5, R6");
  EXPECT_EQ(makeBRA(-7, 0, true).toString(), "@!P0 BRA -7");
  EXPECT_EQ(makeMOV32I(2, 0xdeadbeef).toString(), "MOV32I R2, 0xdeadbeef");
  EXPECT_EQ(makeS2R(0, SpecialReg::TID_X).toString(), "S2R R0, SR_TID.X");
  EXPECT_EQ(makeBAR().toString(), "BAR.SYNC");
  EXPECT_EQ(makeIADDImm(1, 1, -4).toString(), "IADD R1, R1, -4");
}

// --- Binary encoding ------------------------------------------------------------

namespace {

bool sameInstruction(const Instruction &A, const Instruction &B) {
  return A.Op == B.Op && A.Width == B.Width && A.GuardPred == B.GuardPred &&
         A.GuardNeg == B.GuardNeg && A.Dst == B.Dst &&
         A.Src[0] == B.Src[0] && A.Src[1] == B.Src[1] &&
         A.Src[2] == B.Src[2] && A.HasImm == B.HasImm && A.Imm == B.Imm &&
         A.Aux == B.Aux;
}

std::vector<Instruction> representativeInstructions() {
  return {
      makeFFMA(0, 1, 2, 3),
      makeFFMA(62, 61, 60, 59),
      makeFADD(5, 5, 5),
      makeFMUL(7, 8, RegRZ),
      makeIADDImm(3, 3, -1),
      makeIADD(10, 11, 12),
      makeIMAD(20, 21, 22, 23),
      makeIMADImm(20, 21, 4800, 23),
      makeISCADD(15, 16, 17, 4),
      makeSHLImm(9, 10, 7),
      makeXORImm(30, 30, 4096),
      makeMOV(1, 2),
      makeMOV32I(2, 0xffffffffu),
      makeMOV32I(2, 0),
      makeS2R(0, SpecialReg::NCTAID_Y),
      makeLDC(4, 0x20),
      makeISETP(CmpOp::NE, 3, 5, RegRZ),
      makeLDS(MemWidth::B32, 6, 40, 4),
      makeLDS(MemWidth::B64, 6, 40, 8),
      makeLDS(MemWidth::B128, 8, 40, 16),
      makeSTS(MemWidth::B64, 40, 24, 10),
      makeLD(MemWidth::B128, 12, 41, 128),
      makeST(MemWidth::B32, 41, -4, 13),
      makeBRA(-100),
      makeBRA(0, 2, true),
      makeBAR(),
      makeEXIT(),
  };
}

} // namespace

TEST(Encoding, RoundTripRepresentative) {
  for (const Instruction &I : representativeInstructions()) {
    uint64_t Word = encodeInstruction(I);
    auto Back = decodeInstruction(Word);
    ASSERT_TRUE(Back.hasValue()) << I.toString() << ": " << Back.message();
    EXPECT_TRUE(sameInstruction(I, *Back))
        << I.toString() << " vs " << Back->toString();
  }
}

TEST(Encoding, GuardPredicateSurvives) {
  Instruction I = makeFFMA(0, 1, 2, 3);
  I.GuardPred = 2;
  I.GuardNeg = true;
  auto Back = decodeInstruction(encodeInstruction(I));
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->GuardPred, 2);
  EXPECT_TRUE(Back->GuardNeg);
}

TEST(Encoding, RejectsInvalidOpcodeField) {
  uint64_t Word = static_cast<uint64_t>(60) << 58; // Beyond NumOpcodes.
  EXPECT_FALSE(decodeInstruction(Word).hasValue());
}

TEST(Encoding, Imm24Bounds) {
  EXPECT_TRUE(fitsImm24(0));
  EXPECT_TRUE(fitsImm24(Imm24Max));
  EXPECT_TRUE(fitsImm24(Imm24Min));
  EXPECT_FALSE(fitsImm24(Imm24Max + 1));
  EXPECT_FALSE(fitsImm24(Imm24Min - 1));
}

TEST(Encoding, NegativeImmediateSignExtends) {
  Instruction I = makeIADDImm(1, 2, -4096);
  auto Back = decodeInstruction(encodeInstruction(I));
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->Imm, -4096);
}

// Property sweep: random-but-valid instructions round-trip.
TEST(Encoding, RoundTripRandomizedProperty) {
  Rng R(42);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    Instruction I = makeFFMA(
        static_cast<uint8_t>(R.nextBelow(63)),
        static_cast<uint8_t>(R.nextBelow(64)),
        static_cast<uint8_t>(R.nextBelow(64)),
        static_cast<uint8_t>(R.nextBelow(64)));
    I.GuardPred = static_cast<uint8_t>(
        R.nextBelow(2) ? PredPT : R.nextBelow(NumPredRegs));
    I.GuardNeg = R.nextBelow(2);
    auto Back = decodeInstruction(encodeInstruction(I));
    ASSERT_TRUE(Back.hasValue());
    EXPECT_TRUE(sameInstruction(I, *Back));
  }
}

// --- Control notation -----------------------------------------------------------

TEST(ControlNotation, IdentifierNibbles) {
  ControlNotation N;
  uint64_t Word = N.pack();
  EXPECT_EQ(Word & 0xf, 0x7u) << "low nibble must be 0x7";
  EXPECT_EQ(Word >> 60, 0x2u) << "high nibble must be 0x2";
  EXPECT_TRUE(ControlNotation::isControlWord(Word));
  EXPECT_FALSE(ControlNotation::isControlWord(0));
}

TEST(ControlNotation, PackUnpackRoundTrip) {
  ControlNotation N;
  for (int I = 0; I < NotationGroupSize; ++I) {
    N.Fields[I].StallCycles = static_cast<uint8_t>((I * 3) % 16);
    N.Fields[I].Yield = I % 2;
    N.Fields[I].DualIssue = I % 3 == 0;
  }
  auto Back = ControlNotation::unpack(N.pack());
  ASSERT_TRUE(Back.hasValue());
  EXPECT_TRUE(N == *Back);
}

TEST(ControlNotation, UnpackRejectsPlainWords) {
  EXPECT_FALSE(ControlNotation::unpack(0x12345678).hasValue());
}

// --- Module serialization --------------------------------------------------------

namespace {

Kernel tinyKernel(const std::string &Name) {
  Kernel K;
  K.Name = Name;
  K.Code = {makeMOV32I(0, 7), makeFADD(1, 0, 0), makeEXIT()};
  K.recomputeRegUsage();
  K.SharedBytes = 128;
  return K;
}

} // namespace

TEST(Module, RecomputeRegUsage) {
  Kernel K = tinyKernel("k");
  EXPECT_EQ(K.RegsPerThread, 2); // R0 and R1.
}

TEST(Module, SerializeDeserializeFermi) {
  Module M;
  M.Arch = GpuGeneration::Fermi;
  M.Kernels.push_back(tinyKernel("a"));
  M.Kernels.push_back(tinyKernel("b"));
  auto Back = Module::deserialize(M.serialize());
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Back->Arch, GpuGeneration::Fermi);
  ASSERT_EQ(Back->Kernels.size(), 2u);
  EXPECT_EQ(Back->Kernels[0].Name, "a");
  EXPECT_EQ(Back->Kernels[1].Name, "b");
  EXPECT_EQ(Back->Kernels[0].Code.size(), 3u);
  EXPECT_EQ(Back->Kernels[0].SharedBytes, 128);
  EXPECT_FALSE(Back->Kernels[0].hasNotations());
}

TEST(Module, SerializeInterleavesKeplerControlWords) {
  Module M;
  M.Arch = GpuGeneration::Kepler;
  Kernel K;
  K.Name = "k";
  for (int I = 0; I < 10; ++I) // Two notation groups (7 + 3).
    K.Code.push_back(makeFADD(1, 0, 0));
  K.Code.push_back(makeEXIT());
  K.recomputeRegUsage();
  K.addDefaultNotations();
  ASSERT_EQ(K.Notations.size(), 2u);
  K.Notations[1].Fields[2].StallCycles = 5;
  M.Kernels.push_back(K);

  std::vector<uint8_t> Bytes = M.serialize();
  auto Back = Module::deserialize(Bytes);
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  ASSERT_EQ(Back->Kernels.size(), 1u);
  const Kernel &BK = Back->Kernels[0];
  ASSERT_TRUE(BK.hasNotations());
  ASSERT_EQ(BK.Notations.size(), 2u);
  EXPECT_EQ(BK.Notations[1].Fields[2].StallCycles, 5);
  EXPECT_EQ(BK.Code.size(), 11u);
}

TEST(Module, DeserializeRejectsBadMagic) {
  std::vector<uint8_t> Bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  auto Back = Module::deserialize(Bytes);
  EXPECT_FALSE(Back.hasValue());
  EXPECT_NE(Back.message().find("magic"), std::string::npos);
}

TEST(Module, DeserializeRejectsTruncation) {
  Module M;
  M.Arch = GpuGeneration::Fermi;
  M.Kernels.push_back(tinyKernel("a"));
  std::vector<uint8_t> Bytes = M.serialize();
  Bytes.resize(Bytes.size() - 5);
  EXPECT_FALSE(Module::deserialize(Bytes).hasValue());
}

TEST(Module, DeserializeRejectsTrailingGarbage) {
  Module M;
  M.Arch = GpuGeneration::Fermi;
  M.Kernels.push_back(tinyKernel("a"));
  std::vector<uint8_t> Bytes = M.serialize();
  Bytes.push_back(0);
  EXPECT_FALSE(Module::deserialize(Bytes).hasValue());
}

TEST(Module, ReadFromFileReportsAnUnreadablePath) {
  std::string Dir = ::testing::TempDir();
  auto FromDir = Module::readFromFile(Dir);
  ASSERT_FALSE(FromDir.hasValue());
  EXPECT_NE(FromDir.message().find(Dir), std::string::npos)
      << FromDir.message();
  EXPECT_NE(FromDir.message().find("Is a directory"), std::string::npos)
      << FromDir.message();
}

TEST(Module, FindKernel) {
  Module M;
  M.Kernels.push_back(tinyKernel("x"));
  EXPECT_NE(M.findKernel("x"), nullptr);
  EXPECT_EQ(M.findKernel("y"), nullptr);
}

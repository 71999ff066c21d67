//===- tests/ProbeTest.cpp - probe engine correctness and determinism -----===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The probe layer's acceptance properties end to end: the spec parser
/// accepts the documented grammar and rejects malformed input with a
/// line:column diagnostic; the engine folds and merges every aggregation
/// correctly; shadow probes attached to a real launch reproduce the
/// simulator's own aggregate counters exactly (SimStats, StallBreakdown,
/// KernelProfile); results are bit-identical for every --jobs value on
/// both machines; and the gpurun/perfdiff CLI surface behaves (exit 2 on
/// malformed specs, --probe-out gated on --probe, --require gating, a
/// diagnostic and an error exit from every tool given a directory).
///
//===----------------------------------------------------------------------===//

#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"
#include "probe/ProbeEngine.h"
#include "probe/ProbeSpec.h"
#include "sim/Launcher.h"
#include "sim/Observers.h"
#include "sim/Profile.h"
#include "sim/Trace.h"
#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/wait.h>

using namespace gpuperf;

namespace {

//===----------------------------------------------------------------------===//
// Spec parser
//===----------------------------------------------------------------------===//

std::vector<ProbeSpec> mustParse(const std::string &Text) {
  auto S = parseProbeSpecs(Text, "<test>");
  EXPECT_TRUE(S.hasValue()) << S.message();
  return S.hasValue() ? S.take() : std::vector<ProbeSpec>{};
}

std::string parseError(const std::string &Text) {
  auto S = parseProbeSpecs(Text, "spec");
  EXPECT_FALSE(S.hasValue()) << "expected a parse error";
  return S.hasValue() ? std::string() : S.message();
}

TEST(ProbeSpecParser, AcceptsDocumentedGrammar) {
  std::vector<ProbeSpec> Specs = mustParse(
      "# comment\n"
      "probe a { event inst_issued; aggregation count }\n"
      "probe b {\n"
      "  event = mem_access\n"
      "  aggregation = sum\n"
      "  value bytes\n"
      "  key width\n"
      "  filter space == global\n"
      "  filter bytes >= 128\n"
      "}\n");
  ASSERT_EQ(Specs.size(), 2u);
  EXPECT_EQ(Specs[0].Name, "a");
  EXPECT_EQ(Specs[0].Event, ProbeEvent::InstIssued);
  EXPECT_EQ(Specs[0].Agg, ProbeAgg::Count);
  EXPECT_FALSE(Specs[0].HasValue);
  EXPECT_FALSE(Specs[0].HasKey);
  EXPECT_EQ(Specs[1].Name, "b");
  EXPECT_EQ(Specs[1].Event, ProbeEvent::MemAccess);
  EXPECT_EQ(Specs[1].Agg, ProbeAgg::Sum);
  EXPECT_TRUE(Specs[1].HasValue);
  EXPECT_EQ(Specs[1].Value, ProbeField::Bytes);
  EXPECT_TRUE(Specs[1].HasKey);
  EXPECT_EQ(Specs[1].Key, ProbeField::Width);
  ASSERT_EQ(Specs[1].Filters.size(), 2u);
  EXPECT_EQ(Specs[1].Filters[0].Field, ProbeField::Space);
  EXPECT_EQ(Specs[1].Filters[0].Cmp, ProbeCmp::Eq);
  EXPECT_EQ(Specs[1].Filters[0].Value, 1); // global
  EXPECT_EQ(Specs[1].Filters[1].Field, ProbeField::Bytes);
  EXPECT_EQ(Specs[1].Filters[1].Cmp, ProbeCmp::Ge);
  EXPECT_EQ(Specs[1].Filters[1].Value, 128);
}

TEST(ProbeSpecParser, ResolvesSymbolicFilterValues) {
  std::vector<ProbeSpec> Specs = mustParse(
      "probe f { event inst_issued; aggregation count; "
      "filter opcode == FFMA; filter class == shared_mem }\n"
      "probe w { event mem_access; aggregation count; "
      "filter width == b128 }\n"
      "probe c { event slot_lost; aggregation sum; value slots; "
      "filter cause == dispatch_limit }\n");
  ASSERT_EQ(Specs.size(), 3u);
  EXPECT_EQ(Specs[0].Filters[0].Value,
            static_cast<int64_t>(Opcode::FFMA));
  EXPECT_EQ(Specs[0].Filters[1].Value,
            static_cast<int64_t>(OpClass::SharedMem));
  EXPECT_EQ(Specs[1].Filters[0].Value, 128);
  EXPECT_EQ(Specs[2].Filters[0].Value,
            static_cast<int64_t>(SlotUse::DispatchLimit));
}

TEST(ProbeSpecParser, RejectsMalformedInputWithLineColumn) {
  // Every diagnostic carries file:line:column pointing at the offending
  // token -- the CLI contract (exit 2 + this message on stderr).
  EXPECT_NE(parseError("probe x { event inst_issued\n"
                       "aggregation bogus }")
                .find("spec:2:13"),
            std::string::npos);
  EXPECT_NE(parseError("probe x { bad_directive foo }").find("1:11"),
            std::string::npos);
  EXPECT_NE(parseError("probe x { event no_such_event; "
                       "aggregation count }")
                .find("unknown event"),
            std::string::npos);
  EXPECT_NE(parseError("probe x { event pc_reached; aggregation count }")
                .find("unknown event 'pc_reached'"),
            std::string::npos);
  // Field not carried by the event, diagnosed at the field token.
  EXPECT_NE(parseError("probe x { event replay; aggregation sum; "
                       "value bytes }")
                .find("'bytes'"),
            std::string::npos);
  // sum/min/max need a value; count must not have one.
  EXPECT_NE(parseError("probe x { event replay; aggregation sum }")
                .find("value"),
            std::string::npos);
  EXPECT_NE(parseError("probe x { event replay; aggregation count; "
                       "value cycle }")
                .find("value"),
            std::string::npos);
  // Duplicates and the reserved JSON key.
  EXPECT_NE(parseError("probe x { event replay; aggregation count }\n"
                       "probe x { event replay; aggregation count }")
                .find("duplicate"),
            std::string::npos);
  EXPECT_NE(parseError("probe version { event replay; "
                       "aggregation count }")
                .find("version"),
            std::string::npos);
  EXPECT_NE(parseError("").find("no probes"), std::string::npos);
}

TEST(ProbeSpecParser, UnreadableSpecFileNamesTheReason) {
  std::string Dir = ::testing::TempDir();
  auto Specs = loadProbeSpecFile(Dir);
  ASSERT_FALSE(Specs.hasValue());
  EXPECT_NE(Specs.message().find(Dir), std::string::npos) << Specs.message();
  EXPECT_NE(Specs.message().find("Is a directory"), std::string::npos)
      << Specs.message();
}

//===----------------------------------------------------------------------===//
// Engine folding and merging
//===----------------------------------------------------------------------===//

ProbeEventRecord memRecord(int64_t Bytes, int64_t Space, int64_t Cycle) {
  ProbeEventRecord R;
  R.Bytes = Bytes;
  R.Space = Space;
  R.Cycle = Cycle;
  return R;
}

TEST(ProbeEngineFold, AggregationsAndFilters) {
  ProbeEngine E(mustParse(
      "probe n { event mem_access; aggregation count; "
      "filter space == global }\n"
      "probe s { event mem_access; aggregation sum; value bytes }\n"
      "probe lo { event mem_access; aggregation min; value bytes }\n"
      "probe hi { event mem_access; aggregation max; value bytes }\n"
      "probe w { event mem_access; aggregation watch; "
      "filter bytes > 200 }\n"));
  E.fire(ProbeEvent::MemAccess, memRecord(128, 1, 10));
  E.fire(ProbeEvent::MemAccess, memRecord(256, 0, 20));
  E.fire(ProbeEvent::MemAccess, memRecord(512, 1, 30));
  EXPECT_EQ(E.stateByName("n")->Total.Count, 2u); // global only
  EXPECT_EQ(E.stateByName("s")->Total.Value, 128 + 256 + 512);
  EXPECT_EQ(E.stateByName("lo")->Total.Value, 128);
  EXPECT_EQ(E.stateByName("hi")->Total.Value, 512);
  // watch = cycle of the first matching event.
  EXPECT_TRUE(E.stateByName("w")->Total.Seen);
  EXPECT_EQ(E.stateByName("w")->Total.Value, 20);
  // Unfired events leave min/max unseen rather than at a fake 0.
  ProbeEngine E2 = E.emptyClone();
  EXPECT_FALSE(E2.stateByName("lo")->Total.Seen);
}

TEST(ProbeEngineFold, KeysAndMergeOrderIndependence) {
  ProbeEngine Proto(mustParse(
      "probe by_space { event mem_access; aggregation sum; "
      "value bytes; key space }\n"
      "probe first { event mem_access; aggregation watch }\n"));
  // Two per-SM clones fed disjoint events, merged in both orders: every
  // aggregation is commutative and associative, so the results agree --
  // the property behind --jobs invariance.
  ProbeEngine A = Proto.emptyClone(), B = Proto.emptyClone();
  A.fire(ProbeEvent::MemAccess, memRecord(100, 0, 50));
  A.fire(ProbeEvent::MemAccess, memRecord(1, 1, 60));
  B.fire(ProbeEvent::MemAccess, memRecord(200, 0, 5));
  ProbeEngine AB = Proto.emptyClone(), BA = Proto.emptyClone();
  AB.merge(A);
  AB.merge(B);
  BA.merge(B);
  BA.merge(A);
  EXPECT_EQ(AB.report(), BA.report());
  const ProbeState *S = AB.stateByName("by_space");
  ASSERT_EQ(S->Keys.size(), 2u);
  EXPECT_EQ(S->Keys.at(0).Value, 300);
  EXPECT_EQ(S->Keys.at(1).Value, 1);
  EXPECT_EQ(AB.stateByName("first")->Total.Value, 5);
}

TEST(ProbeEngineFold, RecordGetReadsEveryField) {
  ProbeEventRecord R;
  R.PC = 1;
  R.Op = 2;
  R.Class = 3;
  R.Lanes = 4;
  R.Block = 5;
  R.Warp = 6;
  R.Cycle = 7;
  R.Dual = 8;
  R.Space = 9;
  R.Width = 10;
  R.Bytes = 11;
  R.Transactions = 12;
  R.Serialization = 13;
  R.Cause = 14;
  R.Slots = 15;
  R.Insts = 16;
  for (size_t F = 0; F < NumProbeFields; ++F)
    EXPECT_EQ(R.get(static_cast<ProbeField>(F)), static_cast<int64_t>(F + 1))
        << probeFieldName(static_cast<ProbeField>(F));
}

TEST(ProbeEngineFold, WaveOffsetShiftsCycles) {
  ProbeEngine E(mustParse(
      "probe w { event mem_access; aggregation watch }\n"));
  ObservationSinks Sinks;
  Sinks.Probes = &E;
  SMObservers Obs(Sinks, /*CodeSize=*/0);
  Obs.beginWave(/*NumWarps=*/1, /*NumSchedulers=*/1, 1000);
  Obs.fire(ProbeEvent::MemAccess, memRecord(4, 0, 7));
  Obs.endWave();
  Obs.mergeInto(Sinks, 0);
  EXPECT_EQ(E.stateByName("w")->Total.Value, 1007);
}

//===----------------------------------------------------------------------===//
// Dispatch: each event reaches exactly the specs that name it
//===----------------------------------------------------------------------===//

/// Specs on different events, interleaved in file order, so dispatch
/// must skip specs and still keep spec order.
const char *const DispatchSpecs =
    "probe lanes { event inst_issued; aggregation sum; value lanes; "
    "key class }\n"
    "probe gbytes { event mem_access; aggregation sum; value bytes; "
    "key width; filter space == global }\n"
    "probe dual { event inst_issued; aggregation count; key class; "
    "filter dual == 1 }\n"
    "probe exits { event warp_exit; aggregation max; value cycle; "
    "key warp }\n";

/// Fires a fixed mix of events into \p E: the three named by
/// DispatchSpecs, and bank_conflict and slot_lost, which no spec names.
/// \p Part selects every other event (0 or 1), or all of them (-1).
void fireDispatchMix(ProbeEngine &E, int Part = -1) {
  const ProbeEvent Kinds[] = {ProbeEvent::InstIssued, ProbeEvent::MemAccess,
                              ProbeEvent::BankConflict,
                              ProbeEvent::WarpExit, ProbeEvent::SlotLost};
  for (int I = 0; I < 90; ++I) {
    if (Part >= 0 && I % 2 != Part)
      continue;
    // Fields from a multiplicative hash of I, so they vary independently
    // of the event kind.
    uint64_t H = (static_cast<uint64_t>(I) + 1) * 0x9e3779b97f4a7c15ull;
    ProbeEventRecord R;
    R.PC = static_cast<int64_t>(H >> 59);
    R.Class = static_cast<int64_t>((H >> 8) % 5);
    R.Lanes = static_cast<int64_t>(1 + (H >> 13) % 32);
    R.Dual = static_cast<int64_t>((H >> 19) & 1);
    R.Space = static_cast<int64_t>((H >> 21) % 3);
    R.Width = int64_t(4) << ((H >> 24) % 3);
    R.Bytes = static_cast<int64_t>(128 * (1 + (H >> 27) % 4));
    R.Warp = static_cast<int64_t>((H >> 31) % 6);
    R.Cycle = 1000 + 37 * I - static_cast<int64_t>((H >> 35) % 50);
    R.Serialization = 2;
    R.Cause = 1;
    R.Slots = 1;
    E.fire(Kinds[I % 5], R);
  }
}

std::string probesJson(const ProbeEngine &E) {
  JsonWriter W;
  E.writeProbesValue(W);
  return W.take();
}

// Recorded at the commit before per-event dispatch, where fire() checked
// every spec against every event.
const char *const DispatchReport =
    "probe lanes: event=inst_issued aggregation=sum count=18 value=309\n"
    "  key float_math: count=2 value=16\n"
    "  key int_math: count=3 value=59\n"
    "  key int_mul_math: count=4 value=75\n"
    "  key move: count=3 value=43\n"
    "  key shared_mem: count=6 value=116\n"
    "probe gbytes: event=mem_access aggregation=sum count=5 value=1920\n"
    "  key b4: count=1 value=256\n"
    "  key b8: count=2 value=768\n"
    "  key b16: count=2 value=896\n"
    "probe dual: event=inst_issued aggregation=count count=9\n"
    "  key int_math: count=2\n"
    "  key int_mul_math: count=2\n"
    "  key move: count=1\n"
    "  key shared_mem: count=4\n"
    "probe exits: event=warp_exit aggregation=max count=18 value=4231\n"
    "  key 0: count=3 value=3839\n"
    "  key 1: count=3 value=3674\n"
    "  key 2: count=4 value=4231\n"
    "  key 3: count=3 value=3294\n"
    "  key 4: count=2 value=3128\n"
    "  key 5: count=3 value=4054\n";
const char *const DispatchJson =
    "{\"version\":1,\"lanes\":{\"event\":\"inst_issued\","
    "\"aggregation\":\"sum\",\"count\":18,\"value\":309,"
    "\"keys\":{\"float_math\":16,\"int_math\":59,\"int_mul_math\":75,"
    "\"move\":43,\"shared_mem\":116}},\"gbytes\":{\"event\":\"mem_access\","
    "\"aggregation\":\"sum\",\"count\":5,\"value\":1920,\"keys\":{\"b4\":256,"
    "\"b8\":768,\"b16\":896}},\"dual\":{\"event\":\"inst_issued\","
    "\"aggregation\":\"count\",\"count\":9,\"value\":9,"
    "\"keys\":{\"int_math\":2,\"int_mul_math\":2,\"move\":1,"
    "\"shared_mem\":4}},\"exits\":{\"event\":\"warp_exit\","
    "\"aggregation\":\"max\",\"count\":18,\"value\":4231,\"keys\":{\"0\":3839,"
    "\"1\":3674,\"2\":4231,\"3\":3294,\"4\":3128,\"5\":4054}}}";

TEST(ProbeDispatch, OnlyNamingSpecsSeeEachEvent) {
  ProbeEngine E(mustParse(DispatchSpecs));
  EXPECT_TRUE(E.wants(ProbeEvent::InstIssued));
  EXPECT_TRUE(E.wants(ProbeEvent::MemAccess));
  EXPECT_TRUE(E.wants(ProbeEvent::WarpExit));
  EXPECT_FALSE(E.wants(ProbeEvent::BankConflict));
  EXPECT_FALSE(E.wants(ProbeEvent::SlotLost));
  fireDispatchMix(E);
  EXPECT_EQ(E.report(), DispatchReport);
  EXPECT_EQ(probesJson(E), DispatchJson);
}

TEST(ProbeDispatch, ClonesAndCopiesDispatchTheSame) {
  ProbeEngine Proto(mustParse(DispatchSpecs));
  // Two per-SM clones, each fed half the events, merged into a third.
  ProbeEngine Even = Proto.emptyClone(), Odd = Proto.emptyClone();
  fireDispatchMix(Even, 0);
  fireDispatchMix(Odd, 1);
  ProbeEngine Merged = Proto.emptyClone();
  Merged.merge(Even);
  Merged.merge(Odd);
  EXPECT_EQ(Merged.report(), DispatchReport);
  EXPECT_EQ(probesJson(Merged), DispatchJson);

  // A copied engine, and one copy-assigned, dispatch on their own.
  ProbeEngine Copy = Proto;
  fireDispatchMix(Copy);
  EXPECT_EQ(Copy.report(), DispatchReport);
  EXPECT_EQ(probesJson(Copy), DispatchJson);
  ProbeEngine Assigned;
  Assigned = Proto;
  fireDispatchMix(Assigned);
  EXPECT_EQ(probesJson(Assigned), DispatchJson);
  // The prototype itself saw nothing.
  EXPECT_EQ(Proto.state(0).Total.Count, 0u);
}

//===----------------------------------------------------------------------===//
// Shadow probes against a real launch
//===----------------------------------------------------------------------===//

constexpr int ProblemM = 192, ProblemN = 192, ProblemK = 64;

struct NNProblem {
  Kernel K;
  LaunchConfig Launch;
  size_t MemBytes = 0;
};

/// The BR=6 tuned NN kernel on \p M, zero matrices (probe counters are
/// data-independent for this kernel, like trace determinism).
NNProblem makeTunedNN(const MachineDesc &M) {
  NNProblem P;
  SgemmKernelConfig Cfg =
      baselineConfig(SgemmImpl::AsmTuned, M, GemmVariant::NN, ProblemM,
                     ProblemN, ProblemK);
  auto K = generateSgemmKernel(M, Cfg);
  EXPECT_TRUE(K.hasValue()) << K.message();
  P.K = K.take();
  auto Round256 = [](size_t N) { return (N + 255) & ~size_t(255); };
  size_t ABytes = size_t(ProblemM) * ProblemK * 4;
  size_t BBytes = size_t(ProblemK) * ProblemN * 4;
  size_t CBytes = size_t(ProblemM) * ProblemN * 4;
  uint32_t AAddr = 256;
  uint32_t BAddr = AAddr + static_cast<uint32_t>(Round256(ABytes));
  uint32_t CAddr = BAddr + static_cast<uint32_t>(Round256(BBytes));
  P.MemBytes = Round256(ABytes) + Round256(BBytes) + CBytes;
  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  P.Launch.Dims.GridX = Shape.GridX;
  P.Launch.Dims.GridY = Shape.GridY;
  P.Launch.Dims.BlockX = Shape.BlockX;
  P.Launch.Params = {AAddr, BAddr, CAddr, 0x3f800000u, 0u};
  P.Launch.Mode = SimMode::Full;
  return P;
}

/// The shadow spec: one probe per simulator aggregate the engine must
/// reproduce exactly, covering seven distinct event kinds.
const char *ShadowSpecText =
    "probe warp_insts { event inst_issued; aggregation count }\n"
    "probe thread_insts { event inst_issued; aggregation sum; "
    "value lanes }\n"
    "probe duals { event inst_issued; aggregation count; "
    "filter dual == 1 }\n"
    "probe gbytes { event mem_access; aggregation sum; value bytes; "
    "filter space == global }\n"
    "probe gtrans { event mem_access; aggregation sum; "
    "value transactions; filter space == global }\n"
    "probe replays { event replay; aggregation count }\n"
    "probe conflicts { event bank_conflict; aggregation count }\n"
    "probe lost { event slot_lost; aggregation sum; value slots; "
    "key cause }\n"
    "probe pc_issues { event inst_issued; aggregation count; key pc }\n"
    "probe blocks { event block_scheduled; aggregation count }\n"
    "probe drains { event block_drained; aggregation count }\n"
    "probe warps { event warp_exit; aggregation count }\n"
    "probe warp_work { event warp_exit; aggregation sum; value insts }\n"
    "probe first_pc0 { event inst_issued; aggregation watch; "
    "filter pc == 0 }\n";

void checkShadow(const MachineDesc &M) {
  NNProblem P = makeTunedNN(M);
  ProbeEngine Probes(mustParse(ShadowSpecText));
  KernelProfile Prof;
  SimTrace Trace;
  Trace.RingCapacity = 1 << 16; // Large enough that nothing is evicted.
  P.Launch.Probes = &Probes;
  P.Launch.Profile = &Prof;
  P.Launch.Trace = &Trace;
  GlobalMemory GM(P.MemBytes + 512);
  auto R = launchKernel(M, P.K, P.Launch, GM);
  ASSERT_TRUE(R.hasValue()) << R.message();
  const SimStats &S = R->Stats;

  auto total = [&](const char *Name) -> const ProbeAccum & {
    const ProbeState *St = Probes.stateByName(Name);
    EXPECT_NE(St, nullptr) << Name;
    return St->Total;
  };

  // The self-check of DESIGN.md section 14: every probe must equal the
  // bespoke counter it shadows, exactly -- not approximately.
  EXPECT_EQ(total("warp_insts").Count, S.WarpInstsIssued);
  EXPECT_EQ(static_cast<uint64_t>(total("thread_insts").Value),
            S.ThreadInstsIssued);
  EXPECT_EQ(total("duals").Count, S.DualIssues);
  EXPECT_EQ(static_cast<uint64_t>(total("gbytes").Value),
            S.GlobalBytes);
  EXPECT_EQ(static_cast<uint64_t>(total("gtrans").Value),
            S.GlobalTransactions);
  EXPECT_EQ(total("replays").Count, S.ReplayPenalties);
  EXPECT_EQ(total("conflicts").Count, S.SharedConflictEvents);

  // Lost issue slots keyed by cause reproduce the per-cause breakdown;
  // the issued cause never appears as a loss.
  const ProbeState *Lost = Probes.stateByName("lost");
  ASSERT_NE(Lost, nullptr);
  EXPECT_EQ(Lost->Keys.count(static_cast<int64_t>(SlotUse::Issued)),
            0u);
  for (size_t I = 1; I < NumSlotUses; ++I) {
    auto It = Lost->Keys.find(static_cast<int64_t>(I));
    uint64_t Probed =
        It == Lost->Keys.end()
            ? 0
            : static_cast<uint64_t>(It->second.Value);
    EXPECT_EQ(Probed, S.Breakdown.Slots[I])
        << slotUseName(static_cast<SlotUse>(I));
  }

  // Per-PC issue counts reproduce the profiler, instruction by
  // instruction.
  const ProbeState *PCI = Probes.stateByName("pc_issues");
  ASSERT_NE(PCI, nullptr);
  uint64_t ProfiledIssues = 0;
  for (size_t PC = 0; PC < P.K.Code.size(); ++PC) {
    auto It = PCI->Keys.find(static_cast<int64_t>(PC));
    uint64_t Probed = It == PCI->Keys.end() ? 0 : It->second.Count;
    EXPECT_EQ(Probed, Prof.at(PC).Issues) << "PC " << PC;
    ProfiledIssues += Prof.at(PC).Issues;
  }
  EXPECT_EQ(ProfiledIssues, S.WarpInstsIssued);

  // Block and warp lifecycle events fire once per block/warp.
  uint64_t Blocks =
      uint64_t(P.Launch.Dims.GridX) * P.Launch.Dims.GridY;
  uint64_t Warps = Blocks * (P.Launch.Dims.BlockX / 32);
  EXPECT_EQ(total("blocks").Count, Blocks);
  EXPECT_EQ(total("drains").Count, Blocks);
  EXPECT_EQ(total("warps").Count, Warps);
  EXPECT_EQ(static_cast<uint64_t>(total("warp_work").Value),
            S.WarpInstsIssued);

  // The PC 0 watchpoint saw PC 0 early in the run.
  EXPECT_TRUE(total("first_pc0").Seen);
  EXPECT_GE(total("first_pc0").Value, 0);

  // The trace and the profile see the same stream: issue events match
  // the stats in total and the profile PC by PC, stall spans summed by
  // cause match the breakdown, and the profile's replay and dual-issue
  // totals match the stats.
  ASSERT_EQ(Trace.DroppedEvents, 0u);
  std::vector<uint64_t> TracedIssues(P.K.Code.size(), 0);
  StallBreakdown TracedLost;
  uint64_t TracedIssueTotal = 0;
  for (const TraceEvent &E : Trace.Events) {
    if (E.IsStall) {
      ASSERT_LT(E.Code, NumSlotUses);
      TracedLost.Slots[E.Code] += E.Dur;
      continue;
    }
    ASSERT_GE(E.PC, 0);
    ASSERT_LT(static_cast<size_t>(E.PC), TracedIssues.size());
    ++TracedIssues[static_cast<size_t>(E.PC)];
    ++TracedIssueTotal;
  }
  EXPECT_EQ(TracedIssueTotal, S.WarpInstsIssued);
  for (size_t PC = 0; PC < P.K.Code.size(); ++PC)
    EXPECT_EQ(TracedIssues[PC], Prof.at(PC).Issues) << "PC " << PC;
  EXPECT_EQ(TracedLost.Slots[static_cast<size_t>(SlotUse::Issued)], 0u);
  for (size_t I = 1; I < NumSlotUses; ++I)
    EXPECT_EQ(TracedLost.Slots[I], S.Breakdown.Slots[I])
        << slotUseName(static_cast<SlotUse>(I));
  EXPECT_EQ(Prof.totalReplays(), S.ReplayPenalties);
  EXPECT_EQ(Prof.totalDualIssues(), S.DualIssues);
}

TEST(ProbeShadow, MatchesSimStatsExactlyGTX580) {
  checkShadow(gtx580());
}
TEST(ProbeShadow, MatchesSimStatsExactlyGTX680) {
  checkShadow(gtx680());
}

TEST(ProbeShadow, ReportBitIdenticalAcrossJobs) {
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    std::vector<std::string> Reports;
    for (int Jobs : {1, 2, 0}) {
      NNProblem P = makeTunedNN(*M);
      ProbeEngine Probes(mustParse(ShadowSpecText));
      P.Launch.Probes = &Probes;
      P.Launch.Jobs = Jobs;
      GlobalMemory GM(P.MemBytes + 512);
      auto R = launchKernel(*M, P.K, P.Launch, GM);
      ASSERT_TRUE(R.hasValue()) << R.message();
      Reports.push_back(Probes.report());
    }
    EXPECT_EQ(Reports[0], Reports[1]) << M->Name;
    EXPECT_EQ(Reports[0], Reports[2]) << M->Name;
  }
}

TEST(ProbeShadow, JsonObjectIsValidAndVersioned) {
  NNProblem P = makeTunedNN(gtx680());
  ProbeEngine Probes(mustParse(ShadowSpecText));
  P.Launch.Probes = &Probes;
  GlobalMemory GM(P.MemBytes + 512);
  auto R = launchKernel(gtx680(), P.K, P.Launch, GM);
  ASSERT_TRUE(R.hasValue()) << R.message();
  std::string Json = probeRecordJson(Probes, 1, "GTX680", "sgemm");
  auto V = jsonParse(Json);
  ASSERT_TRUE(V.hasValue()) << V.message();
  const JsonValue *Pr = V->find("probes");
  ASSERT_NE(Pr, nullptr);
  const JsonValue *Ver = Pr->find("version");
  ASSERT_NE(Ver, nullptr);
  EXPECT_EQ(Ver->Number, ProbesObjectVersion);
  ASSERT_NE(Pr->find("gbytes"), nullptr);
  EXPECT_EQ(Pr->find("gbytes")->find("value")->Number,
            static_cast<double>(R->Stats.GlobalBytes));
}

//===----------------------------------------------------------------------===//
// CLI surface: gpurun --probe / perfdiff --require
//===----------------------------------------------------------------------===//

#if defined(GPUPERF_GPURUN_PATH) && defined(GPUPERF_PERFDIFF_PATH)

/// Runs \p Cmd with stderr folded into stdout; returns the exit status.
int runCommand(const std::string &Cmd, std::string *Out) {
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  Out->clear();
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out->append(Buf, N);
  int Raw = pclose(P);
  return Raw < 0 ? -1 : WEXITSTATUS(Raw);
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  ASSERT_TRUE(Out.good()) << Path;
}

class ProbeCli : public ::testing::Test {
protected:
  void SetUp() override {
    const MachineDesc &M = gtx680();
    NNProblem P = makeTunedNN(M);
    Module Mod;
    Mod.Arch = M.Generation;
    Mod.Kernels.push_back(P.K);
    ModPath = ::testing::TempDir() + "gpuperf_probe_test_sgemm.gpub";
    Status WriteStatus = Mod.writeToFile(ModPath);
    ASSERT_FALSE(WriteStatus.failed()) << WriteStatus.message();
    BaseCmd = formatString(
        "%s %s --machine GTX680 --grid %d,%d --block %d --mem %zu "
        "--param %u --param %u --param 0x3f800000 --param 0",
        GPUPERF_GPURUN_PATH, ModPath.c_str(), P.Launch.Dims.GridX,
        P.Launch.Dims.GridY, P.Launch.Dims.BlockX, P.MemBytes + 512,
        P.Launch.Params[1], P.Launch.Params[2]);
    SpecPath = ::testing::TempDir() + "gpuperf_probe_test.probe";
    writeFile(SpecPath,
              "probe gb { event mem_access; aggregation sum; "
              "value bytes; filter space == global }\n");
  }

  void TearDown() override {
    std::remove(ModPath.c_str());
    std::remove(SpecPath.c_str());
  }

  std::string ModPath, BaseCmd, SpecPath;
};

TEST_F(ProbeCli, ProbeOutputByteIdenticalAcrossJobs) {
  std::string Out1, Out4;
  ASSERT_EQ(runCommand(BaseCmd + " --probe " + SpecPath + " --jobs 1",
                       &Out1),
            0)
      << Out1;
  ASSERT_EQ(runCommand(BaseCmd + " --probe " + SpecPath + " --jobs 4",
                       &Out4),
            0)
      << Out4;
  EXPECT_NE(Out1.find("probe gb:"), std::string::npos);
  EXPECT_EQ(Out1, Out4);
}

TEST_F(ProbeCli, MalformedSpecRejectedWithDiagnostic) {
  std::string BadPath = ::testing::TempDir() + "gpuperf_bad.probe";
  writeFile(BadPath, "probe x {\n  event inst_issued\n"
                     "  aggregation bogus\n}\n");
  std::string Out;
  EXPECT_EQ(runCommand(BaseCmd + " --probe " + BadPath, &Out), 2);
  // The diagnostic names the file and points at line 3, column 15.
  EXPECT_NE(Out.find("gpuperf_bad.probe:3:15"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("unknown aggregation"), std::string::npos) << Out;
  std::remove(BadPath.c_str());
}

TEST_F(ProbeCli, DuplicateProbeNamesRejected) {
  std::string DupPath = ::testing::TempDir() + "gpuperf_dup.probe";
  writeFile(DupPath,
            "probe x { event replay; aggregation count }\n"
            "probe x { event replay; aggregation count }\n");
  std::string Out;
  EXPECT_EQ(runCommand(BaseCmd + " --probe " + DupPath, &Out), 2);
  EXPECT_NE(Out.find("duplicate"), std::string::npos) << Out;
  std::remove(DupPath.c_str());
}

TEST_F(ProbeCli, ProbeOutRequiresProbe) {
  std::string Out;
  EXPECT_EQ(runCommand(BaseCmd + " --probe-out /tmp/x.json", &Out), 2);
  EXPECT_NE(Out.find("--probe-out requires --probe"),
            std::string::npos)
      << Out;
}

TEST_F(ProbeCli, PerfdiffRequireGatesProbesObject) {
  std::string Dir = ::testing::TempDir();
  std::string Base = Dir + "gpuperf_req_base.json";
  std::string Cur = Dir + "gpuperf_req_cur.json";
  const char *Record =
      "{\"schema_version\":1,\"record\":\"bench\","
      "\"machine\":\"GTX680\",\"probes\":{\"version\":1,"
      "\"gb\":{\"count\":3,\"value\":42}}}";
  writeFile(Base, Record);
  writeFile(Cur, Record);
  std::string Out;
  std::string Diff = std::string(GPUPERF_PERFDIFF_PATH) + " " + Base +
                     " " + Cur;
  EXPECT_EQ(runCommand(Diff + " --require probes.gb", &Out), 0) << Out;
  EXPECT_EQ(runCommand(Diff + " --require probes.gone", &Out), 1)
      << Out;
  EXPECT_NE(Out.find("probes.gone"), std::string::npos) << Out;
  std::remove(Base.c_str());
  std::remove(Cur.c_str());
}

#if defined(GPUPERF_GPUAS_PATH) && defined(GPUPERF_GPUDIS_PATH)

TEST(LoaderCli, EveryToolRejectsADirectoryInput) {
  // Every loader reads through readFileBytes, so a directory is a
  // diagnostic and an error exit, never an abort.
  std::string Dir = ::testing::TempDir();
  std::string Record = Dir + "gpuperf_loader_record.json";
  writeFile(Record, "{\"schema_version\":1}");
  const std::pair<std::string, int> Cases[] = {
      {std::string(GPUPERF_GPURUN_PATH) + " " + Dir, 1},
      {std::string(GPUPERF_GPURUN_PATH) + " " + Dir + " --probe " + Dir, 2},
      {std::string(GPUPERF_GPUDIS_PATH) + " " + Dir, 1},
      {std::string(GPUPERF_GPUAS_PATH) + " " + Dir + " -o " + Dir +
           "gpuperf_loader.gpub",
       1},
      {std::string(GPUPERF_PERFDIFF_PATH) + " " + Dir + " " + Record, 2}};
  for (const auto &[Cmd, Exit] : Cases) {
    std::string Out;
    EXPECT_EQ(runCommand(Cmd, &Out), Exit) << Cmd << "\n" << Out;
    EXPECT_NE(Out.find("Is a directory"), std::string::npos)
        << Cmd << "\n" << Out;
  }
  std::remove(Record.c_str());
}

#endif // GPUPERF_GPUAS_PATH && GPUPERF_GPUDIS_PATH

#endif // GPUPERF_GPURUN_PATH && GPUPERF_PERFDIFF_PATH

} // namespace

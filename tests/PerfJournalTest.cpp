//===- tests/PerfJournalTest.cpp - write-ahead journal crash safety -------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability contract of the two support/FrameLog files -- the
/// PerfDatabase write-ahead journal (GPDJ) and the sweep checkpoint
/// (GPCK) -- driven through fault injection on the I/O layer (the
/// file-system analog of sim/FaultInjector): a record acknowledged to a
/// caller survives a crash at *any* byte boundary of any later append --
/// torn writes and bit flips in both files, kills during the journal's
/// compaction -- and both on-disk formats are pinned byte for byte.
/// Recovery
/// truncates at the first corrupt frame instead of rejecting the whole
/// cache, and compaction preserves the snapshot-or-journal invariant:
/// after a simulated crash on either side of the snapshot rename, every
/// acknowledged record is still recoverable from the snapshot, the
/// journal, or both.
///
/// Crash states are reproduced by capturing the on-disk bytes at the
/// moment of interest (what SIGKILL would leave) and restoring them for
/// a fresh database -- the live object's clean-shutdown compaction never
/// runs "in" the simulated crashed process.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "support/FileIO.h"
#include "support/FrameLog.h"
#include "support/Format.h"
#include "ubench/PerfDatabase.h"
#include "ubench/SweepCheckpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace gpuperf;

namespace {

Kernel smallKernel(const MachineDesc &M, int Ratio) {
  MixBenchParams P;
  P.FfmaPerLds = Ratio;
  P.BodyInsts = 128;
  return generateMixBench(M, P);
}

MeasureConfig smallConfig() {
  MeasureConfig Cfg;
  Cfg.ThreadsPerBlock = 64;
  Cfg.BlocksPerSM = 1;
  return Cfg;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &B) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(B.data()),
            static_cast<std::streamsize>(B.size()));
}

size_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<size_t>(St.st_size)
                                        : 0;
}

uint32_t readU32At(const std::vector<uint8_t> &B, size_t Pos) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(B[Pos + I]) << (8 * I);
  return V;
}

/// End offsets of every complete frame in a FrameLog image: the header
/// (8 bytes) plus, per frame, 8 bytes of (length, crc) and the payload.
std::vector<size_t> frameEnds(const std::vector<uint8_t> &Journal) {
  std::vector<size_t> Ends;
  size_t Pos = 8;
  while (Pos + 8 <= Journal.size()) {
    size_t End = Pos + 8 + readU32At(Journal, Pos);
    if (End > Journal.size())
      break;
    Ends.push_back(End);
    Pos = End;
  }
  return Ends;
}

class PerfJournal : public ::testing::Test {
protected:
  void SetUp() override {
    Path = testing::TempDir() + "gpuperf_journal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".gpdb";
    JPath = PerfDatabase::journalPath(Path);
    std::remove(Path.c_str());
    std::remove(JPath.c_str());
  }
  void TearDown() override {
    setPerfCacheSaveByteLimitForTesting(0);
    setDurableWriteCrashPointForTesting(0);
    setPerfJournalCompactionThresholdForTesting(0);
    std::remove(Path.c_str());
    std::remove(JPath.c_str());
  }

  /// Measures the ratio-{2,4,8} kernels through a fresh database and
  /// returns the journal image as captured while the database was live
  /// (i.e. before any clean-shutdown compaction) plus the three values.
  std::vector<uint8_t> buildJournal(std::vector<double> *Values = nullptr) {
    const MachineDesc &M = gtx580();
    PerfDatabase DB(M, Path);
    for (int Ratio : {2, 4, 8}) {
      double V = DB.measureKernel(smallKernel(M, Ratio), smallConfig());
      if (Values)
        Values->push_back(V);
    }
    return readFile(JPath);
  }

  std::string Path, JPath;
};

TEST_F(PerfJournal, AcknowledgedMeasurementIsDurableWithoutSave) {
  // The whole point of the journal: the instant measureKernel returns,
  // the record is on disk. A second database opening the same path --
  // the moral equivalent of a new process after SIGKILL, since the
  // first one never saved -- must serve every value from the journal
  // alone.
  const MachineDesc &M = gtx580();
  PerfDatabase Live(M, Path);
  std::vector<double> Values;
  for (int Ratio : {2, 4, 8})
    Values.push_back(Live.measureKernel(smallKernel(M, Ratio), smallConfig()));
  EXPECT_EQ(fileSize(Path), 0u) << "no snapshot may exist yet";
  EXPECT_GT(fileSize(JPath), 8u) << "the journal must hold the records";

  PerfDatabase Crashed(M, Path);
  EXPECT_EQ(Crashed.entryCount(), 3u);
  int I = 0;
  for (int Ratio : {2, 4, 8})
    EXPECT_EQ(Crashed.measureKernel(smallKernel(M, Ratio), smallConfig()),
              Values[I++]);
  EXPECT_EQ(Crashed.misses(), 0u)
      << "an acknowledged measurement must never be re-run after a crash";
}

/// One FrameLog file kind under the every-offset crash tests, driven
/// through its owner's public API.
struct FramedKind {
  const char *Name;
  /// The framed file that belongs to \p Base.
  std::string (*File)(const std::string &Base);
  /// Writes three records through the production writer and returns the
  /// file image as a kill at that moment would leave it.
  std::vector<uint8_t> (*WriteThree)(const std::string &Base);
  /// Reopens \p Base as the next process would and returns the number of
  /// records recovered and the file size right after recovery.
  std::pair<size_t, size_t> (*Recover)(const std::string &Base);
};

const FramedKind PerfJournalKind = {
    "GPDJ",
    [](const std::string &Base) { return PerfDatabase::journalPath(Base); },
    [](const std::string &Base) {
      PerfDatabase DB(gtx580(), Base);
      for (int Ratio : {2, 4, 8})
        DB.measureKernel(smallKernel(gtx580(), Ratio), smallConfig());
      // Captured while the database is live, before its clean-shutdown
      // compaction empties the journal.
      return readFile(PerfDatabase::journalPath(Base));
    },
    [](const std::string &Base) {
      std::remove(Base.c_str()); // Journal-only crash state.
      PerfDatabase DB(gtx580(), Base);
      return std::make_pair(DB.entryCount(),
                            fileSize(PerfDatabase::journalPath(Base)));
    }};

const FramedKind CheckpointKind = {
    "GPCK", [](const std::string &Base) { return Base + ".ckpt"; },
    [](const std::string &Base) {
      SweepCheckpoint Ckpt(Base + ".ckpt", /*Resume=*/false);
      for (size_t I = 0; I < 3; ++I)
        EXPECT_FALSE(
            Ckpt.markDone("sweep", I, {"row " + std::to_string(I)}).failed());
      return readFile(Base + ".ckpt");
    },
    [](const std::string &Base) {
      SweepCheckpoint Ckpt(Base + ".ckpt", /*Resume=*/true);
      return std::make_pair(Ckpt.recordCount(), fileSize(Base + ".ckpt"));
    }};

class FramedJournal : public ::testing::TestWithParam<const FramedKind *> {
protected:
  void SetUp() override {
    // Parameterized test names end in "/<kind>".
    std::string Name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(Name.begin(), Name.end(), '/', '_');
    Base = testing::TempDir() + "gpuperf_framed_" + Name;
    File = GetParam()->File(Base);
    removeAll();
  }
  void TearDown() override { removeAll(); }
  void removeAll() {
    std::remove(Base.c_str());
    std::remove(File.c_str());
  }

  std::string Base, File;
};

TEST_P(FramedJournal, TornWriteAtEveryByteBoundary) {
  // Crash-point harness over the append path: cut the file at every
  // possible byte length, as a kill mid-write would, and check recovery
  // keeps exactly the fully-written frames -- never fewer (lost acks)
  // and never garbage (half a frame "recovered").
  const FramedKind &Kind = *GetParam();
  const std::vector<uint8_t> Full = Kind.WriteThree(Base);
  const std::vector<size_t> Ends = frameEnds(Full);
  ASSERT_EQ(Ends.size(), 3u) << "expected one frame per record";

  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    writeFile(File, std::vector<uint8_t>(Full.begin(), Full.begin() + Cut));
    size_t WantFrames = 0, WantBytes = Cut < 8 ? 0 : 8;
    for (size_t End : Ends)
      if (End <= Cut) {
        ++WantFrames;
        WantBytes = End;
      }

    auto [Records, Bytes] = Kind.Recover(Base);
    EXPECT_EQ(Records, WantFrames) << "cut at byte " << Cut;
    // Recovery must also physically truncate the torn tail so later
    // appends extend a clean prefix instead of burying valid frames
    // behind garbage.
    EXPECT_EQ(Bytes, WantBytes) << "cut at byte " << Cut;
  }
}

TEST_P(FramedJournal, BitFlipAtEveryByteOffset) {
  // A flipped bit anywhere in a frame (length, CRC, or payload) must
  // invalidate that frame and everything after it -- the CRC scan stops
  // at the first corruption -- while every frame before it survives.
  const FramedKind &Kind = *GetParam();
  const std::vector<uint8_t> Full = Kind.WriteThree(Base);
  const std::vector<size_t> Ends = frameEnds(Full);
  ASSERT_EQ(Ends.size(), 3u);

  for (size_t Offset = 0; Offset < Full.size(); ++Offset) {
    std::vector<uint8_t> Flipped = Full;
    Flipped[Offset] ^= 0x10;
    writeFile(File, Flipped);
    // Frames wholly before the flipped byte survive; the frame holding
    // it (or the header, for offsets 0..7) and all later frames do not.
    size_t WantFrames = 0, WantBytes = Offset < 8 ? 0 : 8;
    for (size_t End : Ends)
      if (Offset >= End) {
        ++WantFrames;
        WantBytes = End;
      }

    auto [Records, Bytes] = Kind.Recover(Base);
    EXPECT_EQ(Records, WantFrames) << "flip at byte " << Offset;
    EXPECT_EQ(Bytes, WantBytes) << "flip at byte " << Offset;
  }
}

INSTANTIATE_TEST_SUITE_P(BothFormats, FramedJournal,
                         ::testing::Values(&PerfJournalKind, &CheckpointKind),
                         [](const auto &Info) {
                           return std::string(Info.param->Name);
                         });

TEST_F(PerfJournal, CorruptHeaderRecoversToEmptyAndRestarts) {
  writeFile(JPath, {'J', 'U', 'N', 'K', 1, 2, 3, 4, 5, 6});
  const MachineDesc &M = gtx580();
  Kernel K = smallKernel(M, 4);
  double V;
  std::vector<uint8_t> JournalImage;
  {
    PerfDatabase DB(M, Path);
    EXPECT_EQ(DB.entryCount(), 0u) << "garbage journal recovers nothing";
    EXPECT_EQ(fileSize(JPath), 0u)
        << "an unusable journal is truncated, not left to block appends";
    V = DB.measureKernel(K, smallConfig());
    JournalImage = readFile(JPath);
  }
  // The append after recovery rebuilt a valid journal from scratch.
  std::remove(Path.c_str());
  writeFile(JPath, JournalImage);
  PerfDatabase DB(M, Path);
  EXPECT_EQ(DB.entryCount(), 1u);
  EXPECT_EQ(DB.measureKernel(K, smallConfig()), V);
  EXPECT_EQ(DB.misses(), 0u);
}

TEST_F(PerfJournal, UnreadableJournalIsNoRecordsAndIsNotTruncated) {
  // A read error is not a torn tail: recovery of a journal it cannot
  // read decodes nothing and leaves the path as it found it.
  ASSERT_EQ(::mkdir(JPath.c_str(), 0755), 0);
  FrameLog Log(JPath, 0x4a445047u, 1, 64);
  size_t Decoded = 0;
  auto Count = [&](const uint8_t *, size_t) {
    ++Decoded;
    return true;
  };
  EXPECT_EQ(Log.replay(Count), 0u);
  Log.recover(Count);
  EXPECT_EQ(Decoded, 0u);
  struct stat St;
  ASSERT_EQ(::stat(JPath.c_str(), &St), 0);
  EXPECT_TRUE(S_ISDIR(St.st_mode));
  EXPECT_EQ(::rmdir(JPath.c_str()), 0);
}

TEST_F(PerfJournal, CompactionFoldsJournalIntoSnapshot) {
  // With a 1-byte threshold every append compacts: the snapshot absorbs
  // each record immediately and the journal never accumulates.
  setPerfJournalCompactionThresholdForTesting(1);
  const MachineDesc &M = gtx580();
  {
    PerfDatabase DB(M, Path);
    for (int Ratio : {2, 4, 8})
      DB.measureKernel(smallKernel(M, Ratio), smallConfig());
    EXPECT_EQ(fileSize(JPath), 0u)
        << "past-threshold appends must compact and empty the journal";
    EXPECT_GT(fileSize(Path), 12u) << "the snapshot holds the records";
  }
  setPerfJournalCompactionThresholdForTesting(0);
  PerfDatabase DB(M, Path);
  EXPECT_EQ(DB.entryCount(), 3u);
}

TEST_F(PerfJournal, KillDuringCompactionLosesNothing) {
  // The snapshot-or-journal invariant, probed at both crash points of
  // the durable snapshot write: (1) after the temp file is written but
  // before the rename -- the old snapshot still stands; (2) after the
  // rename but before the directory sync -- the new snapshot stands but
  // the writer believes the save failed. In both cases the journal must
  // be left untruncated, so every acknowledged record remains
  // recoverable (replaying the journal over either snapshot version is
  // idempotent).
  const MachineDesc &M = gtx580();
  std::vector<double> Values;
  {
    // Seed a real snapshot with one entry so crash point 1 has an "old"
    // snapshot to preserve.
    PerfDatabase DB(M, Path);
    Values.push_back(DB.measureKernel(smallKernel(M, 2), smallConfig()));
  }

  for (int CrashPoint : {1, 2}) {
    SCOPED_TRACE("crash point " + std::to_string(CrashPoint));
    std::vector<uint8_t> SnapImage, JournalImage;
    {
      PerfDatabase DB(M, Path);
      // The next append exceeds the 1-byte threshold and triggers
      // compaction, whose snapshot write dies at the injected point.
      setPerfJournalCompactionThresholdForTesting(1);
      setDurableWriteCrashPointForTesting(CrashPoint);
      Values.push_back(
          DB.measureKernel(smallKernel(M, 10 + CrashPoint), smallConfig()));
      setDurableWriteCrashPointForTesting(0);
      setPerfJournalCompactionThresholdForTesting(0);
      EXPECT_GT(fileSize(JPath), 8u)
          << "a failed compaction must not truncate the journal";
      // Capture the crash-moment disk state before the live object's
      // clean shutdown tidies it up.
      SnapImage = readFile(Path);
      JournalImage = readFile(JPath);
    }
    writeFile(Path, SnapImage);
    writeFile(JPath, JournalImage);

    // Recovery: every value acknowledged so far is present, none is
    // re-measured.
    PerfDatabase DB(M, Path);
    EXPECT_EQ(DB.entryCount(), Values.size());
    EXPECT_EQ(DB.measureKernel(smallKernel(M, 2), smallConfig()),
              Values[0]);
    EXPECT_EQ(
        DB.measureKernel(smallKernel(M, 10 + CrashPoint), smallConfig()),
        Values.back());
    EXPECT_EQ(DB.misses(), 0u);
  }
}

TEST_F(PerfJournal, FailedSnapshotWriteLeavesSnapshotBitIdentical) {
  // Disk-full (byte-limited) snapshot writes leave the previous
  // snapshot bytes untouched and remove their temporary, at every
  // possible torn-write length.
  const MachineDesc &M = gtx580();
  {
    PerfDatabase DB(M, Path);
    DB.measureKernel(smallKernel(M, 2), smallConfig());
  } // Clean shutdown: snapshot written, journal empty.
  const std::vector<uint8_t> Before = readFile(Path);
  ASSERT_GE(Before.size(), 12u);

  for (size_t Limit = 1; Limit < Before.size(); ++Limit) {
    setPerfCacheSaveByteLimitForTesting(Limit);
    PerfDatabase DB(M, Path);
    EXPECT_TRUE(DB.save(Path).failed()) << "limit " << Limit;
    EXPECT_EQ(readFile(Path), Before)
        << "limit " << Limit << ": failed save must not touch the snapshot";
    setPerfCacheSaveByteLimitForTesting(0);
  }
  std::ifstream Tmp(Path + ".tmp." + std::to_string(getpid()));
  EXPECT_FALSE(Tmp.good()) << "failed saves must remove their temporaries";
}

TEST_F(PerfJournal, OverCapKeyIsServedButNeverPersisted) {
  // A key the loaders reject as corruption (here from a 5000-character
  // kernel name) must reach neither file: journaled, it would end the
  // replay early; compacted, it would make the whole snapshot
  // unloadable. It is still measured and returned.
  const MachineDesc &M = gtx580();
  Kernel Long = smallKernel(M, 6);
  Long.Name = std::string(5000, 'k');
  std::vector<double> Values;
  std::vector<uint8_t> JournalImage;
  {
    PerfDatabase DB(M, Path);
    Values.push_back(DB.measureKernel(smallKernel(M, 2), smallConfig()));
    EXPECT_GT(DB.measureKernel(Long, smallConfig()), 0.0);
    Values.push_back(DB.measureKernel(smallKernel(M, 4), smallConfig()));
    JournalImage = readFile(JPath);
  }
  auto expectBothServed = [&](const char *State) {
    PerfDatabase DB(M, Path);
    EXPECT_EQ(DB.entryCount(), 2u) << State;
    EXPECT_EQ(DB.measureKernel(smallKernel(M, 2), smallConfig()), Values[0])
        << State;
    EXPECT_EQ(DB.measureKernel(smallKernel(M, 4), smallConfig()), Values[1])
        << State;
    EXPECT_EQ(DB.misses(), 0u) << State;
  };
  expectBothServed("after a clean shutdown");
  std::remove(Path.c_str());
  writeFile(JPath, JournalImage);
  expectBothServed("after a crash");
}

//===----------------------------------------------------------------------===//
// Both FrameLog formats, byte for byte: files a parent build wrote must
// still load, and the current writers must produce the same bytes.
//===----------------------------------------------------------------------===//

void putLE(std::vector<uint8_t> &B, uint64_t V, int Bytes) {
  for (int I = 0; I < Bytes; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

TEST_F(PerfJournal, JournalBytesMatchTheDocumentedLayout) {
  // The GPDJ layout documented in PerfDatabase.cpp, laid out field by
  // field. The keys and values come from the kernels (the key format is
  // PerfDatabase's documented one); the CRC routine itself is pinned by
  // the literal CRCs of the checkpoint test below.
  const MachineDesc &M = gtx580();
  const Kernel Ks[2] = {smallKernel(M, 2), smallKernel(M, 4)};
  PerfDatabase Ref(M); // In memory: the values the journal must carry.
  std::vector<uint8_t> Want = {'G', 'P', 'D', 'J', 1, 0, 0, 0};
  for (const Kernel &K : Ks) {
    std::string Key = formatString(
        "GTX580|%s|tb64|bpsm1|%016llx", K.Name.c_str(),
        static_cast<unsigned long long>(
            PerfDatabase::kernelHash(K, M.Generation)));
    double V = Ref.measureKernel(K, smallConfig());
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    std::vector<uint8_t> Payload;
    putLE(Payload, Key.size(), 4);
    Payload.insert(Payload.end(), Key.begin(), Key.end());
    putLE(Payload, Bits, 8);
    putLE(Want, Payload.size(), 4);
    putLE(Want, crc32(Payload.data(), Payload.size()), 4);
    Want.insert(Want.end(), Payload.begin(), Payload.end());
  }

  {
    PerfDatabase DB(M, Path);
    for (const Kernel &K : Ks)
      DB.measureKernel(K, smallConfig());
    EXPECT_EQ(readFile(JPath), Want) << "the writer's bytes drifted";
  }
  std::remove(Path.c_str());
  writeFile(JPath, Want);
  PerfDatabase DB(M, Path);
  EXPECT_EQ(DB.entryCount(), 2u);
  for (const Kernel &K : Ks)
    EXPECT_EQ(DB.measureKernel(K, smallConfig()),
              Ref.measureKernel(K, smallConfig()));
  EXPECT_EQ(DB.misses(), 0u) << "the documented bytes must replay";
}

TEST_F(PerfJournal, CheckpointBytesMatchTheDocumentedLayout) {
  // The GPCK layout documented in SweepCheckpoint.h, written out by hand.
  const std::vector<uint8_t> Want = {
      'G', 'P', 'C', 'K', 1, 0, 0, 0, //
      // Frame 1: ("fig4", point 0, rows {"1024", "42.5"}).
      32, 0, 0, 0, 0xfa, 0x4f, 0x6a, 0x23,                       //
      4, 0, 0, 0, 'f', 'i', 'g', '4', 0, 0, 0, 0, 2, 0, 0, 0,    //
      4, 0, 0, 0, '1', '0', '2', '4', 4, 0, 0, 0, '4', '2', '.', '5', //
      // Frame 2: ("fig4", point 3, rows {""}).
      20, 0, 0, 0, 0x05, 0xb6, 0x40, 0x8a,                       //
      4, 0, 0, 0, 'f', 'i', 'g', '4', 3, 0, 0, 0, 1, 0, 0, 0,    //
      0, 0, 0, 0};
  const std::string CkptPath = Path + ".ckpt";
  {
    SweepCheckpoint Ckpt(CkptPath, /*Resume=*/false);
    ASSERT_FALSE(Ckpt.markDone("fig4", 0, {"1024", "42.5"}).failed());
    ASSERT_FALSE(Ckpt.markDone("fig4", 3, {""}).failed());
    EXPECT_EQ(readFile(CkptPath), Want) << "the writer's bytes drifted";
  }
  writeFile(CkptPath, Want);
  SweepCheckpoint Ckpt(CkptPath, /*Resume=*/true);
  EXPECT_EQ(Ckpt.recordCount(), 2u);
  ASSERT_NE(Ckpt.lookup("fig4", 0), nullptr);
  EXPECT_EQ(*Ckpt.lookup("fig4", 0),
            (std::vector<std::string>{"1024", "42.5"}));
  ASSERT_NE(Ckpt.lookup("fig4", 3), nullptr);
  EXPECT_EQ(*Ckpt.lookup("fig4", 3), std::vector<std::string>{""});
  EXPECT_EQ(fileSize(CkptPath), Want.size()) << "nothing to truncate";
  std::remove(CkptPath.c_str());
}

} // namespace

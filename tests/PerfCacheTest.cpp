//===- tests/PerfCacheTest.cpp - persistent PerfDatabase cache ------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent measurement cache's contract: a warm cache returns the
/// serial measurements without re-simulating anything; a changed kernel
/// (different generated code, hence different hash) misses rather than
/// returning a stale value; and a corrupt cache file is rejected whole
/// (Module::deserialize's sanity-cap stance) instead of being half
/// loaded.
///
//===----------------------------------------------------------------------===//

#include "ubench/PerfDatabase.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace gpuperf;

namespace {

/// Small, fast kernel + shape so a measurement is milliseconds.
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

/// Unique-ish temp path per test; removed on fixture teardown.
class PerfCache : public ::testing::Test {
protected:
  void SetUp() override {
    Path = testing::TempDir() + "gpuperf_cache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".gpdb";
    std::remove(Path.c_str());
  }
  void TearDown() override {
    std::remove(Path.c_str());
    std::remove(PerfDatabase::journalPath(Path).c_str());
  }

  std::string Path;
};

TEST_F(PerfCache, RoundTripSkipsRemeasurement) {
  const MachineDesc &M = gtx580();
  Kernel K = smallKernel(M, 4);
  double First;
  {
    PerfDatabase Cold(M, Path);
    First = Cold.measureKernel(K, smallConfig());
    EXPECT_EQ(Cold.hits(), 0u);
    EXPECT_EQ(Cold.misses(), 1u);
    // Memoized within the object too.
    EXPECT_EQ(Cold.measureKernel(K, smallConfig()), First);
    EXPECT_EQ(Cold.hits(), 1u);
  } // Dtor saves.

  PerfDatabase Warm(M, Path);
  EXPECT_EQ(Warm.entryCount(), 1u);
  EXPECT_EQ(Warm.measureKernel(K, smallConfig()), First);
  EXPECT_EQ(Warm.hits(), 1u);
  EXPECT_EQ(Warm.misses(), 0u) << "warm cache must not re-measure";
}

TEST_F(PerfCache, MixThroughputGoesThroughTheCache) {
  const MachineDesc &M = gtx580();
  double First;
  {
    PerfDatabase Cold(M, Path);
    First = Cold.mixThroughput(6, MemWidth::B64, false, 64);
    EXPECT_EQ(Cold.misses(), 1u);
  }
  PerfDatabase Warm(M, Path);
  EXPECT_EQ(Warm.mixThroughput(6, MemWidth::B64, false, 64), First);
  EXPECT_EQ(Warm.misses(), 0u);
}

TEST_F(PerfCache, StaleHashInvalidates) {
  const MachineDesc &M = gtx580();
  {
    PerfDatabase DB(M, Path);
    DB.measureKernel(smallKernel(M, 4), smallConfig());
  }
  // Same kernel *name* and shape, different generated code: the key's
  // code hash differs, so this must miss instead of serving the ratio-4
  // measurement.
  Kernel Changed = smallKernel(M, 8);
  Changed.Name = smallKernel(M, 4).Name;
  PerfDatabase DB(M, Path);
  DB.measureKernel(Changed, smallConfig());
  EXPECT_EQ(DB.hits(), 0u);
  EXPECT_EQ(DB.misses(), 1u);
}

TEST_F(PerfCache, DistinguishesMachinesAndShapes) {
  Kernel KF = smallKernel(gtx580(), 4);
  {
    PerfDatabase DB(gtx580(), Path);
    DB.measureKernel(KF, smallConfig());
  }
  // Different machine: same file, no hit (keys carry the machine name,
  // and the Kepler encoding differs anyway).
  {
    PerfDatabase DB(gtx680(), Path);
    DB.measureKernel(smallKernel(gtx680(), 4), smallConfig());
    EXPECT_EQ(DB.hits(), 0u);
  }
  // Different measurement shape: no hit either.
  PerfDatabase DB(gtx580(), Path);
  MeasureConfig Wider = smallConfig();
  Wider.ThreadsPerBlock = 128;
  DB.measureKernel(KF, Wider);
  EXPECT_EQ(DB.hits(), 0u);
  EXPECT_EQ(DB.entryCount(), 3u);
}

TEST_F(PerfCache, SaveMergesConcurrentWriters) {
  const MachineDesc &M = gtx580();
  Kernel A = smallKernel(M, 2), B = smallKernel(M, 4);
  {
    PerfDatabase First(M, Path);
    First.measureKernel(A, smallConfig());
  }
  {
    // A database that never read the file (another process's view):
    // saving to the same path must keep A alongside its own B.
    PerfDatabase Second(M);
    Second.measureKernel(B, smallConfig());
    ASSERT_FALSE(Second.save(Path).failed());
  }
  {
    PerfDatabase Check(M, Path);
    EXPECT_EQ(Check.entryCount(), 2u);
  }
  std::remove(Path.c_str());
  std::remove(PerfDatabase::journalPath(Path).c_str());

  // The same merge when the journal size triggers compaction rather
  // than save(): a database that opened the path while it was empty
  // must keep another writer's snapshot entry (A) and journal entry (C)
  // when it folds its own B into the snapshot.
  Kernel C = smallKernel(M, 8);
  PerfDatabase Compacting(M, Path);
  {
    PerfDatabase First(M, Path);
    First.measureKernel(A, smallConfig());
  } // A is in the snapshot.
  PerfDatabase Foreign(M, Path);
  Foreign.measureKernel(C, smallConfig()); // C is in the journal only.
  ASSERT_EQ(Foreign.entryCount(), 2u);

  setPerfJournalCompactionThresholdForTesting(1);
  Compacting.measureKernel(B, smallConfig());
  setPerfJournalCompactionThresholdForTesting(0);

  struct stat St;
  ASSERT_EQ(::stat(PerfDatabase::journalPath(Path).c_str(), &St), 0);
  EXPECT_EQ(St.st_size, 0) << "compaction must empty the journal";
  PerfDatabase Check(M);
  ASSERT_FALSE(Check.load(Path).failed());
  EXPECT_EQ(Check.entryCount(), 3u)
      << "the snapshot alone must hold A, B and C";
}

TEST_F(PerfCache, FailedSaveLeavesPreviousCacheIntact) {
  // The atomic-save regression: save() writes a temporary and renames it
  // into place, so a save that dies mid-write (full disk, crash) must
  // leave the previous cache bytes untouched -- not a truncated file the
  // next load would reject wholesale. With the write-ahead journal the
  // guarantee is stronger still: the measurement acknowledged before the
  // failed save stays durable in the journal, so nothing is lost at all.
  const MachineDesc &M = gtx580();
  Kernel A = smallKernel(M, 2), B = smallKernel(M, 4);
  double First, Second;
  {
    PerfDatabase DB(M, Path);
    First = DB.measureKernel(A, smallConfig());
    ASSERT_FALSE(DB.save(Path).failed());
  }

  // Simulate disk-full: the snapshot save may write at most 5 bytes.
  // (The journal append is a plain append, not a durable whole-file
  // write, so it is unaffected -- exactly the point of journaling.)
  setPerfCacheSaveByteLimitForTesting(5);
  {
    PerfDatabase DB(M, Path);
    Second = DB.measureKernel(B, smallConfig());
    Status S = DB.save(Path);
    EXPECT_TRUE(S.failed());
    EXPECT_NE(S.message().find("previous cache left intact"),
              std::string::npos)
        << S.message();
  }
  setPerfCacheSaveByteLimitForTesting(0);

  // The original snapshot is still fully loadable, B survived in the
  // journal, and no stray temporary remains to confuse a later save.
  PerfDatabase Check(M, Path);
  EXPECT_EQ(Check.entryCount(), 2u);
  EXPECT_EQ(Check.measureKernel(A, smallConfig()), First);
  EXPECT_EQ(Check.measureKernel(B, smallConfig()), Second);
  EXPECT_EQ(Check.misses(), 0u)
      << "acknowledged measurements must survive a failed snapshot save";
  std::ifstream Tmp(Path + ".tmp." + std::to_string(getpid()));
  EXPECT_FALSE(Tmp.good()) << "failed save must remove its temporary";
}

TEST_F(PerfCache, UnreadableCachePathMeasuresAndWarnsOnSave) {
  // A directory where the snapshot should be is a cold cache: the
  // measurement is served, and the exit save fails with a warning
  // instead of aborting.
  const MachineDesc &M = gtx680();
  Kernel K = smallKernel(M, 4);
  double Want = PerfDatabase(M, "").measureKernel(K, smallConfig());
  ASSERT_EQ(::mkdir(Path.c_str(), 0755), 0);
  testing::internal::CaptureStderr();
  {
    PerfDatabase DB(M, Path);
    Status Load = DB.load(Path);
    ASSERT_TRUE(Load.failed());
    EXPECT_NE(Load.message().find("Is a directory"), std::string::npos)
        << Load.message();
    EXPECT_EQ(DB.measureKernel(K, smallConfig()), Want);
  }
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("warning:"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Corrupt-file rejection (the Module::deserialize sanity-cap stance)
//===----------------------------------------------------------------------===//

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

class PerfCacheCorruption : public PerfCache {
protected:
  void SetUp() override {
    PerfCache::SetUp();
    PerfDatabase DB(gtx580(), Path);
    DB.measureKernel(smallKernel(gtx580(), 4), smallConfig());
    DB.measureKernel(smallKernel(gtx580(), 8), smallConfig());
    // Force the save now so the bytes exist to corrupt.
    ASSERT_FALSE(DB.save(Path).failed());
    Valid = readFile(Path);
    ASSERT_GE(Valid.size(), 12u);
  }

  void expectRejected(const std::vector<uint8_t> &Bytes,
                      const char *What) {
    writeFile(Path, Bytes);
    PerfDatabase DB(gtx580(), Path);
    Status S = DB.load(Path);
    EXPECT_TRUE(S.failed()) << What;
    EXPECT_EQ(DB.entryCount(), 0u)
        << What << ": corrupt file must not half-load";
  }

  std::vector<uint8_t> Valid;
};

TEST_F(PerfCacheCorruption, BadMagic) {
  auto Bytes = Valid;
  Bytes[0] ^= 0xff;
  expectRejected(Bytes, "bad magic");
}

TEST_F(PerfCacheCorruption, BadVersion) {
  auto Bytes = Valid;
  Bytes[4] = 0x7f;
  expectRejected(Bytes, "bad version");
}

TEST_F(PerfCacheCorruption, InsaneEntryCount) {
  auto Bytes = Valid;
  // Count field: bytes 8..11. 0xffffffff >> the 1M cap.
  Bytes[8] = Bytes[9] = Bytes[10] = Bytes[11] = 0xff;
  expectRejected(Bytes, "entry count over cap");
}

TEST_F(PerfCacheCorruption, InsaneKeyLength) {
  auto Bytes = Valid;
  // First entry's key length sits right after the 12-byte header.
  Bytes[12] = Bytes[13] = Bytes[14] = Bytes[15] = 0xff;
  expectRejected(Bytes, "key length over cap");
}

TEST_F(PerfCacheCorruption, Truncated) {
  auto Bytes = Valid;
  Bytes.resize(Bytes.size() - 5);
  expectRejected(Bytes, "truncated file");
}

TEST_F(PerfCacheCorruption, TrailingGarbage) {
  auto Bytes = Valid;
  Bytes.push_back(0xab);
  expectRejected(Bytes, "trailing bytes");
}

TEST_F(PerfCacheCorruption, CorruptFileIsIgnoredByCtorAndOverwritten) {
  auto Bytes = Valid;
  Bytes.resize(7); // Unusable.
  writeFile(Path, Bytes);
  double V;
  {
    PerfDatabase DB(gtx580(), Path); // Must not die or half-load.
    EXPECT_EQ(DB.entryCount(), 0u);
    V = DB.measureKernel(smallKernel(gtx580(), 4), smallConfig());
  }
  PerfDatabase Fresh(gtx580(), Path); // Rewritten with good bytes.
  EXPECT_EQ(Fresh.entryCount(), 1u);
  EXPECT_EQ(Fresh.measureKernel(smallKernel(gtx580(), 4), smallConfig()),
            V);
  EXPECT_EQ(Fresh.misses(), 0u);
}

} // namespace

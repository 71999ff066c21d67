//===- ubench/PerfDatabase.cpp - measured-throughput database -------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "ubench/PerfDatabase.h"

#include "support/FileIO.h"
#include "support/FrameLog.h"
#include "support/Format.h"
#include "support/LittleEndian.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace gpuperf;

namespace {

/// Snapshot-file layout (all integers little-endian):
///   "GPDB" | u32 version | u32 entry count
///   then per entry: u32 key length | key bytes | u64 value bits (double)
/// This is the compaction output format; it predates the journal, so
/// old caches load unchanged.
constexpr uint32_t CacheMagic = 0x42445047; // "GPDB"
constexpr uint32_t CacheVersion = 1;

/// Journal-file layout (the append-only write-ahead log that sits next
/// to the snapshot as <snapshot>.journal), a support/FrameLog:
///   "GPDJ" | u32 version
///   then per frame: u32 payload length | u32 crc32(payload) | payload
///   payload: u32 key length | key bytes | u64 value bits (double)
/// Every acknowledged measurement is one fsync'd frame. Recovery scans
/// frames until the first structural or CRC failure and truncates the
/// file there: a torn tail costs at most the unacknowledged frame,
/// never the records before it.
constexpr uint32_t JournalMagic = 0x4a445047; // "GPDJ"
constexpr uint32_t JournalVersion = 1;

/// Sanity caps, same stance as Module::deserialize: any structurally
/// impossible size means corruption, and we reject before allocating.
/// A key over MaxKeyBytes is therefore never persisted.
constexpr uint32_t MaxCacheEntries = 1u << 20;
constexpr uint32_t MaxKeyBytes = 1u << 12;
constexpr uint32_t MaxJournalPayload = 4 + MaxKeyBytes + 8;

/// Journal size at which an append triggers compaction into the
/// snapshot (test hook below can lower it).
constexpr size_t DefaultCompactionThreshold = 256u << 10;
size_t CompactionThresholdOverride = 0;

size_t compactionThreshold() {
  return CompactionThresholdOverride ? CompactionThresholdOverride
                                     : DefaultCompactionThreshold;
}

/// The entry encoding both files share: u32 key length | key | u64 bits.
void writeEntry(ByteWriter &W, const std::string &Key, double Value) {
  W.writeString(Key);
  uint64_t Bits;
  std::memcpy(&Bits, &Value, 8);
  W.writeU64(Bits);
}

FrameLog journalAt(const std::string &CachePath) {
  return FrameLog(PerfDatabase::journalPath(CachePath), JournalMagic,
                  JournalVersion, MaxJournalPayload);
}

/// Parses a snapshot file into a key->value map. Every failure names
/// the structural check that fired so a truncated or bit-flipped file
/// is diagnosable rather than silently half-loaded.
Expected<std::map<std::string, double>>
parseCacheFile(const std::string &Path) {
  using Result = Expected<std::map<std::string, double>>;
  auto File = readFileBytes(Path);
  if (!File)
    return Result::error("perf cache: " + File.message());

  ByteReader R(*File);
  uint32_t Magic = 0, Version = 0, Count = 0;
  if (!R.readU32(Magic) || Magic != CacheMagic)
    return Result::error("perf cache: bad magic (not a GPDB file)");
  if (!R.readU32(Version) || Version != CacheVersion)
    return Result::error(
        formatString("perf cache: unsupported version %u", Version));
  if (!R.readU32(Count))
    return Result::error("perf cache: truncated header");
  if (Count > MaxCacheEntries)
    return Result::error(
        formatString("perf cache: entry count %u exceeds cap", Count));

  std::map<std::string, double> Entries;
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t KeyLen = 0;
    std::string Key;
    uint64_t Bits = 0;
    if (!R.readU32(KeyLen))
      return Result::error("perf cache: truncated entry header");
    if (KeyLen == 0 || KeyLen > MaxKeyBytes)
      return Result::error(
          formatString("perf cache: key length %u exceeds cap", KeyLen));
    if (!R.readBytes(Key, KeyLen) || !R.readU64(Bits))
      return Result::error("perf cache: truncated entry");
    double Value;
    std::memcpy(&Value, &Bits, 8);
    Entries[Key] = Value;
  }
  if (!R.atEnd())
    return Result::error("perf cache: trailing bytes after last entry");
  return Entries;
}

/// Decodes one journal frame's payload into \p Entries. Returns false on
/// any structural violation (the frame is then treated as corrupt).
bool decodeJournalPayload(const uint8_t *Data, size_t Size,
                          std::map<std::string, double> &Entries) {
  ByteReader R(Data, Size);
  std::string Key;
  uint64_t Bits = 0;
  if (!R.readString(Key) || Key.empty() || Key.size() > MaxKeyBytes ||
      !R.readU64(Bits) || !R.atEnd())
    return false;
  std::memcpy(&Entries[Key], &Bits, 8);
  return true;
}

/// Every entry the journal next to \p CachePath holds, up to its first
/// corrupt frame. Leaves the file as it is.
std::map<std::string, double> replayJournal(const std::string &CachePath) {
  std::map<std::string, double> Entries;
  journalAt(CachePath).replay([&](const uint8_t *Data, size_t Size) {
    return decodeJournalPayload(Data, Size, Entries);
  });
  return Entries;
}

Status writeCacheFile(const std::string &Path,
                      const std::map<std::string, double> &Entries) {
  assert(Entries.size() <= MaxCacheEntries && "cache grew past its cap");
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.writeU32(CacheMagic);
  W.writeU32(CacheVersion);
  W.writeU32(static_cast<uint32_t>(Entries.size()));
  for (const auto &[Key, Value] : Entries)
    writeEntry(W, Key, Value);

  // Durable atomic replace (temp + fsync + rename + directory sync): a
  // crash, full disk or short write mid-save leaves the previous cache
  // file untouched instead of replacing it with a truncated one, and a
  // power loss after the rename cannot publish an empty file.
  if (Status S = writeFileDurable(Path, Out.data(), Out.size()); S.failed())
    return Status::error(S.message() + " while saving perf cache '" + Path +
                         "' (previous cache left intact)");
  return Status::success();
}

} // namespace

void gpuperf::setPerfCacheSaveByteLimitForTesting(size_t Limit) {
  setDurableWriteByteLimitForTesting(Limit);
}

void gpuperf::setPerfJournalCompactionThresholdForTesting(size_t Bytes) {
  CompactionThresholdOverride = Bytes;
}

PerfDatabase::PerfDatabase(const MachineDesc &M, std::string CachePath)
    : M(M), CachePath(std::move(CachePath)) {
  if (!this->CachePath.empty())
    Journal.emplace(journalPath(this->CachePath), JournalMagic,
                    JournalVersion, MaxJournalPayload);
  // A missing file is the normal cold-cache case; a corrupt snapshot is
  // treated the same (it will be rewritten wholesale on save), and the
  // journal replay inside load() recovers every acknowledged record a
  // crashed predecessor got to fsync. Callers that need to distinguish
  // use load() directly.
  if (!this->CachePath.empty())
    (void)load(this->CachePath);
}

PerfDatabase::~PerfDatabase() {
  bool NeedSave;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    NeedSave = Dirty && !CachePath.empty();
  }
  // The journal already holds every measurement durably; the exit save
  // is compaction housekeeping (fold the journal into the snapshot so
  // the next load replays nothing).
  if (NeedSave)
    if (Status S = save(CachePath); S.failed())
      std::fprintf(stderr, "warning: %s\n", S.message().c_str());
}

uint64_t PerfDatabase::kernelHash(const Kernel &K, GpuGeneration Arch) {
  Module Mod;
  Mod.Arch = Arch;
  Mod.Kernels.push_back(K);
  std::vector<uint8_t> Bytes = Mod.serialize();
  Fnv1a Hash;
  Hash.bytes(Bytes.data(), Bytes.size());
  return Hash.value();
}

std::string PerfDatabase::defaultCachePath() {
  if (const char *Env = std::getenv("GPUPERF_PERF_CACHE"))
    return Env;
  return "gpuperf_perf_cache.gpdb";
}

std::string PerfDatabase::keyFor(const Kernel &K,
                                 const MeasureConfig &Cfg) const {
  // The code hash covers the instruction stream, register count, and
  // shared size, so generator or encoder changes invalidate exactly the
  // entries they affect; the name keeps keys human-readable in dumps.
  return formatString("%s|%s|tb%d|bpsm%d|%016llx", M.Name.c_str(),
                      K.Name.c_str(), Cfg.ThreadsPerBlock, Cfg.BlocksPerSM,
                      static_cast<unsigned long long>(
                          kernelHash(K, M.Generation)));
}

double PerfDatabase::measureKernel(const Kernel &K,
                                   const MeasureConfig &Cfg) {
  std::string Key = keyFor(K, Cfg);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (auto It = Store.find(Key); It != Store.end()) {
      ++Hits;
      return It->second;
    }
    ++Misses;
  }
  // Measure outside the lock so concurrent sweep threads overlap their
  // simulations. Two threads racing on one key both measure it; the
  // simulator is deterministic, so the duplicated work is harmless (the
  // journal replay is idempotent for the duplicated frame too).
  double T = measureThroughput(M, K, Cfg);
  if (Key.size() > MaxKeyBytes) {
    // Loading rejects a key this long as corruption, so it may reach
    // neither the journal nor the snapshot: serve it, never store it.
    std::fprintf(stderr,
                 "warning: perf cache: a %zu-byte key exceeds the %u-byte "
                 "cap; measurement not cached\n",
                 Key.size(), MaxKeyBytes);
    return T;
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  Store[Key] = T;
  Dirty = true;
  if (!Journal)
    return T;
  // Acknowledge durably before returning: once a caller has seen this
  // value, no crash may lose it. Append failures degrade to in-memory
  // (the value is still correct; only durability is reduced).
  std::vector<uint8_t> Payload;
  ByteWriter W(Payload);
  writeEntry(W, Key, T);
  auto JournalBytes = Journal->append(Payload);
  if (!JournalBytes) {
    std::fprintf(stderr, "warning: perf journal: %s\n",
                 JournalBytes.message().c_str());
  } else if (*JournalBytes > compactionThreshold()) {
    // Compaction is an optimization; a failed snapshot write leaves the
    // journal, which still holds every record, untouched.
    if (Status S = compactLocked(CachePath); S.failed())
      std::fprintf(stderr, "warning: perf cache compaction: %s\n",
                   S.message().c_str());
  }
  return T;
}

Status PerfDatabase::compactLocked(const std::string &Path) {
  // Keep entries another process appended since our load -- unless we
  // re-measured the same key, in which case ours is at least as fresh.
  // Both the foreign snapshot and its journal count.
  std::map<std::string, double> Merged;
  if (auto OnDisk = parseCacheFile(Path))
    Merged = std::move(*OnDisk);
  for (const auto &[Key, Value] : replayJournal(Path))
    Merged[Key] = Value;
  for (const auto &[Key, Value] : Store)
    Merged[Key] = Value;
  if (Status S = writeCacheFile(Path, Merged); S.failed())
    return S;

  // Order is the invariant: the journal is only truncated *after* the
  // snapshot write is durable, so a crash at any point leaves every
  // record in the snapshot, the journal, or both (replay is idempotent)
  // -- never in neither. Truncating (rather than unlinking) keeps any
  // O_APPEND fd in this or another database object usable -- appends
  // re-write the header.
  journalAt(Path).clear();
  if (Path == CachePath)
    Dirty = false;
  return Status::success();
}

double PerfDatabase::mixThroughput(int FfmaPerLds, MemWidth Width,
                                   bool Dependent, int ActiveThreads,
                                   int DepChains, bool Pipelined) {
  assert(ActiveThreads >= WarpSize && "need at least one warp");

  MixBenchParams P;
  P.FfmaPerLds = FfmaPerLds;
  P.Width = Width;
  P.Dependent = Dependent;
  P.DepChains = DepChains;
  P.PipelinedConsume = Pipelined;
  Kernel K = generateMixBench(M, P);

  MeasureConfig Cfg;
  if (ActiveThreads <= M.MaxThreadsPerBlock) {
    Cfg.ThreadsPerBlock = ActiveThreads;
    Cfg.BlocksPerSM = 1;
  } else {
    Cfg.BlocksPerSM =
        (ActiveThreads + M.MaxThreadsPerBlock - 1) / M.MaxThreadsPerBlock;
    Cfg.ThreadsPerBlock = ActiveThreads / Cfg.BlocksPerSM;
  }
  return measureKernel(K, Cfg);
}

double PerfDatabase::mixThroughputSaturated(int FfmaPerLds, MemWidth Width,
                                            bool Dependent) {
  // The benchmark kernels use 32 registers/thread, so the register file
  // bounds the reachable occupancy: 1024 threads on Fermi (32K regs),
  // 2048 on Kepler (64K regs).
  int Threads = std::min(M.MaxThreadsPerSM, M.RegistersPerSM / 32);
  return mixThroughput(FfmaPerLds, Width, Dependent, Threads);
}

double PerfDatabase::ffmaPeak() {
  return mixThroughputSaturated(-1, MemWidth::B64, false);
}

size_t PerfDatabase::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

size_t PerfDatabase::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

size_t PerfDatabase::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Store.size();
}

Status PerfDatabase::load(const std::string &Path) {
  auto Entries = parseCacheFile(Path);

  // The journal is replayed regardless of the snapshot's fate: records
  // appended after the last compaction exist nowhere else, and a
  // missing snapshot next to a journal is the normal state of a
  // database that crashed before its first compaction.
  std::map<std::string, double> Replayed;
  journalAt(Path).recover([&](const uint8_t *Data, size_t Size) {
    return decodeJournalPayload(Data, Size, Replayed);
  });

  std::lock_guard<std::mutex> Lock(Mutex);
  if (Entries)
    for (auto &[Key, Value] : *Entries)
      Store.insert({Key, Value}); // Freshly-measured values win.
  for (auto &[Key, Value] : Replayed)
    Store.insert({Key, Value});
  if (!Replayed.empty() && Path == CachePath)
    Dirty = true; // Compact the replayed journal into the snapshot on exit.
  if (!Entries)
    return Entries.takeStatus();
  return Status::success();
}

Status PerfDatabase::save(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return compactLocked(Path);
}

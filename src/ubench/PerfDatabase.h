//===- ubench/PerfDatabase.h - measured-throughput database -----*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoizing store of microbenchmark measurements. The paper's analytical
/// model does not hard-code throughputs: it consumes numbers *measured* by
/// assembly-level benchmarks on the target machine (Section 5.5 proposes
/// exactly such "a small database of performance references"). This class
/// is that database; the model library queries it and the benchmarks print
/// from it.
///
/// Measurements can be *persistent*: constructed with a cache path, the
/// database loads previously-measured entries and makes every new one
/// durable the moment it is measured, so re-running a bench skips every
/// microbenchmark whose inputs are unchanged. Entries are keyed by
/// (machine name, kernel name, measurement shape, FNV-1a hash of the
/// generated binary), so any change to a generator, the ISA encoding, or
/// the notation tuner changes the hash and invalidates exactly the
/// affected entries.
///
/// Durability model (DESIGN.md section 13). The on-disk state is a
/// *snapshot* (the GPDB file, written atomically with temp + fsync +
/// rename + directory sync) plus an append-only *journal*
/// (<snapshot>.journal, a support/FrameLog) of records, each fsync'd
/// before the measurement is returned to the caller. Loading replays
/// snapshot-then-journal, truncating the journal at the first corrupt
/// frame instead of rejecting the whole cache; once the journal passes a
/// size threshold (or at destruction) it is compacted into a fresh
/// snapshot and emptied, snapshot-write-first so a crash at any point
/// loses no acknowledged record. Old caches are plain snapshots and load
/// unchanged.
///
/// All entry points are thread-safe, so parallel bench sweeps can share
/// one database; a key measured concurrently by two threads is measured
/// twice (the simulator is deterministic, so both arrive at the same
/// value) rather than serializing the sweep on a measurement lock.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_UBENCH_PERFDATABASE_H
#define GPUPERF_UBENCH_PERFDATABASE_H

#include "support/FrameLog.h"
#include "ubench/MixBench.h"

#include <map>
#include <mutex>
#include <optional>

namespace gpuperf {

/// Lazily-measured throughput database for one machine.
class PerfDatabase {
public:
  /// In-memory only: entries live for the lifetime of the object.
  explicit PerfDatabase(const MachineDesc &M) : M(M) {}

  /// Persistent: loads \p CachePath if it exists (a corrupt or
  /// unreadable snapshot is ignored and will be overwritten; its journal
  /// is replayed up to the first corrupt frame), appends every new
  /// measurement to the fsync'd journal as it is made, and compacts
  /// journal into snapshot on destruction. An empty path means in-memory
  /// only, so callers can thread a --no-cache flag through as "".
  PerfDatabase(const MachineDesc &M, std::string CachePath);

  ~PerfDatabase();

  PerfDatabase(const PerfDatabase &) = delete;
  PerfDatabase &operator=(const PerfDatabase &) = delete;

  /// Thread-instruction throughput of the FFMA:LDS.X mix benchmark
  /// (Figures 2 and 4) at the given active-thread count per SM.
  /// \p DepChains is the accumulator-chain count of the dependent
  /// pattern (2 = the paper's Figure 4 structure). Memoized.
  /// \p Pipelined selects previous-load consumption (see MixBenchParams).
  double mixThroughput(int FfmaPerLds, MemWidth Width, bool Dependent,
                       int ActiveThreads, int DepChains = 2,
                       bool Pipelined = false);

  /// Saturated-occupancy mix throughput (2048 threads on Kepler, 1536 on
  /// Fermi -- clamped to what the benchmark kernel's registers allow).
  double mixThroughputSaturated(int FfmaPerLds, MemWidth Width,
                                bool Dependent);

  /// Pure-FFMA thread-instruction throughput (conflict-free operands).
  double ffmaPeak();

  /// Memoized (and, with a cache path, persistent) throughput of an
  /// arbitrary generated kernel under \p Cfg -- the general entry point
  /// the mix helpers above are built on, also used directly by benches
  /// that generate their own kernels (Figure 2, Table 2 styles). A key
  /// longer than the file formats' 4096-byte cap (a very long kernel
  /// name) is measured and returned with a warning but never cached.
  double measureKernel(const Kernel &K, const MeasureConfig &Cfg);

  /// Cache-effectiveness counters (lifetime of this object).
  size_t hits() const;
  size_t misses() const;
  /// Number of entries currently held (loaded + measured).
  size_t entryCount() const;

  /// Merges entries from \p Path (snapshot plus journal) into this
  /// database. The snapshot is strict -- bad magic/version or a
  /// structurally corrupt body fails, the same sanity-cap stance as
  /// Module::deserialize, and the returned Status reports it. The
  /// journal is lenient: replay stops at the first corrupt frame and
  /// truncates the file there, so a torn tail costs at most the one
  /// unacknowledged record (pinned frame-by-frame by perf_journal_test).
  Status load(const std::string &Path);

  /// Compacts all entries into the snapshot at \p Path, first merging
  /// entries already on disk there (concurrently-written entries from
  /// another process are kept, in its snapshot or its journal, unless
  /// this database re-measured the same key). The write is durable and
  /// atomic: bytes go to a same-directory temporary that is fsync'd,
  /// renamed over \p Path, and the directory is fsync'd -- a crash, full
  /// disk or short write mid-save leaves the previous cache file
  /// untouched (pinned by perf_cache_test). Only after the snapshot is
  /// durable is the journal emptied.
  Status save(const std::string &Path);

  /// The append-only journal sitting next to snapshot \p CachePath.
  static std::string journalPath(const std::string &CachePath) {
    return CachePath + ".journal";
  }

  /// FNV-1a hash of the kernel exactly as it would reach the simulator
  /// (serialized through the binary module format for \p Arch).
  static uint64_t kernelHash(const Kernel &K, GpuGeneration Arch);

  /// Cache file used when benches are not given an explicit path: the
  /// GPUPERF_PERF_CACHE environment variable, or
  /// "gpuperf_perf_cache.gpdb" in the working directory.
  static std::string defaultCachePath();

  /// The machine this database measures.
  const MachineDesc &machine() const { return M; }

private:
  std::string keyFor(const Kernel &K, const MeasureConfig &Cfg) const;

  /// The one compaction routine, behind both save() and the journal
  /// threshold: folds the snapshot and journal at \p Path, overlaid with
  /// Store, into a fresh durable snapshot, then empties the journal --
  /// in that order, so a crash at any point leaves every record
  /// recoverable. On a failed snapshot write the journal is untouched.
  /// Caller holds Mutex.
  Status compactLocked(const std::string &Path);

  const MachineDesc &M;
  std::string CachePath;

  mutable std::mutex Mutex;
  std::map<std::string, double> Store; ///< Guarded by Mutex.
  size_t Hits = 0, Misses = 0;         ///< Guarded by Mutex.
  bool Dirty = false;                  ///< Guarded by Mutex.
  /// Appends go through it; absent for in-memory databases.
  std::optional<FrameLog> Journal;     ///< Guarded by Mutex.
};

/// Testing hook: caps the number of bytes PerfDatabase::save may write
/// to its temporary file (0 = unlimited, the default). A capped save
/// fails like a full disk would -- the test suite uses this to prove a
/// failed save cannot clobber the previous cache file. Not thread-safe;
/// set only from single-threaded test code. (Delegates to
/// setDurableWriteByteLimitForTesting in support/FileIO.h, so it also
/// caps compaction snapshot writes.)
void setPerfCacheSaveByteLimitForTesting(size_t Limit);

/// Testing hook: journal size (bytes) past which an append triggers
/// compaction (0 = the production default). Lowering it makes every
/// append compact, which is how the kill-during-compaction tests reach
/// the interesting crash windows cheaply.
void setPerfJournalCompactionThresholdForTesting(size_t Bytes);

} // namespace gpuperf

#endif // GPUPERF_UBENCH_PERFDATABASE_H

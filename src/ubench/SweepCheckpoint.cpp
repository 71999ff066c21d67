//===- ubench/SweepCheckpoint.cpp - completed-point journal ---------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "ubench/SweepCheckpoint.h"

#include "support/Format.h"
#include "support/LittleEndian.h"

using namespace gpuperf;

namespace {

constexpr uint32_t CheckpointMagic = 0x4b435047; // "GPCK"
constexpr uint32_t CheckpointVersion = 1;

/// Sanity caps: a frame violating them is corruption, not data.
constexpr uint32_t MaxNameBytes = 1u << 10;
constexpr uint32_t MaxRowBytes = 1u << 16;
constexpr uint32_t MaxRows = 1u << 12;
constexpr uint32_t MaxPayloadBytes = 1u << 24;

/// Encodes one record, refusing what decodePayload would reject (the
/// payload cap itself is FrameLog's to enforce).
Expected<std::vector<uint8_t>>
encodePayload(const std::string &Sweep, size_t Point,
              const std::vector<std::string> &Rows) {
  using Result = Expected<std::vector<uint8_t>>;
  if (Sweep.empty() || Sweep.size() > MaxNameBytes)
    return Result::error(formatString(
        "sweep name of %zu bytes is outside 1..%u", Sweep.size(),
        MaxNameBytes));
  if (Rows.size() > MaxRows)
    return Result::error(formatString("%zu rows exceed the cap of %u",
                                      Rows.size(), MaxRows));
  std::vector<uint8_t> Payload;
  ByteWriter W(Payload);
  W.writeString(Sweep);
  W.writeU32(static_cast<uint32_t>(Point));
  W.writeU32(static_cast<uint32_t>(Rows.size()));
  for (const std::string &Row : Rows) {
    if (Row.size() > MaxRowBytes)
      return Result::error(formatString(
          "a row of %zu bytes exceeds the cap of %u", Row.size(),
          MaxRowBytes));
    W.writeString(Row);
  }
  return Payload;
}

bool decodePayload(const uint8_t *Data, size_t Size, std::string &Sweep,
                   uint32_t &Point, std::vector<std::string> &Rows) {
  ByteReader R(Data, Size);
  uint32_t RowCount = 0;
  if (!R.readString(Sweep) || Sweep.empty() || Sweep.size() > MaxNameBytes ||
      !R.readU32(Point) || !R.readU32(RowCount) || RowCount > MaxRows)
    return false;
  Rows.resize(RowCount);
  for (std::string &Row : Rows)
    if (!R.readString(Row) || Row.size() > MaxRowBytes)
      return false;
  return R.atEnd();
}

} // namespace

SweepCheckpoint::SweepCheckpoint(std::string Path, bool Resume) {
  if (Path.empty())
    return;
  Log.emplace(std::move(Path), CheckpointMagic, CheckpointVersion,
              MaxPayloadBytes);
  if (!Resume) {
    // A fresh run owes the user a fresh sweep: drop stale completions
    // so every point is re-executed.
    Log->clear();
    return;
  }
  Log->recover([this](const uint8_t *Data, size_t Size) {
    std::string Sweep;
    uint32_t Point = 0;
    std::vector<std::string> Rows;
    if (!decodePayload(Data, Size, Sweep, Point, Rows))
      return false;
    Done[{Sweep, Point}] = std::move(Rows);
    return true;
  });
}

const std::vector<std::string> *
SweepCheckpoint::lookup(const std::string &Sweep, size_t Point) const {
  if (!Log)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Done.find({Sweep, Point});
  return It == Done.end() ? nullptr : &It->second;
}

size_t SweepCheckpoint::recordCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Done.size();
}

Status SweepCheckpoint::markDone(const std::string &Sweep, size_t Point,
                                 const std::vector<std::string> &Rows) {
  if (!Log)
    return Status::success();
  auto Payload = encodePayload(Sweep, Point, Rows);
  if (!Payload)
    return Status::error("sweep checkpoint '" + Log->path() +
                         "': " + Payload.message());

  std::lock_guard<std::mutex> Lock(Mutex);
  // Only a record that reached the disk may later justify skipping the
  // point.
  if (auto Size = Log->append(*Payload); !Size)
    return Size.takeStatus();
  Done[{Sweep, Point}] = Rows;
  return Status::success();
}

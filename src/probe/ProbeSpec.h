//===- probe/ProbeSpec.h - declarative probe definitions --------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative half of the probe engine: a small text format in which
/// users describe counters, per-key maps, and watchpoints over simulation
/// events, evaluated at runtime -- no recompile. PRs 3 and 5 each
/// hard-coded one observability question (stall attribution, per-PC
/// profiles) as bespoke C++; a probe spec asks a new one per run:
///
///   # bytes moved from global memory, split by access width
///   probe gmem_bytes {
///     event mem_access
///     aggregation sum
///     value bytes
///     key width
///     filter space == global
///   }
///
/// One `probe NAME { ... }` block per probe. Directives (separated by
/// newlines or `;`):
///   event EVENT          which simulation event feeds the probe (required)
///   aggregation AGG      count | sum | min | max | watch (required)
///   value FIELD          the aggregated field (required for sum/min/max,
///                        rejected for count/watch -- watch always
///                        aggregates the earliest matching cycle)
///   key FIELD            split the aggregate into a per-key map
///   filter FIELD OP VAL  only aggregate matching events (repeatable;
///                        OP is == != < <= > >=; VAL is an integer or a
///                        symbolic name resolved per field: opcode
///                        mnemonics, opcode class names, shared/global,
///                        SlotUse cause names, b32/b64/b128 widths)
///
/// `#` starts a comment. Parse and validation errors carry
/// file:line:column diagnostics; duplicate probe names and unknown
/// event/aggregation/field names are errors (the CLIs exit 2 on them).
///
/// Every aggregation is commutative and associative over integers, which
/// is what makes probe results merge-order independent -- the determinism
/// argument in DESIGN.md section 14.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_PROBE_PROBESPEC_H
#define GPUPERF_PROBE_PROBESPEC_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gpuperf {

/// Simulation events a probe can attach to. The SM simulator fires each
/// once, into the observer set that also feeds the trace and the profile
/// (sim/Observers.h).
enum class ProbeEvent : uint8_t {
  InstIssued,     ///< A warp instruction issued (dual-issue seconds too).
  MemAccess,      ///< A shared or global memory instruction issued.
  Replay,         ///< A Kepler mis-hint replay penalty was charged.
  BankConflict,   ///< A shared access serialized beyond the allowance.
  SlotLost,       ///< A span of one scheduler's issue slots was lost to
                  ///< one cause (`slots` long).
  BlockScheduled, ///< A block became resident on an SM (wave start).
  BlockDrained,   ///< The last live warp of a block exited.
  WarpExit,       ///< A warp executed EXIT.
};
inline constexpr size_t NumProbeEvents = 8;

/// Integer-valued fields of a fired event. Which fields an event carries
/// is event-specific (probeEventFields); referencing a field the event
/// does not carry is a spec validation error.
enum class ProbeField : uint8_t {
  PC,            ///< Static instruction index.
  Op,            ///< Opcode (filter against mnemonics: FFMA, LDS, ...).
  Class,         ///< Opcode class (float_math, shared_mem, ...).
  Lanes,         ///< Active lanes of the issuing warp.
  Block,         ///< Linear block id.
  Warp,          ///< Warp index within its block.
  Cycle,         ///< SM-launch-timeline cycle (wave offset included).
  Dual,          ///< 1 when the instruction rode a dual-issue second slot.
  Space,         ///< Memory space: shared (0) or global (1).
  Width,         ///< Access width in bits: 32, 64, 128 (b32/b64/b128).
  Bytes,         ///< Bytes moved (global: 128B segments; shared: lanes x
                 ///< access width).
  Transactions,  ///< Coalesced 128-byte transactions (global only).
  Serialization, ///< Bank-serialization factor of the conflicting access.
  Cause,         ///< SlotUse cause name (scoreboard, barrier, ...).
  Slots,         ///< Issue slots lost in this event.
  Insts,         ///< Warp instructions issued over the warp's lifetime.
};
inline constexpr size_t NumProbeFields = 16;

/// How matching events are folded into the probe's accumulator. All five
/// are commutative + associative, so per-SM partial results merge to the
/// same value in any order (the --jobs determinism guarantee).
enum class ProbeAgg : uint8_t {
  Count, ///< Number of matching events.
  Sum,   ///< Sum of the value field.
  Min,   ///< Minimum of the value field.
  Max,   ///< Maximum of the value field.
  Watch, ///< Earliest cycle a matching event fired (a watchpoint).
};

/// Filter comparison operators.
enum class ProbeCmp : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// One `filter FIELD OP VALUE` clause.
struct ProbeFilter {
  ProbeField Field = ProbeField::PC;
  ProbeCmp Cmp = ProbeCmp::Eq;
  int64_t Value = 0;
};

/// One parsed `probe NAME { ... }` block.
struct ProbeSpec {
  std::string Name;
  ProbeEvent Event = ProbeEvent::InstIssued;
  ProbeAgg Agg = ProbeAgg::Count;
  bool HasValue = false;
  ProbeField Value = ProbeField::PC; ///< Valid when HasValue.
  bool HasKey = false;
  ProbeField Key = ProbeField::PC; ///< Valid when HasKey.
  std::vector<ProbeFilter> Filters;
};

/// Stable names used in specs, reports and JSON records.
const char *probeEventName(ProbeEvent E);
const char *probeFieldName(ProbeField F);
const char *probeAggName(ProbeAgg A);

/// Bitmask (1 << field) of the fields \p E carries.
uint32_t probeEventFields(ProbeEvent E);

/// Renders a key value symbolically when the field has names (opcode
/// mnemonics, class/cause/space names, bNN widths), else in decimal.
std::string renderProbeKey(ProbeField F, int64_t V);

/// Parses \p Text as a probe spec file. \p FileName is used only in
/// diagnostics, which carry file:line:column positions. Fails on syntax
/// errors, unknown event/aggregation/field names, field-event
/// mismatches, missing/duplicate directives, and duplicate probe names.
Expected<std::vector<ProbeSpec>> parseProbeSpecs(std::string_view Text,
                                                 std::string_view FileName);

/// Reads and parses the spec file at \p Path (diagnostics name the
/// path). The single entry point behind every --probe flag.
Expected<std::vector<ProbeSpec>> loadProbeSpecFile(const std::string &Path);

} // namespace gpuperf

#endif // GPUPERF_PROBE_PROBESPEC_H

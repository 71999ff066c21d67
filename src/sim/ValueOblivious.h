//===- sim/ValueOblivious.h - proof that timing ignores data ---*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static check that a kernel's simulated timing cannot depend on the
/// values it computes from memory or with float math, so that a launch
/// whose values nobody reads may skip them (LaunchConfig::TimingOnly).
///
/// The check is a flow-sensitive forward taint analysis over the
/// kernel's control-flow graph. The destinations of LD, LDS, FFMA, FADD
/// and FMUL are tainted. Taint flows through MOV, the integer ops and
/// ISETP into registers and predicates; an unguarded write of an
/// untainted value (MOV32I, S2R, LDC, or an op over untainted sources)
/// kills it, and a guarded write merges into what the register held. The
/// kernel is value-oblivious when, at every reachable instruction,
///  * no LD/LDS/ST/STS address register is tainted, so addresses,
///    bounds and alignment traps, coalescing and bank serialization
///    follow untainted values only;
///  * no guard predicate is tainted, so every lane mask -- and with it
///    branch directions, divergence traps, which lanes access memory,
///    and every count and probe field that follows a mask -- does too.
///    This covers an ISETP whose sources feed a guard or branch.
/// Launch constants (LDC), special registers (S2R) and immediates are
/// the same in a timing-only launch as in a valued one, so they are not
/// sources.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_VALUEOBLIVIOUS_H
#define GPUPERF_SIM_VALUEOBLIVIOUS_H

#include "isa/Module.h"
#include "support/Error.h"

namespace gpuperf {

/// Succeeds when \p K's timing is value-oblivious (see the file
/// comment); otherwise fails with a message naming the first reachable
/// instruction, by PC, that uses a tainted address or guard.
Status proveValueOblivious(const Kernel &K);

} // namespace gpuperf

#endif // GPUPERF_SIM_VALUEOBLIVIOUS_H

#pragma once

#include <cstddef>
#include <cstdint>

/// \file config.hpp
/// Architectural constants of the SW26010 many-core processor as described
/// in section 5 of the paper (and in Fu et al., "The Sunway TaihuLight
/// supercomputer: system and applications", 2016).
///
/// One SW26010 has 4 core groups (CG). Each CG couples one management
/// processing element (MPE) with an 8x8 mesh of compute processing
/// elements (CPE) and one memory controller. These constants parameterize
/// the deterministic simulator in this directory.

namespace sw {

/// Number of CPE rows in one core group.
inline constexpr int kCpeRows = 8;
/// Number of CPE columns in one core group.
inline constexpr int kCpeCols = 8;
/// CPEs per core group.
inline constexpr int kCpesPerGroup = kCpeRows * kCpeCols;
/// Core groups per SW26010 processor.
inline constexpr int kGroupsPerProcessor = 4;

/// Size of the user-managed local data memory (scratchpad) per CPE.
inline constexpr std::size_t kLdmBytes = 64 * 1024;

/// CPE clock frequency in Hz.
inline constexpr double kCpeClockHz = 1.45e9;
/// Peak double precision flops per cycle per CPE with the 256-bit vector
/// unit (4-wide FMA).
inline constexpr double kCpeVectorFlopsPerCycle = 8.0;
/// Scalar double precision flops per cycle per CPE.
inline constexpr double kCpeScalarFlopsPerCycle = 1.0;

/// Main memory bandwidth of one core group in bytes/second. The processor
/// has 132 GB/s over 4 groups.
inline constexpr double kCgMemBandwidth = 33.0e9;
/// DMA startup latency in CPE cycles (descriptor issue + row buffer).
inline constexpr double kDmaStartupCycles = 270.0;
/// Cycles spent on the CPE itself to issue a DMA descriptor.
inline constexpr double kDmaIssueCycles = 25.0;

/// One-hop register communication latency between two CPEs that share a
/// row or a column, in cycles ("within tens of cycles" per the paper).
inline constexpr double kRegCommLatencyCycles = 11.0;
/// Cycles consumed on the sender to put a 256-bit message on the mesh.
inline constexpr double kRegCommSendCycles = 4.0;
/// Cycles consumed on the receiver to read a 256-bit message.
inline constexpr double kRegCommRecvCycles = 4.0;
/// Hardware FIFO depth of the register communication buffers, in 256-bit
/// messages. Senders stall when the destination FIFO is full.
inline constexpr int kRegCommFifoDepth = 4;

/// Cycles for a full core-group synchronization (athread barrier).
inline constexpr double kBarrierCycles = 160.0;
/// Cycles to spawn a parallel region on the CPE cluster. OpenACC-generated
/// code pays this per parallel construct; Athread code typically spawns
/// once and keeps the team alive.
inline constexpr double kSpawnCycles = 20000.0;

/// Bytes in one 256-bit vector register (4 doubles).
inline constexpr std::size_t kVectorBytes = 32;

// -- shared memory-controller contention (multi core group) ------------------
// The four core groups of one SW26010 sit behind one on-chip memory
// system; when several CGs stream DMA concurrently the per-CG achieved
// bandwidth degrades below kCgMemBandwidth. The model is linear in the
// number of concurrently active DMA streams n:
//   per-CG bytes/s   = kCgMemBandwidth / (1 + kMcContentionPerStream*(n-1))
//   aggregate bytes/s = n * per-CG  (so 4 CGs reach ~2.6x, not 4x)
// plus a queuing term on every descriptor's startup latency. Calibrated
// against the STREAM-style multi-CG measurements reported for SW26010
// (aggregate scaling well below linear); the machine model re-measures
// the realized curve on the simulator at calibration time rather than
// trusting these constants (perf::MachineModel::calibrate).

/// Per-extra-stream fractional bandwidth loss of one DMA stream.
inline constexpr double kMcContentionPerStream = 0.18;
/// Extra DMA startup cycles per extra concurrently active stream
/// (descriptor queuing at the shared controller).
inline constexpr double kMcQueueCyclesPerStream = 40.0;

}  // namespace sw

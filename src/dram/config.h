/**
 * @file
 * Bank-level DRAM configuration: timing, row policy and programmable
 * traffic generators.
 *
 * The contention backend (systolic::ContentionProfile) derates one
 * aggregate bandwidth number; this layer describes the channel the way
 * a gem5-style memory model does - banks with row-buffer state, command
 * timing in NPU-clock cycles, refresh, and a set of background traffic
 * generators (camera linear-stride, host random-access) that share the
 * channel with the NPU's prefetch/writeback stream. A DramSpec is a
 * sidecar to AcceleratorConfig, exactly like ContentionProfile: the
 * design space stays untouched, the deployment scenario changes.
 *
 * Everything here is plain data with validation; the simulation lives
 * in bank_model.h / channel.h / engine.h.
 */

#ifndef AUTOPILOT_DRAM_CONFIG_H
#define AUTOPILOT_DRAM_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace autopilot::dram
{

/** Row-buffer management policy. */
enum class RowPolicy
{
    Open,   ///< Keep the row open after an access (locality pays off).
    Closed, ///< Auto-precharge after every access (no hits, no conflicts).
};

/// Upper bound on DramTiming::banks: real parts have 8-64 banks, and
/// the bound keeps a channel's per-bank row registers small.
constexpr int kMaxBanks = 1024;

/// Upper bound on DramTiming::rowBytes (1 MiB; real pages are 1-16
/// KiB). It bounds the burst size, so a burst's transfer cycles stay
/// as small as the command latencies below.
constexpr std::int64_t kMaxRowBytes = std::int64_t{1} << 20;

/// Upper bound on every DramTiming cycle field (2^24 cycles, 84 ms at
/// the 200 MHz default clock - longer than a DRAM's whole 64 ms
/// retention window). With it, no sum of command latencies, refresh
/// deadline or completion cycle the channel computes can overflow.
constexpr std::int64_t kMaxTimingCycles = std::int64_t{1} << 24;

/** Stable lowercase label ("open", "closed"). */
std::string rowPolicyName(RowPolicy policy);

/** Inverse of rowPolicyName; returns false on an unknown label. */
bool rowPolicyFromName(const std::string &name, RowPolicy &policy);

/**
 * Channel timing in NPU-clock cycles. Defaults approximate an
 * LPDDR4-class part behind a 200 MHz NPU clock: single-digit command
 * latencies, a 7.8 us refresh interval (~1560 cycles) and a ~180 ns
 * refresh stall.
 */
struct DramTiming
{
    int banks = 8;                  ///< Independent bank state machines.
    std::int64_t rowBytes = 2048;   ///< Row-buffer (page) size.
    std::int64_t burstBytes = 64;   ///< Channel request granularity.
    std::int64_t tCasCycles = 4;    ///< Column access (row-buffer hit).
    std::int64_t tRcdCycles = 4;    ///< Activate-to-column delay.
    std::int64_t tRpCycles = 4;     ///< Precharge (row conflict) delay.
    std::int64_t tRefiCycles = 1560;///< Refresh command interval.
    std::int64_t tRfcCycles = 36;   ///< All-bank refresh stall.
    RowPolicy rowPolicy = RowPolicy::Open;

    bool operator==(const DramTiming &other) const = default;
};

/**
 * One programmable background stream. randomness selects the access
 * pattern continuously: 0.0 is a pure linear stride (camera/ISP frame
 * scan-out - high row locality), 1.0 jumps to a uniformly random
 * burst-aligned address on every request (host planner/logging traffic
 * - row conflicts), values between interleave the two (the
 * row-locality sweep knob in bench_engine_validation).
 */
struct TrafficGeneratorSpec
{
    /// CSV-safe label ([a-z0-9_-]) used in telemetry instrument names
    /// and trace spans.
    std::string name = "gen";
    /// Sustained injection rate; a stream at 0 is inert (not part of
    /// enabled()).
    double bytesPerSec = 0.0;
    /// Linear advance per request (>= 1); requests are burstBytes wide.
    std::int64_t strideBytes = 64;
    /// Probability in [0, 1] that a request jumps to a random address
    /// (and continues linearly from there until the next jump).
    double randomness = 0.0;
    /// Deterministic per-stream RNG seed for the random jumps.
    std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
    /// Address window the stream walks (wraps at base + range).
    std::int64_t addressBase = 0;
    std::int64_t addressRange = 64ll << 20;
    bool write = false; ///< Read vs write stream (stats only).

    bool operator==(const TrafficGeneratorSpec &other) const = default;
};

/**
 * The complete bank-level channel description a task runs under.
 *
 * An empty generator set means "NPU owns the channel": the dram engine
 * then takes the exact integer-ceiling cycle path (bit-identical to
 * systolic::CycleEngine) and the backend skips command-count power, so
 * a default-constructed DramSpec changes nothing anywhere - the same
 * backward-compatibility contract ContentionProfile and MissionMix
 * follow.
 */
struct DramSpec
{
    DramTiming timing;
    std::vector<TrafficGeneratorSpec> generators;

    /** True when any generator injects traffic. */
    bool enabled() const;

    /** Sum of the generators' injection rates, bytes per second. */
    double backgroundBytesPerSec() const;

    /**
     * Human-readable diagnosis of a degenerate parameter set (zero or
     * more than kMaxBanks banks, non-positive row/burst sizes, a row
     * above kMaxRowBytes, non-positive command latencies, a cycle
     * field above kMaxTimingCycles, a
     * refresh interval that never leaves the refresh stall, generator
     * rates/randomness out of range, ...). Empty when the spec is
     * simulable at some channel width. Degenerate inputs are
     * diagnosed in words, never simulated into NaN, infinite latency
     * or integer overflow.
     */
    std::string infeasibleReason() const;

    /**
     * infeasibleReason() plus the width-dependent half: a refresh
     * interval that cannot cover one refresh stall and one worst-case
     * burst (tRP + tRCD + tCAS + ceil(burst / @p bytesPerCycle)) means
     * the channel refreshes forever instead of transferring. Empty
     * when a channel @p bytesPerCycle wide can simulate the spec.
     */
    std::string infeasibleReasonAt(std::int64_t bytesPerCycle) const;

    /** Abort via util::fatal(infeasibleReason()) when degenerate. */
    void validate() const;

    /**
     * Compact CSV-safe archive tag: "-" when disabled, else e.g.
     * "b8o-1a2b3c4d" (banks, row-policy initial, 32-bit FNV of every
     * result-affecting field). Archived per evaluation so a journal
     * names the channel it was costed under.
     */
    std::string tag() const;

    /**
     * Canonical '|'-joined text of every result-affecting field;
     * folded into core::taskFingerprint() when enabled() so a journal
     * written under one channel never resumes under another.
     */
    std::string fingerprintText() const;

    bool operator==(const DramSpec &other) const = default;
};

/**
 * Parse "tCAS:tRCD:tRP" or "tCAS:tRCD:tRP:tREFI:tRFC" (cycles) into
 * @p timing, leaving other fields untouched. Returns false with a
 * reason in @p error on malformed text. Shared by the campaign_runner
 * --dram-timing flag and the service "dram_timing" submission key.
 */
bool parseDramTiming(const std::string &text, DramTiming &timing,
                     std::string &error);

/**
 * The paper's SoC sharing scenario as generators: a linear-stride
 * camera stream at @p cameraBytesPerSec plus a host stream at
 * @p hostBytesPerSec with the given randomness (1.0 = pure random
 * access). Streams at rate 0 are omitted, so (t, 0, 0) degenerates to
 * a disabled spec.
 */
DramSpec uavDramSpec(const DramTiming &timing, double cameraBytesPerSec,
                     double hostBytesPerSec, double hostRandomness = 1.0);

} // namespace autopilot::dram

#endif // AUTOPILOT_DRAM_CONFIG_H

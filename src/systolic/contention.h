/**
 * @file
 * Shared-DRAM contention profile.
 *
 * Phase 2 costs accelerators as if the NPU owned the LPDDR channel, but
 * on the real UAV SoC the camera pipeline and the flight-control host
 * stream through the same controller. A ContentionProfile describes that
 * background traffic as sustained bytes/s; the cycle engine derates its
 * effective fetch/writeback bandwidth by the fraction of the channel the
 * background streams consume, and the power stack charges the extra
 * DRAM traffic. The profile is a sidecar to AcceleratorConfig - the
 * design space stays untouched, the deployment scenario changes.
 */

#ifndef AUTOPILOT_SYSTOLIC_CONTENTION_H
#define AUTOPILOT_SYSTOLIC_CONTENTION_H

#include <string>

#include "systolic/config.h"

namespace autopilot::systolic
{

/** Background DRAM traffic sharing the NPU's channel. */
struct ContentionProfile
{
    /// Camera/ISP pipeline stream (sensor frames through the channel),
    /// sustained bytes per second.
    double cameraBytesPerSec = 0.0;
    /// Flight-control host traffic (planner, state estimator, logging),
    /// sustained bytes per second.
    double hostBytesPerSec = 0.0;
    /// QoS floor: fraction of the channel the memory controller
    /// guarantees the NPU regardless of background load, in [0, 1).
    /// 0 (default) models a strictly fair channel - a background load
    /// at or above the peak bandwidth starves the NPU completely,
    /// which the cycle engine diagnoses as an infeasible profile.
    double npuFloorFraction = 0.0;

    /** Total background traffic in bytes per second. */
    double totalBytesPerSec() const
    {
        return cameraBytesPerSec + hostBytesPerSec;
    }

    /** True when any background traffic is configured. */
    bool enabled() const { return totalBytesPerSec() > 0.0; }

    /**
     * Fraction of @p config's peak DRAM bandwidth left to the NPU:
     * max(1 - background/peak, npuFloorFraction). May be <= 0 for a
     * fully-contended channel with no QoS floor; callers must diagnose
     * that instead of dividing by it.
     */
    double derate(const AcceleratorConfig &config) const;

    /**
     * "" when the profile is well formed, else a named diagnosis: a
     * negative or non-finite rate, or a QoS floor outside [0, 1).
     */
    std::string invalidReason() const;

    /**
     * Smallest derate the cycle engine simulates. A FlatChannel transfer
     * of B bytes at width w and derate d takes ceil(B / (w d)) cycles,
     * cast to int64, and the fast-forwarded timeline adds whole runs of
     * such durations at once (rest * delta). Every one of those values
     * is at most the run's final cycle count T_d, so T_d < 2^63 keeps
     * them all in range. At any cycle before the layer retires the
     * channel or the array is busy, so T_d <= C + N + sum B_t / (w d),
     * for compute cycles C and N <= 2C transfers. The ideal channel
     * serializes the same transfers, so sum B_t / w <= T_1 and
     * T_d <= 3C + T_1 / d <= (3 + 1 / d) T_1. With d >= 2^-20 every
     * cycle count fits whenever the ideal run takes under 2^42 cycles:
     * about six hours at the 200 MHz default, and some 4e4 times the
     * slowest design point of the bundled policy space (about 1e8
     * cycles, on an 8x8 array with 32 KB scratchpads and 4-byte
     * operands). A smaller derate (a QoS floor of 1e-15, say) overflowed
     * int64 instead of costing a slower design.
     */
    static constexpr double minDerate = 1.0 / (1 << 20);

    /**
     * "" when the cycle engine can simulate the profile on @p config,
     * else a named diagnosis: invalidReason(), a derate <= 0 (the
     * background load reaches @p config's peak bandwidth and there is
     * no QoS floor), or a derate below minDerate.
     */
    std::string infeasibleReason(const AcceleratorConfig &config) const;

    /** Abort via fatal() with invalidReason() when it is not empty. */
    void validate() const;

    bool operator==(const ContentionProfile &other) const = default;
};

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_CONTENTION_H

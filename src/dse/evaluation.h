/**
 * @file
 * The Phase 2 evaluation record and its fidelity tag.
 *
 * Split out of evaluator.h so the cost-model backend layer
 * (eval_backend.h) and the memoizing evaluator can share the record
 * without an include cycle.
 */

#ifndef AUTOPILOT_DSE_EVALUATION_H
#define AUTOPILOT_DSE_EVALUATION_H

#include <string>

#include "dse/design_space.h"
#include "dse/pareto.h"

namespace autopilot::dse
{

/**
 * Which cost model produced an evaluation's archived numbers.
 *
 * Mixed appears only as a backend-level label (TieredBackend); every
 * individual Evaluation is either Analytical or CycleAccurate.
 */
enum class Fidelity
{
    Analytical,    ///< Closed-form engine (max(compute, DRAM) + latency).
    CycleAccurate, ///< Cycle-stepped prefetch/writeback timeline.
    BankAccurate,  ///< Cycle timeline over the bank-level DRAM channel.
    Mixed,         ///< Backend mixes fidelities per point (tiered).
};

/** Stable lowercase label ("analytical", "cycle", "bank", "mixed"). */
std::string fidelityName(Fidelity fidelity);

/**
 * Inverse of fidelityName: store the value and return true, or leave
 * @p fidelity untouched and return false on an unknown label, so the
 * archive reader can diagnose a corrupt row instead of aborting.
 */
bool tryFidelityFromName(const std::string &name, Fidelity &fidelity);

/** Full evaluation of one design point. */
struct Evaluation
{
    Encoding encoding{};
    DesignPoint point;
    double successRate = 0.0;
    double npuPowerW = 0.0;
    double socPowerW = 0.0;
    double latencyMs = 0.0;
    double fps = 0.0;
    Objectives objectives; ///< {1 - success, socPowerW, latencyMs}.
    /// Cost model that produced the performance/power numbers above.
    Fidelity fidelity = Fidelity::Analytical;
    /// Registry name of the backend that archived this record.
    std::string backend = "analytical";
    /// Background DRAM traffic (bytes/s) the evaluation was costed
    /// under (shared-channel contention; 0 = NPU owns the channel).
    /// Archived so a resumed contention run replays the profile its
    /// journal was written with.
    double contentionBytesPerSec = 0.0;
    /// Mission-mix label of the campaign that archived this record
    /// (uav::MissionMix::tag()): "-" for the legacy single-scenario
    /// workload, else the '+'-joined scenario names. CSV-safe by
    /// construction (scenario names are [a-z0-9_-]).
    std::string scenario = "-";
    /// Bank-level DRAM channel the evaluation was costed under
    /// (dram::DramSpec::tag()): "-" when bank simulation was off (every
    /// non-dram backend, and a dram backend with no traffic
    /// generators), else the compact channel tag. CSV-safe by
    /// construction.
    std::string dramKey = "-";
    /// Operand precision label (systolic::precisionName) when the
    /// precision axis is searchable: "-" for legacy single-precision
    /// runs (which also selects the legacy archive layout), else
    /// "int8"/"fp16"/"fp32". CSV-safe by construction.
    std::string precision = "-";
};

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_EVALUATION_H

/**
 * @file
 * Memory-event trace generation, SCALE-Sim style.
 *
 * SCALE-Sim's primary output is per-cycle SRAM/DRAM traces that feed
 * power models; this module reproduces that interface at fold
 * granularity: a stream of records, one per (fold, event-kind), carrying
 * the byte/element counts and the event's start cycle on the fold
 * timeline. It is an observer of the stepped fold timeline
 * (stepTimeline(), cycle_engine.h), not a copy of it, so its cycles
 * cannot drift from the cycle engine's. The trace totals are guaranteed
 * to match the FoldTraffic totals (property-tested), so trace consumers
 * and the analytic power model always agree.
 */

#ifndef AUTOPILOT_SYSTOLIC_TRACE_H
#define AUTOPILOT_SYSTOLIC_TRACE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "systolic/config.h"
#include "systolic/memory.h"

namespace autopilot::systolic
{

/** Kind of a trace event. */
enum class TraceEventKind
{
    DramFetch,     ///< Operand bytes fetched ahead of a fold.
    DramWriteback, ///< Result bytes written back after a fold.
    SramRead,      ///< Operand elements streamed from scratchpads.
    SramWrite,     ///< Result elements written to scratchpads.
};

/** Human-readable event-kind label. */
std::string traceEventKindName(TraceEventKind kind);

/** One trace record. */
struct TraceEvent
{
    std::int64_t foldIndex = 0;
    /// Transfer start for DRAM events, fold compute start for SRAM ones.
    std::int64_t startCycle = 0;
    TraceEventKind kind = TraceEventKind::DramFetch;
    std::int64_t amount = 0; ///< Bytes (DRAM) or elements (SRAM).
};

/** Complete trace of one layer. */
struct LayerTrace
{
    std::string layerName;
    std::vector<TraceEvent> events;

    /** Sum of amounts for one event kind. */
    std::int64_t totalOf(TraceEventKind kind) const;

    /** Emit as CSV (layer,fold,cycle,kind,amount). */
    void writeCsv(std::ostream &os) const;
};

/**
 * Generate the fold-granular trace of a layer on a configuration.
 *
 * The trace is recorded by stepping the fold timeline over a
 * full-bandwidth FlatChannel - the timeline CycleEngine fast-forwards -
 * so its start cycles are CycleEngine's. DRAM amounts are the
 * FoldTraffic per-fold split and SRAM amounts split its scratchpad
 * totals evenly across folds.
 */
LayerTrace traceLayer(const nn::Layer &layer,
                      const AcceleratorConfig &config);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_TRACE_H

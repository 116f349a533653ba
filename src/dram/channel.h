/**
 * @file
 * Deterministic event-interleaved channel arbiter.
 *
 * One ChannelTimeline owns the channel for one layer simulation: the
 * NPU's prefetch/writeback transfers (driven by the engine's fold
 * timeline) and every background generator's bursts are serialized in
 * strict arrival order - a request is serviced before an NPU transfer
 * only when it arrived no later than the transfer's earliest start,
 * with ties broken by fixed stream priority (generators in spec order,
 * then the NPU). Arrival-order FCFS is starvation-free by construction:
 * a generator injects a bounded number of requests per time window, so
 * every NPU transfer completes in bounded time no matter how overloaded
 * the channel is - no feasibility derate needed, unlike the contention
 * profile. Each source sits behind a finite FIFO: when its nominal rate
 * exceeds what the channel can service, injection stalls (backpressure)
 * instead of accumulating an unbounded backlog, so an overloaded spec
 * costs simulated cycles, never unbounded simulation work.
 *
 * A layer simulates millions of bursts, so the per-burst path does no
 * integer division:
 *  - every linear stream (the NPU read and write walks, each generator
 *    between random jumps) carries a BankCursor and advances it by its
 *    stride with compare-and-carry; a generator's wrap at the end of its
 *    window is a compare-and-subtract. Only a random jump decomposes an
 *    address from scratch, drawing the same LCG values in the same
 *    order;
 *  - the full-burst transfer cycles, each generator's FIFO slack and
 *    its jump slot count are computed once per timeline;
 *  - the run of background bursts ahead of an NPU transfer is serviced
 *    in one loop. nextArrival stays a double, rounded with std::ceil
 *    and FIFO-floored as the stepped model does, so arrival cycles are
 *    the same;
 *  - an NPU transfer's bursts are back to back on one linear walk, so
 *    after the first burst in a row the rest of that row are hits until
 *    the next refresh, served as one BankModel::hitRun.
 * tests/oracle/dram_channel.h keeps the stepped, address-dividing
 * model; a differential test holds this one to it exactly.
 *
 * Everything is integer/fixed-seed arithmetic on one thread; two
 * timelines built from the same spec and fed the same transfer sequence
 * produce bit-identical completions and stats, which is what makes the
 * dram backend byte-identical at any worker-thread count.
 */

#ifndef AUTOPILOT_DRAM_CHANNEL_H
#define AUTOPILOT_DRAM_CHANNEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/bank_model.h"
#include "dram/config.h"
#include "systolic/config.h"

namespace autopilot::dram
{

/** One layer's shared-channel service timeline. */
class ChannelTimeline
{
  public:
    /**
     * @param spec   Validated channel description (enabled or not).
     * @param config Accelerator configuration; supplies the channel
     *               width (dramBytesPerCycle) and the NPU clock that
     *               converts generator bytes/s into cycles. Fatal with
     *               DramSpec::infeasibleReasonAt() when the refresh
     *               interval cannot even cover one burst at this width
     *               (the channel would never make progress).
     */
    ChannelTimeline(const DramSpec &spec,
                    const systolic::AcceleratorConfig &config);

    /**
     * Service one NPU transfer of @p bytes arriving at @p earliestStart,
     * split into burst-sized channel requests; background requests that
     * arrived earlier win the channel first. Returns the completion
     * cycle of the last burst (== @p earliestStart when bytes == 0).
     */
    std::int64_t transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool write);

    /** Command and traffic counters so far. */
    ChannelStats stats() const;

  private:
    /// One background stream: arrival clock, address walk, counters.
    struct Generator
    {
        std::string name;
        double interArrivalCycles = 0.0;
        double fifoSlack = 0.0; ///< FIFO depth in cycles.
        double nextArrival = 0.0;
        double randomness = 0.0;
        std::uint64_t rng = 0;
        std::uint64_t slots = 0;  ///< Burst-aligned jump targets.
        std::uint64_t slotMask = 0; ///< slots - 1 when slots is 2^k.
        std::int64_t base = 0;    ///< Window start address.
        std::int64_t range = 0;   ///< Window size.
        std::int64_t stride = 0;  ///< Stride reduced modulo range.
        std::int64_t offset = 0;  ///< Walk position in [0, range).
        BankCursor at;            ///< Location of base + offset.
        BankCursor strideStep;    ///< locate(stride).
        BankCursor rangeStep;     ///< locate(range).
        std::int64_t requests = 0;
    };

    /// Service, in arrival order, every background request that
    /// arrived no later than @p npuArrival.
    void serviceBackground(double npuArrival);

    BankModel banks; ///< First: built only from a simulable spec.
    std::int64_t bytesPerCycle;
    std::int64_t burstBytes;
    std::int64_t burstCycles; ///< ceil(burstBytes / bytesPerCycle).
    BankCursor burstStep;     ///< locate(burstBytes).
    std::int64_t channelFree = 0;
    /// NPU stream walk positions: reads from the model/weight region
    /// (address 0 up), writes to a disjoint output region (2^28 up).
    BankCursor npuRead;
    BankCursor npuWrite;
    std::int64_t npuRequests = 0;
    std::int64_t npuBytes = 0;
    std::vector<Generator> generators;
};

} // namespace autopilot::dram

#endif // AUTOPILOT_DRAM_CHANNEL_H

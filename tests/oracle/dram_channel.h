/**
 * @file
 * Test oracle: the stepped bank-level DRAM channel.
 *
 * This is the straightforward model src/dram/ used to run: every burst
 * re-derives its bank, row and transfer cycles from the address with
 * integer division, picks the earliest generator by a linear scan, and
 * folds its command counts into ChannelStats as it goes. The production
 * ChannelTimeline (src/dram/channel.h) replaces the divisions with
 * per-stream cursors and services background runs in one loop; the
 * differential tests hold it to this oracle burst for burst - every
 * completion cycle and every ChannelStats field must be equal.
 *
 * Addresses map row:bank:column:
 *
 *   column = addr % rowBytes
 *   bank   = (addr / rowBytes) % banks
 *   row    =  addr / (rowBytes * banks)
 *
 * Used only by tests; nothing in src/ links it.
 */

#ifndef AUTOPILOT_TESTS_ORACLE_DRAM_CHANNEL_H
#define AUTOPILOT_TESTS_ORACLE_DRAM_CHANNEL_H

#include <cstdint>
#include <vector>

#include "dram/bank_model.h"
#include "dram/config.h"
#include "systolic/config.h"

namespace autopilot::dram::oracle
{

/** Bank state machines + refresh for one channel, address-driven. */
class BankModel
{
  public:
    /** @param timing Validated channel timing. */
    explicit BankModel(const DramTiming &timing);

    /**
     * Service one request of @p bytes at @p addr on an idle channel,
     * starting no earlier than cycle @p start; returns the completion
     * cycle and folds the command counts into @p stats.
     */
    std::int64_t service(std::int64_t addr, std::int64_t bytes,
                         std::int64_t start, std::int64_t bytesPerCycle,
                         ChannelStats &stats);

  private:
    DramTiming timing;
    std::vector<std::int64_t> openRow; ///< Per bank; -1 = precharged.
    std::int64_t nextRefresh;
};

/** One layer's shared-channel service timeline, stepped burst by burst. */
class ChannelTimeline
{
  public:
    /** Same contract as dram::ChannelTimeline's constructor. */
    ChannelTimeline(const DramSpec &spec,
                    const systolic::AcceleratorConfig &config);

    /** Same contract as dram::ChannelTimeline::transfer(). */
    std::int64_t transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool write);

    const ChannelStats &stats() const { return stats_; }

  private:
    struct GeneratorState
    {
        TrafficGeneratorSpec spec;
        double interArrivalCycles = 0.0;
        double nextArrival = 0.0;
        std::int64_t offset = 0; ///< Linear walk position in the window.
        std::uint64_t rng = 0;
        std::size_t statsIndex = 0;
    };

    void serviceGenerator(GeneratorState &generator);
    GeneratorState *earliestGenerator();

    DramSpec spec_;
    std::int64_t bytesPerCycle;
    BankModel banks;
    std::int64_t channelFree = 0;
    std::int64_t npuReadAddr = 0;
    std::int64_t npuWriteAddr = 1ll << 28;
    std::vector<GeneratorState> generators;
    ChannelStats stats_;
};

} // namespace autopilot::dram::oracle

#endif // AUTOPILOT_TESTS_ORACLE_DRAM_CHANNEL_H

#include "dram/bank_model.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace autopilot::dram
{

void
ChannelStats::accumulate(const ChannelStats &other)
{
    rowHits += other.rowHits;
    rowMisses += other.rowMisses;
    rowConflicts += other.rowConflicts;
    activates += other.activates;
    precharges += other.precharges;
    refreshes += other.refreshes;
    npuRequests += other.npuRequests;
    npuBytes += other.npuBytes;
    backgroundRequests += other.backgroundRequests;
    backgroundBytes += other.backgroundBytes;
    if (generators.size() < other.generators.size())
        generators.resize(other.generators.size());
    for (std::size_t g = 0; g < other.generators.size(); ++g) {
        generators[g].name = other.generators[g].name;
        generators[g].requests += other.generators[g].requests;
        generators[g].bytes += other.generators[g].bytes;
    }
}

BankModel::BankModel(const DramTiming &timing)
    : rowBytes(timing.rowBytes), banks(timing.banks),
      latencyCycles{timing.tCasCycles,
                    timing.tCasCycles + timing.tRcdCycles,
                    timing.tCasCycles + timing.tRpCycles +
                        timing.tRcdCycles},
      refiCycles(timing.tRefiCycles), rfcCycles(timing.tRfcCycles),
      closedPolicy(timing.rowPolicy == RowPolicy::Closed),
      openRow(static_cast<std::size_t>(std::max(timing.banks, 0)), -1),
      nextRefresh(timing.tRefiCycles)
{
    util::fatalIf(timing.banks <= 0 || timing.rowBytes <= 0 ||
                      timing.tRefiCycles <= 0,
                  "BankModel: degenerate timing - validate the DramSpec "
                  "before simulating");
    const auto rows = static_cast<std::uint64_t>(rowBytes);
    const auto bankCount = static_cast<std::uint64_t>(banks);
    powerOfTwoGeometry =
        std::has_single_bit(rows) && std::has_single_bit(bankCount);
    rowShift = std::countr_zero(rows);
    bankShift = std::countr_zero(bankCount);
}

std::int64_t
BankModel::refresh(std::int64_t start)
{
    const std::int64_t stallEnd = nextRefresh + rfcCycles;
    std::fill(openRow.begin(), openRow.end(), -1);
    ++refreshes;
    nextRefresh += refiCycles;
    return start < stallEnd ? stallEnd : start;
}

void
BankModel::addCommands(ChannelStats &stats) const
{
    stats.rowHits += hits;
    stats.rowMisses += misses;
    stats.rowConflicts += conflicts;
    stats.activates += misses + conflicts;
    stats.precharges +=
        conflicts + (closedPolicy ? hits + misses + conflicts : 0);
    stats.refreshes += refreshes;
}

} // namespace autopilot::dram

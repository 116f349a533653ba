#include "oracle/dram_channel.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace autopilot::dram::oracle
{

namespace
{

std::uint64_t
lcgNext(std::uint64_t state)
{
    return state * 6364136223846793005ULL + 1442695040888963407ULL;
}

double
lcgUniform(std::uint64_t state)
{
    return static_cast<double>(state >> 11) * 0x1.0p-53;
}

constexpr double kSourceFifoBursts = 8.0;

} // namespace

BankModel::BankModel(const DramTiming &config)
    : timing(config),
      openRow(static_cast<std::size_t>(config.banks), -1),
      nextRefresh(config.tRefiCycles)
{
    util::fatalIf(timing.banks <= 0 || timing.rowBytes <= 0 ||
                      timing.tRefiCycles <= 0,
                  "oracle::BankModel: degenerate timing");
}

std::int64_t
BankModel::service(std::int64_t addr, std::int64_t bytes,
                   std::int64_t start, std::int64_t bytesPerCycle,
                   ChannelStats &stats)
{
    while (start >= nextRefresh) {
        const std::int64_t stallEnd = nextRefresh + timing.tRfcCycles;
        for (std::int64_t &row : openRow)
            row = -1;
        ++stats.refreshes;
        if (start < stallEnd)
            start = stallEnd;
        nextRefresh += timing.tRefiCycles;
    }

    const std::size_t bank = static_cast<std::size_t>(
        (addr / timing.rowBytes) % timing.banks);
    const std::int64_t row = addr / (timing.rowBytes * timing.banks);

    std::int64_t latency = timing.tCasCycles;
    if (openRow[bank] == row) {
        ++stats.rowHits;
    } else if (openRow[bank] < 0) {
        ++stats.rowMisses;
        ++stats.activates;
        latency += timing.tRcdCycles;
    } else {
        ++stats.rowConflicts;
        ++stats.activates;
        ++stats.precharges;
        latency += timing.tRpCycles + timing.tRcdCycles;
    }
    if (timing.rowPolicy == RowPolicy::Open) {
        openRow[bank] = row;
    } else {
        openRow[bank] = -1;
        ++stats.precharges;
    }

    const std::int64_t transfer =
        (bytes + bytesPerCycle - 1) / bytesPerCycle;
    return start + latency + transfer;
}

ChannelTimeline::ChannelTimeline(const DramSpec &spec,
                                 const systolic::AcceleratorConfig &config)
    : spec_(spec), bytesPerCycle(config.dramBytesPerCycle),
      banks(spec.timing)
{
    const std::string reason =
        spec_.infeasibleReasonAt(config.dramBytesPerCycle);
    util::fatalIf(!reason.empty(), "oracle::ChannelTimeline: " + reason);

    const double cyclesPerSec = config.clockGhz * 1e9;
    for (const TrafficGeneratorSpec &generator : spec_.generators) {
        if (generator.bytesPerSec <= 0.0)
            continue;
        GeneratorState state;
        state.spec = generator;
        state.interArrivalCycles =
            static_cast<double>(spec_.timing.burstBytes) * cyclesPerSec /
            generator.bytesPerSec;
        state.nextArrival = state.interArrivalCycles;
        state.rng = generator.seed;
        state.statsIndex = stats_.generators.size();
        stats_.generators.push_back({generator.name, 0, 0});
        generators.push_back(std::move(state));
    }
}

ChannelTimeline::GeneratorState *
ChannelTimeline::earliestGenerator()
{
    GeneratorState *best = nullptr;
    for (GeneratorState &candidate : generators) {
        if (best == nullptr || candidate.nextArrival < best->nextArrival)
            best = &candidate;
    }
    return best;
}

void
ChannelTimeline::serviceGenerator(GeneratorState &generator)
{
    const TrafficGeneratorSpec &gen = generator.spec;
    const std::int64_t burst = spec_.timing.burstBytes;

    if (gen.randomness > 0.0) {
        generator.rng = lcgNext(generator.rng);
        if (lcgUniform(generator.rng) < gen.randomness) {
            generator.rng = lcgNext(generator.rng);
            const std::uint64_t slots = static_cast<std::uint64_t>(
                gen.addressRange / burst);
            generator.offset = static_cast<std::int64_t>(
                (generator.rng >> 11) % slots) * burst;
        }
    }
    const std::int64_t addr =
        gen.addressBase + generator.offset % gen.addressRange;
    generator.offset += gen.strideBytes;

    const std::int64_t arrival = static_cast<std::int64_t>(
        std::ceil(generator.nextArrival));
    const std::int64_t start = std::max(channelFree, arrival);
    channelFree = banks.service(addr, burst, start, bytesPerCycle,
                                stats_);
    generator.nextArrival += generator.interArrivalCycles;
    const double fifoFloor =
        static_cast<double>(channelFree) -
        kSourceFifoBursts * generator.interArrivalCycles;
    if (generator.nextArrival < fifoFloor)
        generator.nextArrival = fifoFloor;

    ++stats_.backgroundRequests;
    stats_.backgroundBytes += burst;
    GeneratorStats &slice = stats_.generators[generator.statsIndex];
    ++slice.requests;
    slice.bytes += burst;
}

std::int64_t
ChannelTimeline::transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool write)
{
    if (bytes <= 0)
        return earliestStart;

    std::int64_t remaining = bytes;
    std::int64_t done = earliestStart;
    std::int64_t &npuAddr = write ? npuWriteAddr : npuReadAddr;
    const std::int64_t burstBytes = spec_.timing.burstBytes;
    const double npuArrival = static_cast<double>(earliestStart);

    while (remaining > 0) {
        GeneratorState *front = earliestGenerator();
        if (front != nullptr && front->nextArrival <= npuArrival) {
            serviceGenerator(*front);
            continue;
        }

        const std::int64_t burst = std::min(remaining, burstBytes);
        const std::int64_t start = std::max(channelFree, earliestStart);
        done = banks.service(npuAddr, burst, start, bytesPerCycle,
                             stats_);
        channelFree = done;
        npuAddr += burst;
        remaining -= burst;
        ++stats_.npuRequests;
        stats_.npuBytes += burst;
    }
    return done;
}

} // namespace autopilot::dram::oracle

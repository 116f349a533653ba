#include "dram/channel.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"

namespace autopilot::dram
{

namespace
{

/// Deterministic 64-bit LCG (Knuth MMIX constants); the top 53 bits
/// feed both the jump decision and the jump target, so a stream's
/// address sequence is a pure function of its seed.
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

/// Burst-depth of the FIFO between a traffic source and the channel.
/// A source whose nominal rate exceeds its service rate (e.g. a pure
/// random-access stream on a busy channel) stalls once the FIFO fills -
/// backpressure, like any real AXI master - so its backlog is bounded
/// and the simulation stays linear in simulated time instead of
/// accumulating an ever-growing queue.
constexpr double kSourceFifoBursts = 8.0;

/// @p spec's timing, or fatal with the diagnosis when a channel
/// @p bytesPerCycle wide cannot simulate it.
const DramTiming &
simulableTiming(const DramSpec &spec, std::int64_t bytesPerCycle)
{
    const std::string reason = spec.infeasibleReasonAt(bytesPerCycle);
    util::fatalIf(!reason.empty(), "ChannelTimeline: " + reason);
    return spec.timing;
}

} // namespace

ChannelTimeline::ChannelTimeline(const DramSpec &spec,
                                 const systolic::AcceleratorConfig &config)
    : banks(simulableTiming(spec, config.dramBytesPerCycle)),
      bytesPerCycle(config.dramBytesPerCycle),
      burstBytes(spec.timing.burstBytes),
      burstCycles((burstBytes + bytesPerCycle - 1) / bytesPerCycle),
      burstStep(banks.locate(burstBytes)),
      npuWrite(banks.locate(std::int64_t{1} << 28))
{
    const double cyclesPerSec = config.clockGhz * 1e9;
    for (const TrafficGeneratorSpec &source : spec.generators) {
        if (source.bytesPerSec <= 0.0)
            continue; // Inert stream: injects nothing.
        Generator gen;
        gen.name = source.name;
        gen.interArrivalCycles = static_cast<double>(burstBytes) *
                                 cyclesPerSec / source.bytesPerSec;
        gen.fifoSlack = kSourceFifoBursts * gen.interArrivalCycles;
        gen.nextArrival = gen.interArrivalCycles;
        gen.randomness = source.randomness;
        gen.rng = source.seed;
        gen.slots =
            static_cast<std::uint64_t>(source.addressRange / burstBytes);
        if (std::has_single_bit(gen.slots))
            gen.slotMask = gen.slots - 1;
        gen.base = source.addressBase;
        gen.range = source.addressRange;
        gen.stride = source.strideBytes % source.addressRange;
        gen.at = banks.locate(gen.base);
        gen.strideStep = banks.locate(gen.stride);
        gen.rangeStep = banks.locate(gen.range);
        generators.push_back(std::move(gen));
    }
}

void
ChannelTimeline::serviceBackground(double npuArrival)
{
    std::int64_t free = channelFree;
    for (;;) {
        Generator *front = nullptr;
        for (Generator &candidate : generators) {
            if (front == nullptr ||
                candidate.nextArrival < front->nextArrival)
                front = &candidate;
        }
        if (front == nullptr || front->nextArrival > npuArrival)
            break;
        Generator &gen = *front;

        if (gen.randomness > 0.0) {
            gen.rng = lcgNext(gen.rng);
            if (lcgUniform(gen.rng) < gen.randomness) {
                // Jump to a random burst-aligned slot; the stream then
                // continues linearly from there until the next jump.
                gen.rng = lcgNext(gen.rng);
                const std::uint64_t draw = gen.rng >> 11;
                const std::uint64_t slot = gen.slotMask != 0
                                               ? draw & gen.slotMask
                                               : draw % gen.slots;
                gen.offset = static_cast<std::int64_t>(slot) * burstBytes;
                gen.at = banks.locate(gen.base + gen.offset);
            }
        }

        const std::int64_t arrival =
            static_cast<std::int64_t>(std::ceil(gen.nextArrival));
        free = banks.service(gen.at, burstCycles, std::max(free, arrival));

        // Linear walk, wrapping at the end of the window.
        gen.offset += gen.stride;
        banks.advance(gen.at, gen.strideStep);
        if (gen.offset >= gen.range) {
            gen.offset -= gen.range;
            banks.retreat(gen.at, gen.rangeStep);
        }

        gen.nextArrival += gen.interArrivalCycles;
        // Backpressure: the source cannot run more than one FIFO's
        // worth of bursts behind the channel. A saturated stream is
        // throttled to its service rate; an unsaturated one never hits
        // the floor.
        const double fifoFloor = static_cast<double>(free) - gen.fifoSlack;
        if (gen.nextArrival < fifoFloor)
            gen.nextArrival = fifoFloor;
        ++gen.requests;
    }
    channelFree = free;
}

std::int64_t
ChannelTimeline::transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool write)
{
    if (bytes <= 0)
        return earliestStart;

    // Strict arrival order: background requests that arrived no later
    // than this transfer go first (fixed priority on ties). Servicing a
    // request only moves its own stream's next arrival later, so once
    // this run ends no background request can overtake the rest of the
    // transfer's bursts.
    serviceBackground(static_cast<double>(earliestStart));

    // A linear walk, back to back: after the first burst in a row the
    // rest of that row are hits, served as one run.
    BankCursor &npu = write ? npuWrite : npuRead;
    BankCursor at = npu;
    std::int64_t free = std::max(channelFree, earliestStart);
    std::int64_t remaining = bytes;
    std::int64_t requests = 0;
    while (remaining >= burstBytes) {
        free = banks.service(at, burstCycles, free);
        banks.advance(at, burstStep);
        remaining -= burstBytes;
        requests +=
            1 + banks.hitRun(at, burstBytes, burstCycles, remaining, free);
    }
    if (remaining > 0) {
        // The short tail burst: its transfer cycles are the only ones
        // not hoisted.
        free = banks.service(
            at, (remaining + bytesPerCycle - 1) / bytesPerCycle, free);
        banks.advance(at, BankCursor{remaining, 0, 0});
        ++requests;
    }
    npu = at;
    npuRequests += requests;
    npuBytes += bytes;
    channelFree = free;
    return free;
}

ChannelStats
ChannelTimeline::stats() const
{
    ChannelStats stats;
    banks.addCommands(stats);
    stats.npuRequests = npuRequests;
    stats.npuBytes = npuBytes;
    for (const Generator &gen : generators) {
        const std::int64_t bytes = gen.requests * burstBytes;
        stats.generators.push_back({gen.name, gen.requests, bytes});
        stats.backgroundRequests += gen.requests;
        stats.backgroundBytes += bytes;
    }
    return stats;
}

} // namespace autopilot::dram

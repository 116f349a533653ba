/**
 * @file
 * Per-bank row-buffer state machine with gem5-style command timing.
 *
 * Addresses map row:bank:column (consecutive rows of one stream land in
 * different banks, the interleaving every real controller uses):
 *
 *   column = addr % rowBytes
 *   bank   = (addr / rowBytes) % banks
 *   row    =  addr / (rowBytes * banks)
 *
 * A stream does not re-divide its address on every burst: it carries a
 * BankCursor - that (column, bank, row) triple - and moves it by a
 * stride with compare-and-carry (advance) or back by an address window
 * with compare-and-borrow (retreat). Only locate() divides (or shifts,
 * for power-of-two geometry); the channel calls it when it builds its
 * streams and on a random jump. hitRun() serves a linear walk's run of
 * row hits without a bank lookup per burst.
 *
 * Each access classifies against the target bank's open row:
 *
 *   hit      - row already open:              tCAS
 *   miss     - bank idle (no open row):       tRCD + tCAS   (+activate)
 *   conflict - different row open:      tRP + tRCD + tCAS   (+precharge,
 *                                                            +activate)
 *
 * plus the data-transfer cycles the caller passes in (the channel
 * hoists ceil(burstBytes / dramBytesPerCycle) once per timeline). Under
 * the Closed row policy every access auto-precharges, so every access
 * is a miss - the locality-blind baseline. Refresh closes all rows and
 * stalls the channel tRFC cycles every tREFI cycles.
 *
 * The address-driven model this replaced lives on as the test oracle in
 * tests/oracle/dram_channel.h.
 */

#ifndef AUTOPILOT_DRAM_BANK_MODEL_H
#define AUTOPILOT_DRAM_BANK_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/config.h"

namespace autopilot::dram
{

/** Per-generator slice of the channel statistics. */
struct GeneratorStats
{
    std::string name;
    std::int64_t requests = 0;
    std::int64_t bytes = 0;

    bool operator==(const GeneratorStats &other) const = default;
};

/** Command and traffic counters accumulated by a channel timeline. */
struct ChannelStats
{
    std::int64_t rowHits = 0;
    std::int64_t rowMisses = 0;
    std::int64_t rowConflicts = 0;
    std::int64_t activates = 0;
    std::int64_t precharges = 0;
    std::int64_t refreshes = 0;
    std::int64_t npuRequests = 0;
    std::int64_t npuBytes = 0;
    std::int64_t backgroundRequests = 0;
    std::int64_t backgroundBytes = 0;
    /// One entry per generator, in spec order.
    std::vector<GeneratorStats> generators;

    /** All classified accesses (hits + misses + conflicts). */
    std::int64_t accesses() const
    {
        return rowHits + rowMisses + rowConflicts;
    }

    /** Row-buffer hit fraction; 0 when nothing was accessed. */
    double rowHitRate() const
    {
        const std::int64_t total = accesses();
        return total > 0
                   ? static_cast<double>(rowHits) /
                         static_cast<double>(total)
                   : 0.0;
    }

    /** Bytes moved over the channel by anyone. */
    std::int64_t totalBytes() const { return npuBytes + backgroundBytes; }

    /** Fold @p other into this (generators matched by index). */
    void accumulate(const ChannelStats &other);

    bool operator==(const ChannelStats &other) const = default;
};

/**
 * A location in row:bank:column space - an address, or a distance
 * between two addresses - in canonical form (column < rowBytes,
 * bank < banks).
 */
struct BankCursor
{
    std::int64_t column = 0;
    std::int64_t bank = 0;
    std::int64_t row = 0;
};

/** Bank state machines + refresh for one channel. */
class BankModel
{
  public:
    /** @param timing Validated channel timing. */
    explicit BankModel(const DramTiming &timing);

    /**
     * Decompose a non-negative address or distance. Shifts and masks
     * when the row size and bank count are powers of two (the default
     * geometry), two divisions otherwise.
     */
    BankCursor locate(std::int64_t addr) const
    {
        if (powerOfTwoGeometry) {
            const std::int64_t rowIndex = addr >> rowShift;
            return {addr & (rowBytes - 1), rowIndex & (banks - 1),
                    rowIndex >> bankShift};
        }
        const std::int64_t rowIndex = addr / rowBytes;
        const std::int64_t row = rowIndex / banks;
        return {addr - rowIndex * rowBytes, rowIndex - row * banks, row};
    }

    /** Move @p at forward by the locate()d distance @p step. */
    void advance(BankCursor &at, const BankCursor &step) const
    {
        at.column += step.column;
        if (at.column >= rowBytes) {
            at.column -= rowBytes;
            ++at.bank;
        }
        at.bank += step.bank;
        if (at.bank >= banks) {
            at.bank -= banks;
            ++at.row;
        }
        at.row += step.row;
    }

    /**
     * Move @p at back by the locate()d distance @p step; the result
     * must stay a non-negative address.
     */
    void retreat(BankCursor &at, const BankCursor &step) const
    {
        at.column -= step.column;
        if (at.column < 0) {
            at.column += rowBytes;
            --at.bank;
        }
        at.bank -= step.bank;
        if (at.bank < 0) {
            at.bank += banks;
            --at.row;
        }
        at.row -= step.row;
    }

    /**
     * Service one request at @p at whose data takes @p transferCycles
     * on the bus, on an idle channel, starting no earlier than cycle
     * @p start; returns the completion cycle and counts the commands.
     * The caller (the channel timeline) owns request ordering and
     * channel occupancy; this models only bank state and timing.
     */
    std::int64_t service(const BankCursor &at, std::int64_t transferCycles,
                         std::int64_t start)
    {
        // Refresh is all-bank: catch up on every interval boundary the
        // channel slept through, close the rows, and push the request
        // past the stall when it lands inside one.
        while (start >= nextRefresh)
            start = refresh(start);

        // Branch-free classification: a random stream's outcome is
        // unpredictable. Rows are >= 0, so a hit is never idle.
        std::int64_t &open = openRow[static_cast<std::size_t>(at.bank)];
        const bool hit = open == at.row;
        const bool idle = open < 0;
        hits += hit;
        misses += idle;
        conflicts += !hit && !idle;
        const std::int64_t latency = latencyCycles[2 - 2 * hit - idle];
        // Closed policy auto-precharges: the next access misses.
        open = closedPolicy ? -1 : at.row;
        return start + latency + transferCycles;
    }

    /**
     * Serve the back-to-back row hits of a linear walk: full bursts of
     * @p burstBytes (@p transferCycles each) from @p at, for as long as
     * @p remaining holds one, the walk stays in the row the previous
     * access left open, and each burst starts (at @p clock) before the
     * next refresh. Exactly what service() and advance() would do burst
     * by burst - every burst a hit, no bank state changed - at the cost
     * of three additions per burst. Returns the number of bursts
     * served; @p at, @p remaining and @p clock move past them.
     */
    std::int64_t hitRun(BankCursor &at, std::int64_t burstBytes,
                        std::int64_t transferCycles,
                        std::int64_t &remaining, std::int64_t &clock)
    {
        if (closedPolicy ||
            openRow[static_cast<std::size_t>(at.bank)] != at.row)
            return 0;
        const std::int64_t hitCycles = latencyCycles[0] + transferCycles;
        std::int64_t column = at.column;
        std::int64_t bursts = 0;
        while (remaining >= burstBytes && clock < nextRefresh) {
            clock += hitCycles;
            remaining -= burstBytes;
            ++bursts;
            column += burstBytes;
            if (column >= rowBytes)
                break; // The walk left the row; the next burst misses.
        }
        hits += bursts;
        advance(at, {column - at.column, 0, 0});
        return bursts;
    }

    /**
     * Fold the command counters - row hits, misses and conflicts, the
     * activates and precharges they imply, refreshes - into @p stats.
     */
    void addCommands(ChannelStats &stats) const;

  private:
    /// One refresh at nextRefresh; returns @p start pushed past it.
    std::int64_t refresh(std::int64_t start);

    std::int64_t rowBytes;
    std::int64_t banks;
    bool powerOfTwoGeometry; ///< rowBytes and banks both 2^k.
    int rowShift;            ///< log2(rowBytes) when powerOfTwoGeometry.
    int bankShift;           ///< log2(banks) when powerOfTwoGeometry.
    /// Command latency of a hit (tCAS), a miss (tRCD + tCAS) and a
    /// conflict (tRP + tRCD + tCAS).
    std::int64_t latencyCycles[3];
    std::int64_t refiCycles;
    std::int64_t rfcCycles;
    bool closedPolicy;
    std::vector<std::int64_t> openRow; ///< Per bank; -1 = precharged.
    std::int64_t nextRefresh;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t conflicts = 0;
    std::int64_t refreshes = 0;
};

} // namespace autopilot::dram

#endif // AUTOPILOT_DRAM_BANK_MODEL_H

#include "systolic/trace.h"

#include "systolic/cycle_engine.h"

namespace autopilot::systolic
{

std::string
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::DramFetch:     return "dram_fetch";
      case TraceEventKind::DramWriteback: return "dram_writeback";
      case TraceEventKind::SramRead:      return "sram_read";
      case TraceEventKind::SramWrite:     return "sram_write";
    }
    return "?";
}

std::int64_t
LayerTrace::totalOf(TraceEventKind kind) const
{
    std::int64_t total = 0;
    for (const TraceEvent &event : events) {
        if (event.kind == kind)
            total += event.amount;
    }
    return total;
}

void
LayerTrace::writeCsv(std::ostream &os) const
{
    os << "layer,fold,cycle,kind,amount\n";
    for (const TraceEvent &event : events) {
        os << layerName << ',' << event.foldIndex << ','
           << event.startCycle << ',' << traceEventKindName(event.kind)
           << ',' << event.amount << '\n';
    }
}

LayerTrace
traceLayer(const nn::Layer &layer, const AcceleratorConfig &config)
{
    const FoldTraffic folds(layer, config);
    const LayerTraffic &traffic = folds.totals();
    const std::int64_t fold_count = folds.grid().foldCount();

    LayerTrace trace;
    trace.layerName = layer.name;
    trace.events.reserve(static_cast<std::size_t>(fold_count) * 4);

    const std::int64_t sram_reads =
        traffic.ifmapSramReads + traffic.filterSramReads +
        traffic.psumSramReads;
    const std::int64_t sram_writes =
        traffic.ofmapSramWrites + traffic.psumSramWrites;

    const FlatChannel channel(config.dramBytesPerCycle);
    stepTimeline(folds, channel, [&](const FoldTiming &fold) {
        const std::int64_t f = fold.index;
        if (fold.fetchBytes > 0) {
            trace.events.push_back({f, fold.fetchStart,
                                    TraceEventKind::DramFetch,
                                    fold.fetchBytes});
        }
        trace.events.push_back(
            {f, fold.computeStart, TraceEventKind::SramRead,
             evenShare(sram_reads, fold_count, f)});
        trace.events.push_back(
            {f, fold.computeStart, TraceEventKind::SramWrite,
             evenShare(sram_writes, fold_count, f)});
        if (fold.writebackBytes > 0) {
            trace.events.push_back({f, fold.writebackStart,
                                    TraceEventKind::DramWriteback,
                                    fold.writebackBytes});
        }
    });
    return trace;
}

} // namespace autopilot::systolic

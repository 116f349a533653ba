/**
 * @file
 * Bank-level DRAM subsystem suite:
 *
 *  - BankModel classifies row hits / misses / conflicts with gem5-style
 *    command timing, honours the Closed row policy (every access a
 *    miss) and refresh (rows closed, channel stalled every tREFI).
 *  - ChannelTimeline interleaves background generators with the NPU
 *    stream deterministically; locality properties hold (linear streams
 *    hit rows, random streams conflict, latency is monotone in both
 *    randomness and background load).
 *  - DramCycleEngine with an empty generator set is bit-identical to
 *    systolic::CycleEngine - the sidecar backward-compatibility
 *    contract - and slows down under background traffic.
 *  - DramBackend: disabled spec reproduces CycleBackend field for
 *    field; enabled spec tags BankAccurate fidelity + the channel key,
 *    bills DRAM power from command counts (never the flat surcharge on
 *    top - the double-charging fix), and stays byte-identical across
 *    worker-thread counts, alone and as the tiered verify tier.
 *  - Degenerate parameter sets are diagnosed in words (fatal with
 *    infeasibleReason), never simulated into NaN or infinite latency.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "airlearning/trainer.h"
#include "dram/bank_model.h"
#include "dram/channel.h"
#include "dram/config.h"
#include "dram/engine.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "nn/e2e_template.h"
#include "power/dram_model.h"
#include "systolic/cycle_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace al = autopilot::airlearning;
namespace dram = autopilot::dram;
namespace dse = autopilot::dse;
namespace nn = autopilot::nn;
namespace pw = autopilot::power;
namespace sys = autopilot::systolic;
namespace util = autopilot::util;

namespace
{

/** Timing with distinct command latencies so each class is visible. */
dram::DramTiming
labTiming()
{
    dram::DramTiming timing;
    timing.banks = 4;
    timing.rowBytes = 1024;
    timing.burstBytes = 64;
    timing.tCasCycles = 3;
    timing.tRcdCycles = 5;
    timing.tRpCycles = 7;
    timing.tRefiCycles = 100000; // Effectively off for the unit tests.
    timing.tRfcCycles = 36;
    return timing;
}

const al::PolicyDatabase &
sharedDatabase()
{
    static const al::PolicyDatabase db = [] {
        al::TrainerConfig config;
        config.validationEpisodes = 40;
        const al::Trainer trainer(config);
        al::PolicyDatabase built;
        trainer.trainAll(nn::PolicySpace(), al::ObstacleDensity::Dense,
                         built);
        return built;
    }();
    return db;
}

dse::BackendContext
dramContext(const dram::DramSpec &spec = {})
{
    return {&sharedDatabase(), al::ObstacleDensity::Dense, {}, spec};
}

std::vector<dse::Encoding>
distinctEncodings(std::size_t count, std::uint64_t seed)
{
    const dse::DesignSpace space;
    util::Rng rng(seed);
    std::vector<dse::Encoding> out;
    std::set<dse::Encoding> seen;
    while (out.size() < count) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            out.push_back(encoding);
    }
    return out;
}

/** One-generator spec over the lab timing. */
dram::DramSpec
oneStreamSpec(double bytesPerSec, double randomness,
              dram::DramTiming timing = labTiming())
{
    dram::DramSpec spec;
    spec.timing = timing;
    dram::TrafficGeneratorSpec generator;
    generator.name = "bg";
    generator.bytesPerSec = bytesPerSec;
    generator.randomness = randomness;
    generator.addressBase = 1ll << 30;
    spec.generators = {generator};
    return spec;
}

} // namespace

// ------------------------------------------------------------ bank model ----

TEST(BankModel, ClassifiesHitMissConflictWithCommandTiming)
{
    const dram::DramTiming timing = labTiming();
    dram::BankModel banks(timing);
    dram::ChannelStats stats;
    const std::int64_t bpc = 32; // 64-byte burst -> 2 transfer cycles.
    const std::int64_t transfer = timing.burstBytes / bpc;

    // Cold bank: miss = tRCD + tCAS (+ activate).
    std::int64_t done =
        banks.service(0, timing.burstBytes, 0, bpc, stats);
    EXPECT_EQ(done, timing.tRcdCycles + timing.tCasCycles + transfer);
    EXPECT_EQ(stats.rowMisses, 1);
    EXPECT_EQ(stats.activates, 1);

    // Same row, next column: hit = tCAS only.
    done = banks.service(timing.burstBytes, timing.burstBytes, done, bpc,
                         stats);
    EXPECT_EQ(stats.rowHits, 1);
    EXPECT_EQ(stats.precharges, 0);

    // Same bank, different row: conflict = tRP + tRCD + tCAS.
    const std::int64_t otherRow =
        timing.rowBytes * timing.banks; // row 1, bank 0.
    const std::int64_t start = done;
    done = banks.service(otherRow, timing.burstBytes, start, bpc, stats);
    EXPECT_EQ(done, start + timing.tRpCycles + timing.tRcdCycles +
                        timing.tCasCycles + transfer);
    EXPECT_EQ(stats.rowConflicts, 1);
    EXPECT_EQ(stats.precharges, 1);
    EXPECT_EQ(stats.activates, 2);
    EXPECT_EQ(stats.accesses(), 3);
    EXPECT_DOUBLE_EQ(stats.rowHitRate(), 1.0 / 3.0);
}

TEST(BankModel, ClosedPolicyNeverHitsOrConflicts)
{
    dram::DramTiming timing = labTiming();
    timing.rowPolicy = dram::RowPolicy::Closed;
    dram::BankModel banks(timing);
    dram::ChannelStats stats;
    std::int64_t cycle = 0;
    for (int i = 0; i < 16; ++i) {
        cycle = banks.service(i * timing.burstBytes, timing.burstBytes,
                              cycle, 32, stats);
    }
    EXPECT_EQ(stats.rowMisses, 16);
    EXPECT_EQ(stats.rowHits, 0);
    EXPECT_EQ(stats.rowConflicts, 0);
    EXPECT_EQ(stats.precharges, 16); // Auto-precharge every access.
}

TEST(BankModel, RefreshClosesRowsAndStallsTheChannel)
{
    dram::DramTiming timing = labTiming();
    timing.tRefiCycles = 50;
    timing.tRfcCycles = 20;
    dram::BankModel banks(timing);
    dram::ChannelStats stats;

    const std::int64_t first =
        banks.service(0, timing.burstBytes, 0, 32, stats);
    EXPECT_EQ(stats.rowMisses, 1);

    // Next access lands past tREFI: one refresh is paid, the row it
    // opened is closed again, and the access starts no earlier than the
    // refresh stall's end - so it re-misses instead of hitting.
    const std::int64_t afterRefresh =
        banks.service(0, timing.burstBytes, timing.tRefiCycles, 32,
                      stats);
    EXPECT_EQ(stats.refreshes, 1);
    EXPECT_EQ(stats.rowMisses, 2);
    EXPECT_EQ(stats.rowHits, 0);
    EXPECT_GE(afterRefresh, timing.tRefiCycles + timing.tRfcCycles);
    EXPECT_GT(afterRefresh, first);
}

// ------------------------------------------------------------- config ----

TEST(DramConfig, DefaultSpecIsDisabledAndInert)
{
    const dram::DramSpec spec;
    EXPECT_FALSE(spec.enabled());
    EXPECT_DOUBLE_EQ(spec.backgroundBytesPerSec(), 0.0);
    EXPECT_EQ(spec.tag(), "-");
    EXPECT_TRUE(spec.infeasibleReason().empty());
}

TEST(DramConfig, UavSpecShapesCameraAndHostStreams)
{
    const dram::DramSpec spec =
        dram::uavDramSpec(labTiming(), 2.0e9, 1.0e9);
    ASSERT_EQ(spec.generators.size(), 2u);
    EXPECT_EQ(spec.generators[0].name, "camera");
    EXPECT_DOUBLE_EQ(spec.generators[0].randomness, 0.0);
    EXPECT_TRUE(spec.generators[0].write);
    EXPECT_EQ(spec.generators[1].name, "host");
    EXPECT_DOUBLE_EQ(spec.generators[1].randomness, 1.0);
    EXPECT_TRUE(spec.enabled());
    EXPECT_DOUBLE_EQ(spec.backgroundBytesPerSec(), 3.0e9);

    // Zero-rate streams are omitted; (timing, 0, 0) degenerates to a
    // disabled spec rather than two inert generators.
    const dram::DramSpec quiet = dram::uavDramSpec(labTiming(), 0, 0);
    EXPECT_TRUE(quiet.generators.empty());
    EXPECT_FALSE(quiet.enabled());
    EXPECT_EQ(quiet.tag(), "-");
}

TEST(DramConfig, TagAndFingerprintTrackEveryResultAffectingField)
{
    const dram::DramSpec base = oneStreamSpec(1.0e9, 0.5);
    dram::DramSpec other = base;
    other.timing.tCasCycles += 1;
    EXPECT_NE(base.tag(), other.tag());
    EXPECT_NE(base.fingerprintText(), other.fingerprintText());

    other = base;
    other.generators[0].seed ^= 1;
    EXPECT_NE(base.tag(), other.tag());

    other = base;
    other.timing.rowPolicy = dram::RowPolicy::Closed;
    EXPECT_NE(base.tag(), other.tag());
    EXPECT_NE(base.tag(), "-");
}

TEST(DramConfig, ParseDramTimingAcceptsBothArities)
{
    dram::DramTiming timing;
    std::string error;
    ASSERT_TRUE(dram::parseDramTiming("2:6:9", timing, error)) << error;
    EXPECT_EQ(timing.tCasCycles, 2);
    EXPECT_EQ(timing.tRcdCycles, 6);
    EXPECT_EQ(timing.tRpCycles, 9);

    ASSERT_TRUE(dram::parseDramTiming("3:4:5:2000:40", timing, error))
        << error;
    EXPECT_EQ(timing.tRefiCycles, 2000);
    EXPECT_EQ(timing.tRfcCycles, 40);

    EXPECT_FALSE(dram::parseDramTiming("3:4", timing, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(dram::parseDramTiming("a:b:c", timing, error));
    EXPECT_FALSE(dram::parseDramTiming("", timing, error));

    // Each field is plain digits and there are exactly 2 or 4
    // separators: no trailing empty field, no whitespace, no sign.
    for (const char *bad :
         {"22:22:22:", "22:22:22:7800:350:", " 22:+22:22", "22::22:22",
          ":22:22:22", "22:22:-1", "22: 22:22", "22:22:22 ",
          "99999999999999999999:1:1"}) {
        error.clear();
        EXPECT_FALSE(dram::parseDramTiming(bad, timing, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(DramConfig, InfeasibleReasonDiagnosesDegenerateParameters)
{
    // Every degenerate axis gets words, not NaN: the diagnosis names
    // the offending field.
    dram::DramSpec spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.banks = 0;
    EXPECT_NE(spec.infeasibleReason().find("banks"), std::string::npos)
        << spec.infeasibleReason();

    spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.tRpCycles = 0;
    EXPECT_FALSE(spec.infeasibleReason().empty());

    spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.tRcdCycles = -1;
    EXPECT_FALSE(spec.infeasibleReason().empty());

    // Refresh interval inside the refresh stall: the channel would
    // spend all its time refreshing.
    spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.tRefiCycles = 10;
    spec.timing.tRfcCycles = 36;
    EXPECT_NE(spec.infeasibleReason().find("refresh"),
              std::string::npos)
        << spec.infeasibleReason();

    spec = oneStreamSpec(1.0e9, 1.5); // Randomness out of [0, 1].
    EXPECT_NE(spec.infeasibleReason().find("randomness"),
              std::string::npos)
        << spec.infeasibleReason();

    spec = oneStreamSpec(1.0e9, 0.0);
    spec.generators[0].name = "Bad Name!";
    EXPECT_NE(spec.infeasibleReason().find("name"), std::string::npos)
        << spec.infeasibleReason();
}

TEST(DramConfigDeath, ValidateIsFatalWithTheDiagnosis)
{
    dram::DramSpec spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.banks = 0;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1), "banks");
}

TEST(DramConfigDeath, RefreshSwallowingBurstIsDiagnosedAtConstruction)
{
    // Feasible in isolation (tREFI > tRFC) but the interval cannot
    // cover one refresh stall plus one worst-case burst at this channel
    // width - the timeline would never make progress. Diagnosed at
    // construction, before any simulation.
    dram::DramTiming timing = labTiming();
    timing.tRefiCycles = timing.tRfcCycles + 2;
    const dram::DramSpec spec = oneStreamSpec(1.0e9, 0.0, timing);
    sys::AcceleratorConfig accel;
    EXPECT_EXIT(dram::ChannelTimeline(spec, accel),
                ::testing::ExitedWithCode(1), "refresh");
    EXPECT_EXIT(dram::DramCycleEngine(accel, spec),
                ::testing::ExitedWithCode(1), "refresh");
}

// ------------------------------------------------------------- channel ----

TEST(ChannelTimeline, LinearStreamsKeepHighRowLocality)
{
    // A linear-stride generator plus the NPU's own linear walk: row
    // buffers pay off, so hits dominate across a long transfer train.
    sys::AcceleratorConfig accel;
    dram::ChannelTimeline channel(oneStreamSpec(1.0e9, 0.0), accel);
    std::int64_t cycle = 0;
    for (int i = 0; i < 200; ++i)
        cycle = channel.transfer(cycle, 4096, i % 4 == 0);
    const dram::ChannelStats &stats = channel.stats();
    EXPECT_GT(stats.accesses(), 0);
    EXPECT_GT(stats.backgroundRequests, 0);
    EXPECT_GT(stats.rowHitRate(), 0.7);
    ASSERT_EQ(stats.generators.size(), 1u);
    EXPECT_EQ(stats.generators[0].name, "bg");
    EXPECT_EQ(stats.generators[0].requests, stats.backgroundRequests);
}

TEST(ChannelTimeline, RandomnessDegradesHitRateAndCompletionMonotonically)
{
    // The row-locality knob: same injected rate, same NPU transfer
    // train; only the access pattern changes. Hit rate must fall and
    // the final completion cycle must not improve as the stream turns
    // random.
    sys::AcceleratorConfig accel;
    double previousHitRate = 1.1;
    std::int64_t previousDone = 0;
    for (const double randomness : {0.0, 0.25, 0.5, 1.0}) {
        dram::ChannelTimeline channel(oneStreamSpec(2.0e9, randomness),
                                      accel);
        std::int64_t done = 0;
        for (int i = 0; i < 150; ++i)
            done = channel.transfer(done, 4096, false);
        const double hitRate = channel.stats().rowHitRate();
        EXPECT_LT(hitRate, previousHitRate) << randomness;
        EXPECT_GE(done, previousDone) << randomness;
        previousHitRate = hitRate;
        previousDone = done;
    }
}

TEST(ChannelTimeline, BackgroundLoadDelaysTheNpuMonotonically)
{
    // Rates below the random-access service rate, so every injected
    // burst really lands (no FIFO throttling) and the delay the NPU
    // sees grows strictly with the offered load.
    sys::AcceleratorConfig accel;
    std::int64_t previousDone = 0;
    for (const double rate : {5.0e7, 2.0e8, 6.0e8}) {
        dram::ChannelTimeline channel(oneStreamSpec(rate, 1.0), accel);
        std::int64_t done = 0;
        for (int i = 0; i < 100; ++i)
            done = channel.transfer(done, 2048, false);
        EXPECT_GT(done, previousDone) << rate;
        previousDone = done;
    }
}

TEST(ChannelTimeline, ZeroByteTransferIsFree)
{
    sys::AcceleratorConfig accel;
    dram::ChannelTimeline channel(oneStreamSpec(1.0e9, 0.5), accel);
    EXPECT_EQ(channel.transfer(1234, 0, false), 1234);
    EXPECT_EQ(channel.stats().npuRequests, 0);
}

TEST(ChannelTimeline, RebuildReplaysBitIdentically)
{
    // The determinism contract behind any-thread-count byte-identity:
    // same spec + same transfer sequence -> same completions and stats,
    // no matter when the timeline was built.
    sys::AcceleratorConfig accel;
    const dram::DramSpec spec = oneStreamSpec(1.5e9, 0.5);
    auto drive = [&] {
        dram::ChannelTimeline channel(spec, accel);
        std::vector<std::int64_t> completions;
        std::int64_t cycle = 0;
        for (int i = 0; i < 64; ++i) {
            cycle = channel.transfer(cycle, 1024 + 64 * (i % 7),
                                     i % 3 == 0);
            completions.push_back(cycle);
        }
        dram::ChannelStats stats = channel.stats();
        return std::pair(completions, stats);
    };
    const auto [aDone, aStats] = drive();
    const auto [bDone, bStats] = drive();
    EXPECT_EQ(aDone, bDone);
    EXPECT_EQ(aStats.rowHits, bStats.rowHits);
    EXPECT_EQ(aStats.rowConflicts, bStats.rowConflicts);
    EXPECT_EQ(aStats.backgroundBytes, bStats.backgroundBytes);
}

// ------------------------------------------------------------- engine ----

TEST(DramCycleEngine, EmptyGeneratorsBitIdenticalToCycleEngine)
{
    // The acceptance criterion: a dram run with no generators must
    // reproduce the pure-cycle path bit for bit, layer by layer.
    sys::AcceleratorConfig accel;
    const dram::DramCycleEngine dramEngine(accel, dram::DramSpec{});
    const sys::CycleEngine cycleEngine(accel);
    for (const nn::PolicyHyperParams &params :
         {nn::PolicyHyperParams{5, 32}, nn::PolicyHyperParams{7, 48}}) {
        const nn::Model model = nn::buildE2EModel(params);
        const sys::RunResult a = dramEngine.run(model);
        const sys::RunResult b = cycleEngine.run(model);
        EXPECT_EQ(a.totalCycles, b.totalCycles);
        EXPECT_EQ(a.computeCycles, b.computeCycles);
        EXPECT_EQ(a.stallCycles, b.stallCycles);
        ASSERT_EQ(a.layers.size(), b.layers.size());
        for (std::size_t i = 0; i < a.layers.size(); ++i) {
            EXPECT_EQ(a.layers[i].totalCycles, b.layers[i].totalCycles)
                << a.layers[i].layerName;
            EXPECT_EQ(a.layers[i].stallCycles, b.layers[i].stallCycles)
                << a.layers[i].layerName;
        }
    }
    // Nothing was simulated at bank level, so no commands accumulated.
    EXPECT_EQ(dramEngine.runStats().accesses(), 0);
}

TEST(DramCycleEngine, BackgroundTrafficCostsCyclesAndCountsCommands)
{
    sys::AcceleratorConfig accel;
    const nn::Model model = nn::buildE2EModel({5, 32});
    const sys::CycleEngine quiet(accel);
    const dram::DramCycleEngine contended(
        accel, dram::uavDramSpec(dram::DramTiming{}, 2.0e9, 1.0e9));
    const sys::RunResult base = quiet.run(model);
    const sys::RunResult loaded = contended.run(model);
    EXPECT_GT(loaded.totalCycles, base.totalCycles);
    EXPECT_EQ(loaded.computeCycles, base.computeCycles);
    const dram::ChannelStats &stats = contended.runStats();
    EXPECT_GT(stats.accesses(), 0);
    EXPECT_GT(stats.npuBytes, 0);
    EXPECT_GT(stats.backgroundBytes, 0);
    EXPECT_GT(stats.activates, 0);
}

// ------------------------------------------------------------- backend ----

TEST(DramBackend, DisabledSpecBitIdenticalToCycleBackend)
{
    dse::DramBackend quiet(dramContext());
    dse::CycleBackend cycle(dramContext());
    const dse::DesignSpace space;
    for (const dse::Encoding &encoding : distinctEncodings(8, 97)) {
        const dse::DesignPoint point = space.decode(encoding);
        const dse::Evaluation a = quiet.evaluate(point);
        const dse::Evaluation b = cycle.evaluate(point);
        EXPECT_EQ(a.successRate, b.successRate);
        EXPECT_EQ(a.npuPowerW, b.npuPowerW);
        EXPECT_EQ(a.socPowerW, b.socPowerW);
        EXPECT_EQ(a.latencyMs, b.latencyMs);
        EXPECT_EQ(a.fps, b.fps);
        EXPECT_EQ(a.objectives, b.objectives);
        EXPECT_EQ(a.fidelity, dse::Fidelity::CycleAccurate);
        EXPECT_EQ(a.backend, "dram");
        EXPECT_EQ(a.dramKey, "-");
    }
}

TEST(DramBackend, EnabledSpecTagsBankFidelityAndCountsCommands)
{
    const dram::DramSpec spec =
        dram::uavDramSpec(dram::DramTiming{}, 2.0e9, 1.0e9);
    dse::DramBackend backend(dramContext(spec));
    const dse::DesignSpace space;
    const auto encodings = distinctEncodings(4, 113);
    for (const dse::Encoding &encoding : encodings) {
        const dse::Evaluation eval =
            backend.evaluate(space.decode(encoding));
        EXPECT_EQ(eval.fidelity, dse::Fidelity::BankAccurate);
        EXPECT_EQ(eval.backend, "dram");
        EXPECT_EQ(eval.dramKey, spec.tag());
        // Simulated explicitly, so never also billed as the flat
        // contention surcharge.
        EXPECT_EQ(eval.contentionBytesPerSec, 0.0);
        EXPECT_GT(eval.latencyMs, 0.0);
        EXPECT_GT(eval.socPowerW, 0.0);
    }
    EXPECT_GT(backend.rowHits() + backend.rowMisses() +
                  backend.rowConflicts(),
              0);
    EXPECT_GT(backend.activates(), 0);
    EXPECT_GT(backend.channelBytes(), 0);
}

TEST(DramBackend, BackgroundLoadShiftsLatencyMonotonically)
{
    // Host rates below the random-access service capacity (~0.9 GB/s
    // at the default timing): every injected burst really lands, so
    // the offered load translates into monotone NPU delay. Past
    // saturation the source FIFO throttles and latency plateaus
    // instead (covered by the channel-level tests).
    const dse::DesignSpace space;
    const auto encodings = distinctEncodings(4, 131);
    std::vector<double> previousLatency(encodings.size(), 0.0);
    for (const double hostRate : {0.0, 2.0e8, 5.0e8}) {
        const dram::DramSpec spec =
            dram::uavDramSpec(dram::DramTiming{}, 4.0e8, hostRate);
        dse::DramBackend backend(dramContext(spec));
        for (std::size_t i = 0; i < encodings.size(); ++i) {
            const dse::Evaluation eval =
                backend.evaluate(space.decode(encodings[i]));
            EXPECT_GE(eval.latencyMs, previousLatency[i])
                << "host rate " << hostRate;
            previousLatency[i] = eval.latencyMs;
        }
    }
}

TEST(DramBackend, NoDoubleChargeAgainstTheFlatContentionModel)
{
    // The dram backend bills DRAM power from actual command counts
    // (commandPowerMw), whose per-byte coefficient excludes row energy.
    // A high-locality run must therefore come in under the flat model's
    // 120 pJ/B estimate for the same traffic - proof the flat
    // background-bytes/s surcharge is not also being applied.
    const dram::DramSpec spec =
        dram::uavDramSpec(dram::DramTiming{}, 1.0e9, 0.0);
    dse::DramBackend backend(dramContext(spec));
    const dse::DesignSpace space;
    const dse::Evaluation eval =
        backend.evaluate(space.decode(distinctEncodings(1, 151)[0]));

    const pw::DramModel model;
    const double seconds = eval.latencyMs * 1e-3;
    const double flatMw =
        model.averagePowerMw(
            static_cast<double>(backend.channelBytes()) / seconds);
    const double commandMw = model.commandPowerMw(
        {backend.activates(), 0, backend.refreshes(),
         backend.channelBytes()},
        seconds);
    EXPECT_LT(commandMw, flatMw);
}

TEST(DramBackend, ByteIdenticalAcrossThreadCounts)
{
    const dram::DramSpec spec =
        dram::uavDramSpec(dram::DramTiming{}, 1.5e9, 0.5e9);
    const auto points = distinctEncodings(24, 167);

    auto runAt = [&](std::size_t threads) {
        std::unique_ptr<util::ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<util::ThreadPool>(threads);
        dse::DseEvaluator evaluator(
            sharedDatabase(), al::ObstacleDensity::Dense,
            std::make_unique<dse::DramBackend>(dramContext(spec)));
        evaluator.setThreadPool(pool.get());
        const std::size_t half = points.size() / 2;
        evaluator.evaluateBatch(
            std::span<const dse::Encoding>(points.data(), half));
        evaluator.evaluateBatch(std::span<const dse::Encoding>(
            points.data() + half, points.size() - half));
        return evaluator.allEvaluations();
    };

    const auto serial = runAt(1);
    ASSERT_EQ(serial.size(), points.size());
    for (std::size_t threads : {2u, 4u}) {
        const auto parallel = runAt(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].objectives, parallel[i].objectives)
                << "position " << i;
            EXPECT_EQ(serial[i].latencyMs, parallel[i].latencyMs)
                << "position " << i;
            EXPECT_EQ(serial[i].npuPowerW, parallel[i].npuPowerW)
                << "position " << i;
            EXPECT_EQ(serial[i].dramKey, parallel[i].dramKey)
                << "position " << i;
        }
    }
}

TEST(DramBackend, ServesAsTieredVerifyTierWhenEnabled)
{
    // With a dram-enabled context the tiered backend verifies promoted
    // points at bank accuracy: promoted rows carry BankAccurate
    // fidelity and the channel tag; screened-only rows stay analytical.
    const dram::DramSpec spec =
        dram::uavDramSpec(dram::DramTiming{}, 2.0e9, 1.0e9);
    dse::TieredBackend tiered(dramContext(spec));
    const dse::DesignSpace space;
    std::vector<dse::DesignPoint> points;
    for (const dse::Encoding &encoding : distinctEncodings(32, 179))
        points.push_back(space.decode(encoding));

    std::vector<dse::Evaluation> evals(points.size());
    tiered.evaluateBatch(points, nullptr,
                         [&](std::size_t i, dse::Evaluation &&eval) {
                             evals[i] = std::move(eval);
                         });
    std::size_t bank = 0;
    for (const dse::Evaluation &eval : evals) {
        EXPECT_EQ(eval.backend, "tiered");
        if (eval.fidelity == dse::Fidelity::BankAccurate) {
            ++bank;
            EXPECT_EQ(eval.dramKey, spec.tag());
        } else {
            EXPECT_EQ(eval.fidelity, dse::Fidelity::Analytical);
            EXPECT_EQ(eval.dramKey, "-");
        }
    }
    EXPECT_GT(bank, 0u);
    EXPECT_LT(bank, points.size());
    EXPECT_EQ(tiered.promotedCount(), bank);
}

TEST(Fidelity, BankTierHasANameAndParsesBack)
{
    EXPECT_EQ(dse::fidelityName(dse::Fidelity::BankAccurate), "bank");
    dse::Fidelity fidelity = dse::Fidelity::Analytical;
    EXPECT_TRUE(dse::tryFidelityFromName("bank", fidelity));
    EXPECT_EQ(fidelity, dse::Fidelity::BankAccurate);
}

// ------------------------------------------------------- command power ----

TEST(DramCommandPower, ChargesCommandsOnTopOfTheStandbyFloor)
{
    const pw::DramModel model;
    // No commands, no bytes: just the standby floor.
    EXPECT_DOUBLE_EQ(model.commandPowerMw({}, 1.0),
                     model.backgroundMw());
    // Each term bills linearly (NEAR: subtracting the floor loses a
    // few ulps).
    const double withBytes =
        model.commandPowerMw({0, 0, 0, 1000000}, 1.0);
    EXPECT_NEAR(withBytes - model.backgroundMw(),
                model.ioPjPerByte() * 1e6 * 1e-9, 1e-12);
    const double withActivates =
        model.commandPowerMw({1000, 1000, 0, 0}, 1.0);
    EXPECT_NEAR(withActivates - model.backgroundMw(),
                model.activateEnergyPj() * 1000 * 1e-9, 1e-12);
    const double withRefreshes =
        model.commandPowerMw({0, 0, 100, 0}, 1.0);
    EXPECT_NEAR(withRefreshes - model.backgroundMw(),
                model.refreshEnergyPj() * 100 * 1e-9, 1e-12);
}

TEST(DramCommandPowerDeath, NonPositiveIntervalIsFatal)
{
    const pw::DramModel model;
    EXPECT_EXIT(model.commandPowerMw({}, 0.0),
                ::testing::ExitedWithCode(1), "seconds");
    EXPECT_EXIT(model.commandPowerMw({-1, 0, 0, 0}, 1.0),
                ::testing::ExitedWithCode(1), "counts");
}

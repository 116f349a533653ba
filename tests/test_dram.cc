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
 *  - ChannelDifferential: the cursor channel equals the stepped,
 *    address-dividing oracle (tests/oracle/dram_channel.h) in every
 *    completion cycle and every ChannelStats field, over random specs
 *    and transfer trains and through the fold timeline.
 *  - DramCycleEngine with an empty generator set is bit-identical to
 *    systolic::CycleEngine - the sidecar backward-compatibility
 *    contract - and slows down under background traffic.
 *  - DramBackend: disabled spec reproduces CycleBackend field for
 *    field; enabled spec tags BankAccurate fidelity + the channel key,
 *    bills DRAM power from command counts (never the flat surcharge on
 *    top - the double-charging fix), and stays byte-identical across
 *    worker-thread counts, alone and as the tiered verify tier.
 *  - Degenerate parameter sets are diagnosed in words (fatal with
 *    infeasibleReason), never simulated into NaN, infinite latency or
 *    integer overflow.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
#include "oracle/dram_channel.h"
#include "power/dram_model.h"
#include "systolic/cycle_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "shared_fixtures.h"

namespace al = autopilot::airlearning;
namespace dram = autopilot::dram;
namespace dse = autopilot::dse;
namespace nn = autopilot::nn;
namespace pw = autopilot::power;
namespace sys = autopilot::systolic;
namespace util = autopilot::util;

using autopilot::fixtures::sharedDatabase;
using autopilot::fixtures::distinctEncodings;

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

dse::BackendContext
dramContext(const dram::DramSpec &spec = {})
{
    return {&sharedDatabase(), al::ObstacleDensity::Dense, {}, spec};
}

/** The command counters @p banks has accumulated so far. */
dram::ChannelStats
commands(const dram::BankModel &banks)
{
    dram::ChannelStats stats;
    banks.addCommands(stats);
    return stats;
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
    const std::int64_t transfer = 2; // 64-byte burst at 32 B/cycle.

    // Cold bank: miss = tRCD + tCAS (+ activate).
    std::int64_t done = banks.service(banks.locate(0), transfer, 0);
    dram::ChannelStats stats = commands(banks);
    EXPECT_EQ(done, timing.tRcdCycles + timing.tCasCycles + transfer);
    EXPECT_EQ(stats.rowMisses, 1);
    EXPECT_EQ(stats.activates, 1);

    // Same row, next column: hit = tCAS only.
    done = banks.service(banks.locate(timing.burstBytes), transfer, done);
    stats = commands(banks);
    EXPECT_EQ(stats.rowHits, 1);
    EXPECT_EQ(stats.precharges, 0);

    // Same bank, different row: conflict = tRP + tRCD + tCAS.
    const std::int64_t otherRow =
        timing.rowBytes * timing.banks; // row 1, bank 0.
    const std::int64_t start = done;
    done = banks.service(banks.locate(otherRow), transfer, start);
    stats = commands(banks);
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
    std::int64_t cycle = 0;
    for (int i = 0; i < 16; ++i)
        cycle =
            banks.service(banks.locate(i * timing.burstBytes), 2, cycle);
    const dram::ChannelStats stats = commands(banks);
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

    const std::int64_t first = banks.service(banks.locate(0), 2, 0);
    EXPECT_EQ(commands(banks).rowMisses, 1);

    // Next access lands past tREFI: one refresh is paid, the row it
    // opened is closed again, and the access starts no earlier than the
    // refresh stall's end - so it re-misses instead of hitting.
    const std::int64_t afterRefresh =
        banks.service(banks.locate(0), 2, timing.tRefiCycles);
    const dram::ChannelStats stats = commands(banks);
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

    // Unbounded integers are diagnosed before they can size a per-bank
    // vector or overflow the channel's cycle arithmetic.
    spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.banks = 2000000000;
    EXPECT_NE(spec.infeasibleReason().find("bank count"),
              std::string::npos)
        << spec.infeasibleReason();
    spec.timing.banks = dram::kMaxBanks;
    EXPECT_EQ(spec.infeasibleReason(), "");

    spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.rowBytes = dram::kMaxRowBytes + 1;
    EXPECT_NE(spec.infeasibleReason().find("row size"), std::string::npos)
        << spec.infeasibleReason();

    std::string error;
    spec = oneStreamSpec(1.0e9, 0.0);
    ASSERT_TRUE(dram::parseDramTiming("9223372036854775807:4:4",
                                      spec.timing, error));
    EXPECT_NE(spec.infeasibleReason().find("tCAS"), std::string::npos)
        << spec.infeasibleReason();
    spec = oneStreamSpec(1.0e9, 0.0);
    ASSERT_TRUE(dram::parseDramTiming("4:4:4:9223372036854775807:36",
                                      spec.timing, error));
    EXPECT_NE(spec.infeasibleReason().find("tREFI"), std::string::npos)
        << spec.infeasibleReason();
    spec = oneStreamSpec(1.0e9, 0.0);
    spec.timing.tRcdCycles = dram::kMaxTimingCycles;
    spec.timing.tRefiCycles = dram::kMaxTimingCycles;
    EXPECT_EQ(spec.infeasibleReason(), ""); // The bound itself is fine.
    spec.timing.tRcdCycles = dram::kMaxTimingCycles + 1;
    EXPECT_NE(spec.infeasibleReason().find("tRCD"), std::string::npos)
        << spec.infeasibleReason();

    spec = oneStreamSpec(1.0e9, 0.0);
    spec.generators[0].addressBase = std::int64_t{1} << 62;
    spec.generators[0].addressRange = std::int64_t{1} << 62;
    EXPECT_NE(spec.infeasibleReason().find("address"), std::string::npos)
        << spec.infeasibleReason();

    // The width-dependent half: 600-cycle commands cannot fit between
    // two refreshes of the default 1560-cycle interval at any width.
    spec = oneStreamSpec(1.0e9, 0.0, dram::DramTiming{});
    ASSERT_TRUE(dram::parseDramTiming("600:600:600", spec.timing, error));
    EXPECT_EQ(spec.infeasibleReason(), "");
    EXPECT_NE(spec.infeasibleReasonAt(32).find("refresh"),
              std::string::npos)
        << spec.infeasibleReasonAt(32);
    EXPECT_NE(spec.infeasibleReasonAt(0).find("width"), std::string::npos);
    EXPECT_EQ(oneStreamSpec(1.0e9, 0.0).infeasibleReasonAt(32), "");
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

// ------------------------------------------------- oracle differential ----

namespace
{

/** A random simulable spec: any bank count and row size, both row
 *  policies, randomness 0..1, loads from idle to well past saturation,
 *  and (one time in three) a refresh interval barely past one stall
 *  plus one worst-case burst. */
dram::DramSpec
randomSpec(util::Rng &rng, const sys::AcceleratorConfig &accel)
{
    dram::DramSpec spec;
    dram::DramTiming &t = spec.timing;
    t.banks = rng.uniformInt(1, 13);
    t.burstBytes = rng.bernoulli(0.3) ? 64 : rng.uniformInt(8, 160);
    t.rowBytes = rng.bernoulli(0.3)
                     ? 2048
                     : t.burstBytes + rng.uniformInt(0, 3000);
    t.tCasCycles = rng.uniformInt(1, 12);
    t.tRcdCycles = rng.uniformInt(1, 12);
    t.tRpCycles = rng.uniformInt(1, 12);
    t.tRfcCycles = rng.uniformInt(0, 60);
    const std::int64_t worstBurst =
        t.tRpCycles + t.tRcdCycles + t.tCasCycles +
        (t.burstBytes + accel.dramBytesPerCycle - 1) /
            accel.dramBytesPerCycle;
    t.tRefiCycles = t.tRfcCycles + worstBurst +
                    (rng.bernoulli(1.0 / 3.0) ? rng.uniformInt(1, 8)
                                              : rng.uniformInt(1, 4000));
    t.rowPolicy = rng.bernoulli(0.5) ? dram::RowPolicy::Open
                                     : dram::RowPolicy::Closed;

    const double peakBytesPerSec =
        static_cast<double>(accel.dramBytesPerCycle) * accel.clockGhz *
        1e9;
    const int streams = rng.uniformInt(0, 3);
    for (int g = 0; g < streams; ++g) {
        dram::TrafficGeneratorSpec gen;
        gen.name = "g" + std::to_string(g);
        // Idle (inert) now and then; otherwise up to 3x the channel.
        gen.bytesPerSec = rng.bernoulli(0.1)
                              ? 0.0
                              : rng.uniform(0.02, 3.0) * peakBytesPerSec;
        const int pattern = rng.uniformInt(0, 2);
        gen.randomness = pattern == 0   ? 0.0
                         : pattern == 1 ? 1.0
                                        : rng.uniform();
        gen.strideBytes = rng.bernoulli(0.5)
                              ? t.burstBytes
                              : rng.uniformInt(1, 3 * static_cast<int>(
                                                      t.rowBytes));
        gen.seed = rng.next64();
        gen.addressBase = rng.uniformInt(0, 1 << 30);
        // Small windows wrap often; large ones span many rows.
        gen.addressRange =
            rng.bernoulli(0.5)
                ? t.burstBytes + rng.uniformInt(0, 4 * static_cast<int>(
                                                       t.rowBytes))
                : rng.uniformInt(1 << 16, 1 << 26);
        if (rng.bernoulli(0.2))
            gen.strideBytes = gen.addressRange + rng.uniformInt(1, 999);
        gen.write = rng.bernoulli(0.5);
        spec.generators.push_back(gen);
    }
    return spec;
}

} // namespace

TEST(ChannelDifferential, CursorChannelMatchesSteppedOracleExactly)
{
    // The production channel against the stepped, address-dividing
    // oracle it replaced: random specs, random transfer trains (gaps,
    // out-of-order starts, zero and partial-burst sizes). Every
    // completion cycle and every ChannelStats field must be equal.
    util::Rng rng(0xD1FFull);
    int busy = 0;
    for (int trial = 0; trial < 160; ++trial) {
        sys::AcceleratorConfig accel;
        accel.dramBytesPerCycle = rng.uniformInt(1, 64);
        accel.clockGhz = rng.uniform(0.1, 1.0);
        const dram::DramSpec spec = randomSpec(rng, accel);
        ASSERT_EQ(spec.infeasibleReasonAt(accel.dramBytesPerCycle), "");

        dram::ChannelTimeline fast(spec, accel);
        dram::oracle::ChannelTimeline slow(spec, accel);
        std::int64_t cycle = 0;
        const int transfers = rng.uniformInt(50, 250);
        for (int i = 0; i < transfers; ++i) {
            // Mostly forward in time; sometimes behind the channel.
            cycle = std::max<std::int64_t>(
                0, cycle + rng.uniformInt(-400, 2500));
            const std::int64_t bytes =
                rng.bernoulli(0.05)
                    ? 0
                    : rng.uniformInt(1, 6000);
            const bool write = rng.bernoulli(0.4);
            ASSERT_EQ(fast.transfer(cycle, bytes, write),
                      slow.transfer(cycle, bytes, write))
                << "trial " << trial << " transfer " << i;
        }
        ASSERT_EQ(fast.stats(), slow.stats()) << "trial " << trial;
        busy += fast.stats().backgroundRequests > 0;
    }
    EXPECT_GT(busy, 80); // Most trials really interleaved traffic.
}

TEST(ChannelDifferential, DramEngineMatchesOracleOnTheFoldTimeline)
{
    // End to end through the fold timeline: the (5, 32) policy plus a
    // layer that spills every scratchpad, under the paper's camera +
    // host scenario from idle to saturated, both row policies.
    std::vector<nn::Layer> layers = nn::buildE2EModel({5, 32}).layers();
    layers.push_back(nn::conv2d("spill", 128, 128, 48, 3, 1, 96));
    sys::AcceleratorConfig accel;
    accel.peRows = accel.peCols = 16;
    accel.ifmapSramKb = accel.filterSramKb = accel.ofmapSramKb = 64;
    for (const dram::RowPolicy policy :
         {dram::RowPolicy::Open, dram::RowPolicy::Closed}) {
        for (const double mbps : {50.0, 400.0, 4000.0}) {
            dram::DramTiming timing;
            timing.rowPolicy = policy;
            const dram::DramSpec spec =
                dram::uavDramSpec(timing, mbps * 1e6, mbps * 0.5e6);
            const dram::DramCycleEngine engine(accel, spec);
            dram::ChannelStats oracleStats;
            for (const nn::Layer &layer : layers) {
                dram::oracle::ChannelTimeline oracle(spec, accel);
                const sys::LayerResult want =
                    sys::runFoldTimeline(layer, accel, oracle);
                const sys::LayerResult got = engine.runLayer(layer);
                oracleStats.accumulate(oracle.stats());
                EXPECT_EQ(got.totalCycles, want.totalCycles) << layer.name;
                EXPECT_EQ(got.stallCycles, want.stallCycles) << layer.name;
                EXPECT_EQ(got.computeCycles, want.computeCycles)
                    << layer.name;
            }
            EXPECT_EQ(engine.runStats(), oracleStats) << mbps;
        }
    }
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

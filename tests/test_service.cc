/**
 * @file
 * Tests for the campaign service: submission parsing/rejection, the
 * inbox -> result round trip, per-tenant fair-share admission, and
 * drain/restart resume byte-identity. The real SIGKILL variant (kill
 * -9 mid-serve, restart, diff against golden) runs in CI's serve-smoke
 * job; here the drain path exercises the same journals in-process.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "airlearning/environment.h"
#include "io/json.h"
#include "runner/campaign.h"
#include "runner/service.h"
#include "util/cancel.h"

#include "temp_tree.h"

namespace fs = std::filesystem;
namespace runner = autopilot::runner;
namespace uav = autopilot::uav;
namespace util = autopilot::util;

using autopilot::fixtures::RemoveTreeOnExit;

namespace
{

fs::path
testDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("autopilot_service_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Drop a submission into the inbox the documented way: write aside,
 * then rename into place so the scanner never sees a torn file. */
void
submit(const fs::path &root, const std::string &id,
       const std::string &json)
{
    const fs::path tmp = root / (id + ".tmp");
    {
        std::ofstream out(tmp);
        out << json;
    }
    fs::rename(tmp, root / "inbox" / (id + ".json"));
}

std::string
fileBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Value of one "key,value" line in a status file ("" when absent). */
std::string
statusField(const fs::path &root, const std::string &id,
            const std::string &key)
{
    std::ifstream in(root / "status" / (id + ".status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + ",", 0) == 0)
            return line.substr(key.size() + 1);
    }
    return "";
}

/** Fast service config over a fresh root. */
runner::ServiceConfig
fastConfig(const fs::path &root)
{
    runner::ServiceConfig config;
    config.rootDir = root.string();
    config.pollSeconds = 0.005;
    config.poolThreads = 2;
    config.retry.maxAttempts = 2;
    config.retry.initialBackoffSeconds = 1e-4;
    config.retry.maxBackoffSeconds = 1e-3;
    return config;
}

/// Small-but-real submission: finishes in seconds, still runs all
/// three phases with journaled Phase 2 batches.
const char *kSmallSubmission =
    R"({"tenant": "alice", "density": "low", "episodes": 10,)"
    R"( "budget": 8, "threads": 2})";

} // namespace

// ------------------------------------------------- submission parsing ----

TEST(Submission, ParsesFullDocumentAndAppliesDefaults)
{
    runner::CampaignSubmission sub;
    std::string error;
    ASSERT_TRUE(runner::parseSubmission(
        "exp-1",
        R"({"tenant": "alice", "density": "medium", "episodes": 20,)"
        R"( "budget": 12, "seed": 7, "threads": 2, "optimizer": "sa",)"
        R"( "backend": "analytical", "uav": "spark",)"
        R"( "deadline_s": 30.5, "camera_mbps": 2.5, "host_mbps": 1,)"
        R"( "npu_floor": 0.25})",
        sub, error))
        << error;
    EXPECT_EQ(sub.id, "exp-1");
    EXPECT_EQ(sub.tenant, "alice");
    EXPECT_EQ(sub.task.name, "exp-1");
    EXPECT_EQ(sub.task.spec.validationEpisodes, 20);
    EXPECT_EQ(sub.task.spec.dseBudget, 12);
    EXPECT_EQ(sub.task.spec.seed, 7u);
    EXPECT_EQ(sub.task.spec.threads, 2);
    EXPECT_EQ(sub.task.spec.optimizer, "sa");
    EXPECT_DOUBLE_EQ(sub.task.deadlineSeconds, 30.5);
    EXPECT_DOUBLE_EQ(sub.task.spec.contention.cameraBytesPerSec, 2.5e6);
    EXPECT_DOUBLE_EQ(sub.task.spec.contention.hostBytesPerSec, 1e6);
    EXPECT_DOUBLE_EQ(sub.task.spec.contention.npuFloorFraction, 0.25);

    runner::CampaignSubmission defaults;
    ASSERT_TRUE(runner::parseSubmission("d", "{}", defaults, error))
        << error;
    EXPECT_EQ(defaults.tenant, "default");
    EXPECT_EQ(defaults.task.spec.optimizer, "bo");
    EXPECT_EQ(defaults.task.spec.backend, "analytical");
    EXPECT_DOUBLE_EQ(defaults.task.deadlineSeconds, 0.0);
}

TEST(Submission, RejectsBadDocumentsWithDiagnostics)
{
    const struct
    {
        const char *id;
        const char *json;
        const char *needle; ///< Must appear in the error message.
    } cases[] = {
        {"x", "{", "offset"},                 // Malformed JSON.
        {"x", "[1,2]", "object"},             // Wrong top-level type.
        {"x", R"({"bogus": 1})", "bogus"},    // Unknown key.
        {"x", R"({"episodes": 0})", "episodes"},
        {"x", R"({"episodes": 2.5})", "episodes"},
        {"x", R"({"budget": -3})", "budget"},
        {"x", R"({"density": "extreme"})", "density"},
        {"x", R"({"optimizer": "sgd"})", "optimizer"},
        {"x", R"({"backend": "quantum"})", "backend"},
        {"x", R"({"uav": "jumbo"})", "uav"},
        {"x", R"({"npu_floor": 1.0})", "npu_floor"},
        {"x", R"({"threads": 257})", "threads"},
        {"x", R"({"deadline_s": -1})", "deadline_s"},
        {"x", R"({"dram_banks": 0, "backend": "dram"})", "dram_banks"},
        {"x", R"({"row_policy": "ajar", "backend": "dram"})",
         "row_policy"},
        {"x", R"({"dram_timing": "4:4", "backend": "dram"})",
         "dram_timing"},
        // dram_* keys only make sense for the dram/tiered backends.
        {"x", R"({"dram_banks": 8})", "dram"},
        {"x", R"({"dram_banks": 8, "backend": "cycle"})", "dram"},
        // A degenerate channel is diagnosed at submission time.
        {"x",
         R"({"backend": "dram", "camera_mbps": 100,)"
         R"( "dram_timing": "4:4:4:10:36"})",
         "infeasible"},
        {"x",
         R"({"backend": "dram", "camera_mbps": 100,)"
         R"( "dram_timing": "600:600:600"})",
         "refresh"},
        {"x", R"({"backend": "dram", "dram_banks": 1000000000})",
         "bank count"},
        {"x", R"({"tenant": "has space"})", "tenant"},
        {"bad/id", "{}", "id"}, // Path-hostile campaign id.
        {"", "{}", "id"},
    };
    for (const auto &bad : cases) {
        runner::CampaignSubmission sub;
        std::string error;
        EXPECT_FALSE(
            runner::parseSubmission(bad.id, bad.json, sub, error))
            << bad.json;
        EXPECT_NE(error.find(bad.needle), std::string::npos)
            << "error '" << error << "' should mention '" << bad.needle
            << "'";
    }
}

TEST(Submission, DramKeysBuildBankLevelChannel)
{
    runner::CampaignSubmission sub;
    std::string error;
    ASSERT_TRUE(runner::parseSubmission(
        "d-1",
        R"({"backend": "dram", "dram_banks": 16,)"
        R"( "row_policy": "closed", "dram_timing": "3:5:7:2000:40",)"
        R"( "camera_mbps": 400, "host_mbps": 100})",
        sub, error))
        << error;
    EXPECT_EQ(sub.task.spec.backend, "dram");
    ASSERT_EQ(sub.task.spec.dram.generators.size(), 2u);
    EXPECT_EQ(sub.task.spec.dram.timing.banks, 16);
    EXPECT_EQ(sub.task.spec.dram.timing.rowPolicy,
              autopilot::dram::RowPolicy::Closed);
    EXPECT_EQ(sub.task.spec.dram.timing.tCasCycles, 3);
    EXPECT_EQ(sub.task.spec.dram.timing.tRefiCycles, 2000);
    EXPECT_DOUBLE_EQ(sub.task.spec.dram.backgroundBytesPerSec(),
                     5.0e8);
    // The same rates feed the generators, never also the flat
    // surcharge - bytes must not be billed twice.
    EXPECT_FALSE(sub.task.spec.contention.enabled());

    // "dram" without traffic keys is legal: the backend then takes the
    // pure-cycle path (the bit-identical degraded mode).
    runner::CampaignSubmission quiet;
    ASSERT_TRUE(runner::parseSubmission(
        "d-2", R"({"backend": "dram"})", quiet, error))
        << error;
    EXPECT_FALSE(quiet.task.spec.dram.enabled());
}

TEST(Submission, MissionMixScenariosParseIntoTaskSpec)
{
    runner::CampaignSubmission sub;
    std::string error;
    ASSERT_TRUE(runner::parseSubmission(
        "fleet",
        R"({"mission_mix": [)"
        R"({"name": "transit", "mission": "nav", "weight": 2},)"
        R"({"name": "survey", "airframe": "fixed-wing",)"
        R"( "mission": "search", "area_m2": 40000, "spacing_m": 20,)"
        R"( "weight": 1}]})",
        sub, error))
        << error;
    const uav::MissionMix &mix = sub.task.spec.missionMix;
    ASSERT_EQ(mix.scenarios.size(), 2u);
    EXPECT_EQ(mix.tag(), "transit+survey");
    EXPECT_EQ(mix.scenarios[0].airframe, uav::AirframeKind::Quadrotor);
    EXPECT_DOUBLE_EQ(mix.scenarios[0].weight, 2.0);
    EXPECT_EQ(mix.scenarios[1].airframe, uav::AirframeKind::FixedWing);
    EXPECT_EQ(mix.scenarios[1].profile.missionClass,
              uav::MissionClass::SearchPattern);
    EXPECT_DOUBLE_EQ(mix.scenarios[1].profile.searchAreaM2, 40000.0);
}

TEST(Submission, AirframeShorthandBuildsSingleScenarioMix)
{
    runner::CampaignSubmission sub;
    std::string error;
    ASSERT_TRUE(runner::parseSubmission(
        "fw", R"({"airframe": "fixed-wing"})", sub, error))
        << error;
    ASSERT_EQ(sub.task.spec.missionMix.scenarios.size(), 1u);
    EXPECT_EQ(sub.task.spec.missionMix.scenarios[0].airframe,
              uav::AirframeKind::FixedWing);

    // Naming the default airframe keeps the mix empty, preserving the
    // legacy fingerprint (and thus resumability of old journals).
    runner::CampaignSubmission quad;
    ASSERT_TRUE(runner::parseSubmission(
        "q", R"({"airframe": "quad"})", quad, error))
        << error;
    EXPECT_TRUE(quad.task.spec.missionMix.isDefault());
}

TEST(Submission, LegacySubmissionDefaultsToQuadPointToPoint)
{
    runner::CampaignSubmission sub;
    std::string error;
    ASSERT_TRUE(runner::parseSubmission("old", kSmallSubmission, sub,
                                        error))
        << error;
    EXPECT_TRUE(sub.task.spec.missionMix.isDefault());
    EXPECT_EQ(sub.task.spec.missionMix.tag(), "-");
}

TEST(Submission, RejectsBadMissionMixWithDiagnostics)
{
    const struct
    {
        const char *json;
        const char *needle;
    } cases[] = {
        {R"({"airframe": "fixed-wing", "mission_mix": []})",
         "mutually exclusive"},
        {R"({"airframe": "biplane"})", "airframe"},
        {R"({"mission_mix": {"name": "a"}})", "array"},
        {R"({"mission_mix": [{"name": "a", "rotor": 1}]})", "rotor"},
        {R"({"mission_mix": [{"name": "a", "mission": "loiter"}]})",
         "mission"},
        {R"({"mission_mix": [{"name": "a", "weight": 0}]})", "weight"},
        // Weights that would overflow the fleet objective's weighted
        // sums to inf/inf (NaN missions) are rejected by name.
        {R"({"mission_mix": [{"name": "a", "weight": 1e308},)"
         R"( {"name": "b", "weight": 1e308}]})",
         "weight must be in (0, 1e6]"},
        {R"({"mission_mix": [{"name": "a", "weight": 1000001}]})",
         "weight"},
        {R"({"mission_mix": [{"name": "a"}, {"name": "a"}]})",
         "duplicate"},
        {R"({"mission_mix": [{"name": "a", "mission": "search"}]})",
         "area_m2"},
        {R"({"mission_mix": [{"name": "Bad Name"}]})", "name"},
    };
    for (const auto &bad : cases) {
        runner::CampaignSubmission sub;
        std::string error;
        EXPECT_FALSE(
            runner::parseSubmission("x", bad.json, sub, error))
            << bad.json;
        EXPECT_NE(error.find(bad.needle), std::string::npos)
            << "error '" << error << "' should mention '" << bad.needle
            << "'";
    }
}

TEST(Submission, ParseMissionMixReadsStandaloneDocuments)
{
    // The same grammar backs campaign_runner's --mission-mix file.
    uav::MissionMix mix;
    std::string error;
    ASSERT_TRUE(runner::parseMissionMix(
        R"([{"name": "drop", "mission": "delivery",)"
        R"( "payload_g": 150, "distance_m": 80}])",
        mix, error))
        << error;
    ASSERT_EQ(mix.scenarios.size(), 1u);
    EXPECT_EQ(mix.scenarios[0].profile.missionClass,
              uav::MissionClass::PayloadDelivery);
    EXPECT_DOUBLE_EQ(mix.scenarios[0].profile.deliveryPayloadG, 150.0);
    EXPECT_DOUBLE_EQ(mix.scenarios[0].profile.distanceM, 80.0);

    EXPECT_FALSE(runner::parseMissionMix("[not json", mix, error));
    EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------- task grammar ----

TEST(TaskKeys, SameKeysOverDifferentDefaults)
{
    namespace io = autopilot::io;
    const std::map<std::string, io::JsonValue> keys = {
        {"budget", io::JsonValue::makeNumber(12)},
        {"optimizer", io::JsonValue::makeString("sa")},
        {"camera_mbps", io::JsonValue::makeNumber(2.5)},
        {"airframe", io::JsonValue::makeString("fixed-wing")},
        {"precision", io::JsonValue::makeString("int8,fp16")},
    };

    // campaign_runner's defaults and the service's, as each caller
    // sets them before applying the same grammar.
    runner::CampaignTask cli;
    cli.spec.validationEpisodes = 80;
    cli.spec.dseBudget = 60;
    cli.spec.density = autopilot::airlearning::ObstacleDensity::Dense;
    cli.uav = uav::zhangNano();
    cli.deadlineSeconds = 5.0;
    runner::CampaignTask service;
    service.spec.validationEpisodes = 40;
    service.spec.dseBudget = 30;
    service.spec.seed = 99;
    service.uav = uav::djiSpark();

    for (runner::CampaignTask *task : {&cli, &service}) {
        std::string error;
        std::string badKey;
        ASSERT_TRUE(runner::applyTaskKeys(keys, *task, error, badKey))
            << error;
        EXPECT_EQ(task->spec.dseBudget, 12);
        EXPECT_EQ(task->spec.optimizer, "sa");
        EXPECT_DOUBLE_EQ(task->spec.contention.cameraBytesPerSec, 2.5e6);
        EXPECT_FALSE(task->spec.dram.enabled());
        ASSERT_EQ(task->spec.missionMix.scenarios.size(), 1u);
        EXPECT_EQ(task->spec.missionMix.scenarios[0].airframe,
                  uav::AirframeKind::FixedWing);
        EXPECT_EQ(task->spec.precisions, (std::vector<int>{1, 2}));
        EXPECT_EQ(task->spec.backend, "analytical");
    }
    // Fields no key names keep each caller's own value.
    EXPECT_EQ(cli.spec.validationEpisodes, 80);
    EXPECT_EQ(service.spec.validationEpisodes, 40);
    EXPECT_EQ(cli.spec.density,
              autopilot::airlearning::ObstacleDensity::Dense);
    EXPECT_EQ(service.spec.density,
              autopilot::airlearning::ObstacleDensity::Low);
    EXPECT_DOUBLE_EQ(cli.deadlineSeconds, 5.0);
    EXPECT_DOUBLE_EQ(service.deadlineSeconds, 0.0);
    EXPECT_EQ(service.spec.seed, 99u);
    EXPECT_EQ(cli.uav.name, uav::zhangNano().name);
    EXPECT_EQ(service.uav.name, uav::djiSpark().name);
}

TEST(TaskKeys, BlamesTheOffendingKey)
{
    namespace io = autopilot::io;
    const struct
    {
        std::map<std::string, io::JsonValue> keys;
        const char *badKey;
    } cases[] = {
        {{{"budget", io::JsonValue::makeNumber(0)}}, "budget"},
        // One past the thread maximum: rejected before any pool starts.
        {{{"threads", io::JsonValue::makeNumber(runner::maxThreads + 1)}},
         "threads"},
        {{{"deadline_s", io::JsonValue::makeNumber(
                             std::numeric_limits<double>::quiet_NaN())}},
         "deadline_s"},
        {{{"mission_mix", io::JsonValue::makeNumber(1)}}, "mission_mix"},
        {{{"mission_mix",
           io::JsonValue::makeArray({io::JsonValue::makeObject(
               {{"name", io::JsonValue::makeString("a")},
                {"weight", io::JsonValue::makeNumber(1e7)}})})}},
         "mission_mix"},
        {{{"airframe", io::JsonValue::makeString("fixed-wing")},
          {"mission_mix", io::JsonValue::makeArray({})}},
         "airframe"},
        {{{"dram_banks", io::JsonValue::makeNumber(8)}}, "backend"},
        // An infeasible channel spans keys: no single one is blamed.
        {{{"backend", io::JsonValue::makeString("dram")},
          {"camera_mbps", io::JsonValue::makeNumber(100)},
          {"dram_timing", io::JsonValue::makeString("4:4:4:10:36")}},
         ""},
        // Commands too slow for the refresh interval at the costed
        // channel width depend on the timing alone.
        {{{"backend", io::JsonValue::makeString("dram")},
          {"camera_mbps", io::JsonValue::makeNumber(100)},
          {"dram_timing", io::JsonValue::makeString("600:600:600")}},
         "dram_timing"},
        // A flat profile the contention backend or the tiered verify
        // tier would simulate with no bandwidth left, or a rate that
        // overflows to inf once scaled to B/s.
        {{{"backend", io::JsonValue::makeString("contention")},
          {"camera_mbps", io::JsonValue::makeNumber(1e8)},
          {"npu_floor", io::JsonValue::makeNumber(0)}},
         "camera_mbps"},
        {{{"backend", io::JsonValue::makeString("tiered")},
          {"camera_mbps", io::JsonValue::makeNumber(10)},
          {"host_mbps", io::JsonValue::makeNumber(1e8)}},
         "host_mbps"},
        {{{"backend", io::JsonValue::makeString("contention")},
          {"camera_mbps", io::JsonValue::makeNumber(1e303)}},
         "camera_mbps"},
        {{{"backend", io::JsonValue::makeString("analytical")},
          {"host_mbps", io::JsonValue::makeNumber(1e303)}},
         "host_mbps"},
        // A QoS floor so small that derated transfers would overflow
        // int64 cycle counts: the saturating rate is blamed.
        {{{"backend", io::JsonValue::makeString("contention")},
          {"camera_mbps", io::JsonValue::makeNumber(1e5)},
          {"npu_floor", io::JsonValue::makeNumber(1e-15)}},
         "camera_mbps"},
        {{{"backend", io::JsonValue::makeString("tiered")},
          {"host_mbps", io::JsonValue::makeNumber(1e5)},
          {"npu_floor", io::JsonValue::makeNumber(1e-300)}},
         "host_mbps"},
    };
    for (const auto &bad : cases) {
        runner::CampaignTask task;
        std::string error;
        std::string badKey = "unset";
        EXPECT_FALSE(runner::applyTaskKeys(bad.keys, task, error, badKey));
        EXPECT_FALSE(error.empty());
        EXPECT_EQ(badKey, bad.badKey) << error;
    }
}

TEST(TaskKeys, ThreadsAndWeightsAtTheirMaximaAreAccepted)
{
    namespace io = autopilot::io;
    const std::map<std::string, io::JsonValue> keys = {
        {"threads", io::JsonValue::makeNumber(runner::maxThreads)},
        {"mission_mix",
         io::JsonValue::makeArray({io::JsonValue::makeObject(
             {{"name", io::JsonValue::makeString("a")},
              {"weight",
               io::JsonValue::makeNumber(uav::MissionMix::maxWeight)}})})},
    };
    runner::CampaignTask task;
    std::string error;
    std::string badKey;
    ASSERT_TRUE(runner::applyTaskKeys(keys, task, error, badKey)) << error;
    EXPECT_EQ(task.spec.threads, runner::maxThreads);
    ASSERT_EQ(task.spec.missionMix.scenarios.size(), 1u);
    EXPECT_EQ(task.spec.missionMix.scenarios[0].weight, 1e6);
}

TEST(ServiceDeath, RejectsPoolAboveTheThreadMaximum)
{
    // Checked before the tree is created or any worker starts.
    const fs::path root = testDir("big_pool");
    runner::ServiceConfig config = fastConfig(root);
    config.poolThreads = runner::maxThreads + 1;
    EXPECT_EXIT(runner::CampaignService{config},
                ::testing::ExitedWithCode(1), "poolThreads");
    EXPECT_FALSE(fs::exists(root / "inbox"));
    fs::remove_all(root);
}

TEST(ServiceDeath, RejectsNonFinitePollInterval)
{
    const fs::path root = testDir("nan_poll");
    runner::ServiceConfig config = fastConfig(root);
    config.pollSeconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(runner::CampaignService{config},
                ::testing::ExitedWithCode(1), "pollSeconds");
    config.pollSeconds = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(runner::CampaignService{config},
                ::testing::ExitedWithCode(1), "pollSeconds");
    fs::remove_all(root);
}

// ------------------------------------------------------- service loop ----

TEST(Service, InboxToResultRoundTripWithRejects)
{
    const fs::path root = testDir("roundtrip");
    const RemoveTreeOnExit removeRoot(root);
    runner::ServiceConfig config = fastConfig(root);
    config.maxActiveCampaigns = 2;
    config.maxCampaigns = 2;
    runner::CampaignService service(config);

    submit(root, "good-a", kSmallSubmission);
    submit(root, "bad", R"({"backend": "quantum"})");
    submit(root, "good-b",
           R"({"tenant": "bob", "density": "medium",)"
           R"( "episodes": 10, "budget": 8})");

    const runner::ServiceReport report = service.serve();
    EXPECT_EQ(report.admitted, 2u);
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.rejected, 1u);
    EXPECT_EQ(report.interrupted, 0u);

    // Terminal layout: results + done for the good ones, a rejected
    // marker for the bad one, and an empty inbox/active.
    EXPECT_TRUE(fs::exists(root / "results" / "good-a.result"));
    EXPECT_TRUE(fs::exists(root / "results" / "good-b.result"));
    EXPECT_TRUE(fs::exists(root / "done" / "good-a.json"));
    EXPECT_TRUE(fs::exists(root / "done" / "bad.rejected"));
    EXPECT_FALSE(fs::exists(root / "results" / "bad.result"));
    EXPECT_TRUE(fs::is_empty(root / "inbox"));
    EXPECT_TRUE(fs::is_empty(root / "active"));

    EXPECT_EQ(statusField(root, "good-a", "state"), "done");
    EXPECT_EQ(statusField(root, "good-b", "state"), "done");
    EXPECT_EQ(statusField(root, "bad", "state"), "rejected");
    EXPECT_NE(statusField(root, "bad", "detail").find("backend"),
              std::string::npos);

    const std::string result = fileBytes(root / "results" /
                                         "good-a.result");
    EXPECT_NE(result.find("1/1 tasks succeeded"), std::string::npos)
        << result;
}

TEST(Service, DeeplyNestedSubmissionIsRejectedWhileOthersFinish)
{
    // Golden: the good submission served alone in a fresh root.
    const fs::path goldenRoot = testDir("nested_golden");
    {
        runner::ServiceConfig config = fastConfig(goldenRoot);
        config.maxCampaigns = 1;
        runner::CampaignService service(config);
        submit(goldenRoot, "good", kSmallSubmission);
        ASSERT_EQ(service.serve().completed, 1u);
    }
    const std::string golden =
        fileBytes(goldenRoot / "results" / "good.result");
    ASSERT_FALSE(golden.empty());

    // A million nested arrays would exhaust an unbounded recursive
    // parser's stack; it must cost one rejected file instead.
    const fs::path root = testDir("nested");
    runner::ServiceConfig config = fastConfig(root);
    config.maxCampaigns = 1;
    runner::CampaignService service(config);
    submit(root, "poison",
           std::string(1000000, '[') + std::string(1000000, ']'));
    submit(root, "good", kSmallSubmission);
    const runner::ServiceReport report = service.serve();
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.rejected, 1u);

    EXPECT_TRUE(fs::exists(root / "done" / "poison.rejected"));
    EXPECT_TRUE(fs::is_empty(root / "inbox"));
    EXPECT_EQ(statusField(root, "poison", "state"), "rejected");
    EXPECT_NE(statusField(root, "poison", "detail")
                  .find("nesting deeper than 64 levels"),
              std::string::npos)
        << statusField(root, "poison", "detail");
    EXPECT_EQ(fileBytes(root / "results" / "good.result"), golden);
    fs::remove_all(goldenRoot);
    fs::remove_all(root);
}

TEST(Service, InfeasibleDramTimingIsRejectedWhileOthersFinish)
{
    // 600-cycle commands cannot fit between two refreshes of the
    // default 1560-cycle interval at the 32 B/cycle channel width. That
    // check used to run only when the first layer built its channel -
    // a fatal exit mid-campaign that took the co-tenant down and left
    // the submission in active/ to crash every restart. It is now an
    // admission-time rejection.
    const fs::path goldenRoot = testDir("dram_timing_golden");
    {
        runner::ServiceConfig config = fastConfig(goldenRoot);
        config.maxCampaigns = 1;
        runner::CampaignService service(config);
        submit(goldenRoot, "good", kSmallSubmission);
        ASSERT_EQ(service.serve().completed, 1u);
    }
    const std::string golden =
        fileBytes(goldenRoot / "results" / "good.result");
    ASSERT_FALSE(golden.empty());

    const fs::path root = testDir("dram_timing");
    runner::ServiceConfig config = fastConfig(root);
    config.maxCampaigns = 1;
    runner::CampaignService service(config);
    submit(root, "bad",
           R"({"tenant": "bob", "density": "low", "episodes": 10,)"
           R"( "budget": 8, "backend": "dram", "camera_mbps": 100,)"
           R"( "dram_timing": "600:600:600"})");
    submit(root, "good", kSmallSubmission);
    const runner::ServiceReport report = service.serve();
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.rejected, 1u);

    EXPECT_TRUE(fs::exists(root / "done" / "bad.rejected"));
    EXPECT_TRUE(fs::is_empty(root / "active"));
    EXPECT_EQ(statusField(root, "bad", "state"), "rejected");
    EXPECT_NE(statusField(root, "bad", "detail").find("refresh"),
              std::string::npos)
        << statusField(root, "bad", "detail");
    EXPECT_EQ(fileBytes(root / "results" / "good.result"), golden);
    fs::remove_all(goldenRoot);
    fs::remove_all(root);
}

TEST(Service, InfeasibleContentionIsRejectedWhileOthersFinish)
{
    // A background load past the channel's peak with no QoS floor leaves
    // the contention backend no bandwidth. CycleEngine used to diagnose
    // that fatally in the first evaluation - the daemon exited, the
    // co-tenant's campaign was lost and both files stayed in active/.
    // It is now an admission-time rejection.
    const fs::path goldenRoot = testDir("contention_golden");
    {
        runner::ServiceConfig config = fastConfig(goldenRoot);
        config.maxCampaigns = 1;
        runner::CampaignService service(config);
        submit(goldenRoot, "good", kSmallSubmission);
        ASSERT_EQ(service.serve().completed, 1u);
    }
    const std::string golden =
        fileBytes(goldenRoot / "results" / "good.result");
    ASSERT_FALSE(golden.empty());

    const fs::path root = testDir("contention_infeasible");
    runner::ServiceConfig config = fastConfig(root);
    config.maxCampaigns = 1;
    runner::CampaignService service(config);
    submit(root, "bad",
           R"({"tenant": "bob", "density": "low", "episodes": 10,)"
           R"( "budget": 8, "backend": "contention",)"
           R"( "camera_mbps": 100000000, "npu_floor": 0})");
    submit(root, "good", kSmallSubmission);
    const runner::ServiceReport report = service.serve();
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.rejected, 1u);

    EXPECT_TRUE(fs::exists(root / "done" / "bad.rejected"));
    EXPECT_TRUE(fs::is_empty(root / "active"));
    EXPECT_EQ(statusField(root, "bad", "state"), "rejected");
    EXPECT_NE(statusField(root, "bad", "detail").find("no DRAM bandwidth"),
              std::string::npos)
        << statusField(root, "bad", "detail");
    EXPECT_EQ(fileBytes(root / "results" / "good.result"), golden);
    fs::remove_all(goldenRoot);
    fs::remove_all(root);
}

TEST(Service, OverflowingContentionFloorIsRejected)
{
    // A QoS floor of 1e-15 under a saturating camera stream is a valid
    // fraction, but the derated transfers would overflow int64 cycle
    // counts (UB, or silently fewer cycles than the ideal channel). It
    // is rejected at admission like a starved channel.
    const fs::path root = testDir("contention_overflow");
    runner::ServiceConfig config = fastConfig(root);
    config.maxCampaigns = 1;
    runner::CampaignService service(config);
    submit(root, "tiny",
           R"({"tenant": "bob", "density": "low", "episodes": 10,)"
           R"( "budget": 8, "backend": "contention",)"
           R"( "camera_mbps": 100000, "npu_floor": 1e-15})");
    const runner::ServiceReport report = service.serve();
    EXPECT_EQ(report.completed, 0u);
    EXPECT_EQ(report.rejected, 1u);
    EXPECT_TRUE(fs::exists(root / "done" / "tiny.rejected"));
    EXPECT_EQ(statusField(root, "tiny", "state"), "rejected");
    EXPECT_NE(statusField(root, "tiny", "detail").find("below the minimum"),
              std::string::npos)
        << statusField(root, "tiny", "detail");
    fs::remove_all(root);
}

TEST(Service, FairShareAdmissionRotatesAcrossTenants)
{
    const fs::path root = testDir("fairshare");
    const RemoveTreeOnExit removeRoot(root);
    runner::ServiceConfig config = fastConfig(root);
    // One slot: the admission ORDER is fully observable through the
    // per-campaign admission stamps.
    config.maxActiveCampaigns = 1;
    config.maxCampaigns = 3;
    runner::CampaignService service(config);

    // Alice submits a burst of two before Bob's single campaign ever
    // arrives; round-robin must still interleave Bob between them.
    submit(root, "alice-1", kSmallSubmission);
    submit(root, "alice-2", kSmallSubmission);
    submit(root, "bob-1",
           R"({"tenant": "bob", "episodes": 10, "budget": 8})");

    const runner::ServiceReport report = service.serve();
    EXPECT_EQ(report.completed, 3u);

    EXPECT_EQ(statusField(root, "alice-1", "admitted"), "0");
    EXPECT_EQ(statusField(root, "bob-1", "admitted"), "1")
        << "bob's single campaign must not wait out alice's burst";
    EXPECT_EQ(statusField(root, "alice-2", "admitted"), "2");
}

TEST(Service, CorruptActiveSubmissionIsRejectedUnderItsId)
{
    const fs::path root = testDir("corrupt_active");
    runner::ServiceConfig config = fastConfig(root);
    config.maxCampaigns = 1;
    fs::create_directories(root / "active");
    std::ofstream(root / "active" / "broken.json") << R"({"budget": 0})";

    const runner::ServiceReport report =
        runner::CampaignService(config).serve();
    EXPECT_EQ(report.rejected, 1u);
    EXPECT_EQ(statusField(root, "broken", "state"), "rejected");
    EXPECT_EQ(statusField(root, "broken", "detail"),
              "bad value for 'budget'");
    EXPECT_FALSE(fs::exists(root / "status" / ".status"));
    EXPECT_TRUE(fs::exists(root / "done" / "broken.rejected"));
    fs::remove_all(root);
}

TEST(Service, DuplicateIdIsRejectedAfterCompletion)
{
    const fs::path root = testDir("duplicate");
    const RemoveTreeOnExit removeRoot(root);
    runner::ServiceConfig config = fastConfig(root);
    config.maxCampaigns = 1;
    {
        runner::CampaignService service(config);
        submit(root, "exp", kSmallSubmission);
        EXPECT_EQ(service.serve().completed, 1u);
    }
    // Same id again: a completed campaign's result must never be
    // silently recomputed/overwritten. A fresh campaign rides along so
    // the bounded serve() has something to complete and exit on.
    {
        runner::CampaignService service(config);
        submit(root, "exp", kSmallSubmission);
        submit(root, "exp2", kSmallSubmission);
        const runner::ServiceReport report = service.serve();
        EXPECT_EQ(report.completed, 1u);
        EXPECT_EQ(report.rejected, 1u);
        EXPECT_NE(statusField(root, "exp", "detail").find("duplicate"),
                  std::string::npos);
        EXPECT_TRUE(fs::exists(root / "results" / "exp2.result"));
    }
}

TEST(Service, DrainInterruptsThenRestartResumesByteIdentical)
{
    // Golden: the same submission served uninterrupted in a fresh root.
    const fs::path goldenRoot = testDir("drain_golden");
    const RemoveTreeOnExit removeGolden(goldenRoot);
    const char *submission =
        R"({"tenant": "alice", "density": "low", "episodes": 10,)"
        R"( "budget": 16, "threads": 2})";
    {
        runner::ServiceConfig config = fastConfig(goldenRoot);
        config.maxCampaigns = 1;
        runner::CampaignService service(config);
        submit(goldenRoot, "exp", submission);
        ASSERT_EQ(service.serve().completed, 1u);
    }
    const std::string golden =
        fileBytes(goldenRoot / "results" / "exp.result");
    ASSERT_FALSE(golden.empty());

    // Drained run: cancel the stop source once the campaign has
    // journaled progress (or complete it, on a fast machine - the test
    // accepts either race outcome and verifies the invariant that
    // matters: the final result bytes match the golden run).
    const fs::path root = testDir("drain");
    const RemoveTreeOnExit removeRoot(root);
    util::CancelSource stop;
    runner::ServiceConfig config = fastConfig(root);
    config.stop = stop.token();
    runner::ServiceReport drained;
    runner::CampaignService service(config);
    std::thread server(
        [&] { drained = service.serve(); });

    submit(root, "exp", submission);
    const fs::path journal = root / "work" / "exp" / "exp" /
                             "journal.csv";
    for (int spins = 0; spins < 20000 && !fs::exists(journal); ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop.cancel();
    server.join();

    if (drained.interrupted == 1u) {
        // The campaign was caught mid-flight: it must still be in
        // active/ (resumable), with no result file yet.
        EXPECT_TRUE(fs::exists(root / "active" / "exp.json"));
        EXPECT_EQ(statusField(root, "exp", "state"), "interrupted");
        EXPECT_FALSE(fs::exists(root / "results" / "exp.result"));

        // Restart (no stop token): recovery picks the campaign out of
        // active/ and finishes it from its journal.
        runner::ServiceConfig restartConfig = fastConfig(root);
        restartConfig.maxCampaigns = 1;
        runner::CampaignService restarted(restartConfig);
        const runner::ServiceReport resumed = restarted.serve();
        EXPECT_EQ(resumed.admitted, 1u);
        EXPECT_EQ(resumed.completed, 1u);
    } else {
        // Too fast to interrupt - it completed before the drain.
        EXPECT_EQ(drained.completed, 1u);
    }

    EXPECT_EQ(fileBytes(root / "results" / "exp.result"), golden)
        << "resumed result must be byte-identical to an uninterrupted "
           "run";
    EXPECT_TRUE(fs::exists(root / "done" / "exp.json"));
}

TEST(Service, CompletionRefillsSlotWithoutPollTick)
{
    // A 30 s scan interval against campaigns of a few milliseconds: a
    // service that noticed completions only on its poll tick would
    // sleep a full tick per campaign. A finishing campaign must wake
    // it and refill the one slot at once.
    const fs::path root = testDir("refill");
    const RemoveTreeOnExit removeRoot(root);
    runner::ServiceConfig config = fastConfig(root);
    config.pollSeconds = 30.0;
    config.maxActiveCampaigns = 1;
    config.maxCampaigns = 3;
    runner::CampaignService service(config);
    submit(root, "alice-1", kSmallSubmission);
    submit(root, "alice-2", kSmallSubmission);
    submit(root, "bob-1",
           R"({"tenant": "bob", "episodes": 10, "budget": 8})");

    const auto start = std::chrono::steady_clock::now();
    const runner::ServiceReport report = service.serve();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_EQ(report.completed, 3u);
    EXPECT_LT(seconds, 15.0)
        << "a completion must not wait for the next inbox scan";
    for (const char *id : {"alice-1", "alice-2", "bob-1"})
        EXPECT_TRUE(fs::exists(root / "results" / (std::string(id) +
                                                   ".result")))
            << id;
}

TEST(Service, DeferredBookkeepingKeepsEveryTransition)
{
    // A closed two-tenant batch over two slots. The status and result
    // writes of each pass come after its admissions, yet every status
    // file must end on the third transition (queued, running, done)
    // with the fair-share stamps, and every result must match the same
    // batch served on a fast poll.
    const std::map<std::string, std::string> batch = {
        {"alice-1", kSmallSubmission},
        {"alice-2", kSmallSubmission},
        {"bob-1", R"({"tenant": "bob", "episodes": 10, "budget": 8})"},
        {"bob-2", R"({"tenant": "bob", "density": "medium",)"
                  R"( "episodes": 10, "budget": 8, "seed": 3})"},
    };
    const auto serveBatch = [&](const fs::path &root, double poll) {
        runner::ServiceConfig config = fastConfig(root);
        config.pollSeconds = poll;
        config.maxActiveCampaigns = 2;
        config.maxCampaigns = static_cast<int>(batch.size());
        runner::CampaignService service(config);
        for (const auto &[id, json] : batch)
            submit(root, id, json);
        return service.serve();
    };

    const fs::path goldenRoot = testDir("bookkeeping_golden");
    const RemoveTreeOnExit removeGolden(goldenRoot);
    ASSERT_EQ(serveBatch(goldenRoot, 0.005).completed, batch.size());
    const fs::path root = testDir("bookkeeping");
    const RemoveTreeOnExit removeRoot(root);
    ASSERT_EQ(serveBatch(root, 30.0).completed, batch.size());

    // Slots go alice, bob, then alternate from the cursor on bob.
    const std::map<std::string, std::string> stamps = {
        {"alice-1", "0"}, {"bob-1", "1"}, {"alice-2", "2"}, {"bob-2", "3"}};
    for (const auto &[id, json] : batch) {
        EXPECT_EQ(statusField(root, id, "seq"), "3") << id;
        EXPECT_EQ(statusField(root, id, "state"), "done") << id;
        EXPECT_EQ(statusField(root, id, "admitted"), stamps.at(id)) << id;
        EXPECT_EQ(statusField(root, id, "detail"), "-") << id;
        EXPECT_TRUE(fs::exists(root / "done" / (id + ".json"))) << id;
        const std::string result =
            fileBytes(root / "results" / (id + ".result"));
        EXPECT_FALSE(result.empty()) << id;
        EXPECT_EQ(result,
                  fileBytes(goldenRoot / "results" / (id + ".result")))
            << id;
    }
    EXPECT_TRUE(fs::is_empty(root / "inbox"));
    EXPECT_TRUE(fs::is_empty(root / "active"));
}

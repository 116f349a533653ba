/**
 * @file
 * Mission classes and the mission mix.
 *
 * A MissionProfile generalizes the hard-wired point-to-point nav run into
 * mission classes: point-to-point transit, a lawnmower search pattern
 * (lane length from area / spacing, with a course reversal per lane that
 * fixed wings pay turn radius for), and payload delivery (extra mass
 * carried outbound and dropped at the midpoint).
 *
 * A MissionMix is a weighted set of (airframe, mission) scenarios. The
 * weighted missions-per-charge across the mix becomes the Phase 2/3
 * selection objective, so one campaign answers "which SoC for this whole
 * fleet" instead of "which SoC for this one vehicle". An empty mix means
 * the legacy single quadrotor point-to-point scenario and keeps every
 * existing result byte-identical.
 */

#ifndef AUTOPILOT_UAV_MISSION_PROFILE_H
#define AUTOPILOT_UAV_MISSION_PROFILE_H

#include <string>
#include <vector>

#include "uav/airframe.h"

namespace autopilot::uav
{

/** What the vehicle does with its flight. */
enum class MissionClass
{
    PointToPoint,    ///< Transit a fixed distance (the legacy mission).
    SearchPattern,   ///< Lawnmower sweep over an area, then transit.
    PayloadDelivery, ///< Carry extra mass outbound, drop at midpoint.
};

/** Stable lower-case name ("nav", "search", "delivery") for CLI/JSON. */
std::string missionClassName(MissionClass mission_class);

/** Parse a mission-class name; returns false on unknown names. */
bool missionClassFromName(const std::string &name, MissionClass &out);

/** Parameters of one mission class instance. */
struct MissionProfile
{
    MissionClass missionClass = MissionClass::PointToPoint;
    /// Transit distance, meters; 0 uses the vehicle spec's
    /// missionDistanceM (which keeps the legacy default intact).
    double distanceM = 0.0;
    /// Search pattern: area swept and lane spacing (both > 0 for
    /// SearchPattern, unused otherwise). Lane length is area / spacing;
    /// each lane change is one course reversal.
    double searchAreaM2 = 0.0;
    double laneSpacingM = 0.0;
    /// Payload delivery: extra mass carried on the outbound leg and
    /// dropped at the midpoint, grams (> 0 for PayloadDelivery).
    double deliveryPayloadG = 0.0;

    /// True for the parameterless point-to-point profile whose
    /// evaluation is bit-identical to the legacy mission model.
    bool isDefaultPointToPoint() const;

    /** Non-fatal validation; false with a diagnostic on bad fields. */
    bool check(std::string &error) const;

    /** Abort via fatal() when check() fails. */
    void validate() const;
};

/** One weighted fleet scenario: an airframe flying a mission class. */
struct MissionScenario
{
    std::string name = "nav"; ///< CSV/report tag; [a-z0-9_-], unique.
    AirframeKind airframe = AirframeKind::Quadrotor;
    MissionProfile profile;
    /// Relative share in the fleet objective, in (0, MissionMix::maxWeight].
    double weight = 1.0;
};

/** The legacy scenario: quadrotor point-to-point at weight 1. */
MissionScenario defaultMissionScenario();

/** A weighted scenario set; empty means the legacy default scenario. */
struct MissionMix
{
    std::vector<MissionScenario> scenarios;

    /// Largest scenario weight check() accepts. Weights are relative
    /// shares, so the bound costs nothing, and it keeps the weighted
    /// sums of every scenario's missions and weights finite.
    static constexpr double maxWeight = 1e6;

    /// True when the mix is the implicit legacy single-quadrotor
    /// point-to-point workload (and fingerprints must not change).
    bool isDefault() const { return scenarios.empty(); }

    double totalWeight() const;

    /**
     * Short CSV-safe label for journal rows and reports: "-" for the
     * default mix, else scenario names joined with '+'.
     */
    std::string tag() const;

    /** Non-fatal validation; false with a diagnostic on bad fields. */
    bool check(std::string &error) const;

    /** Abort via fatal() when check() fails. */
    void validate() const;
};

/**
 * The scenarios a mix actually evaluates: the mix's own list, or the
 * single default scenario when the mix is empty.
 */
std::vector<MissionScenario> effectiveScenarios(const MissionMix &mix);

} // namespace autopilot::uav

#endif // AUTOPILOT_UAV_MISSION_PROFILE_H

#include "uav/mission_profile.h"

#include <cmath>
#include <set>

#include "util/logging.h"

namespace autopilot::uav
{

namespace
{

bool
finiteNonNegative(double value)
{
    return std::isfinite(value) && value >= 0.0;
}

bool
safeScenarioName(const std::string &name)
{
    if (name.empty() || name.size() > 32)
        return false;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

std::string
missionClassName(MissionClass mission_class)
{
    switch (mission_class) {
      case MissionClass::PointToPoint:    return "nav";
      case MissionClass::SearchPattern:   return "search";
      case MissionClass::PayloadDelivery: return "delivery";
    }
    return "?";
}

bool
missionClassFromName(const std::string &name, MissionClass &out)
{
    if (name == "nav" || name == "point-to-point") {
        out = MissionClass::PointToPoint;
        return true;
    }
    if (name == "search") {
        out = MissionClass::SearchPattern;
        return true;
    }
    if (name == "delivery") {
        out = MissionClass::PayloadDelivery;
        return true;
    }
    return false;
}

bool
MissionProfile::isDefaultPointToPoint() const
{
    return missionClass == MissionClass::PointToPoint && distanceM == 0.0;
}

bool
MissionProfile::check(std::string &error) const
{
    if (!finiteNonNegative(distanceM)) {
        error = "mission distance must be finite and >= 0";
        return false;
    }
    switch (missionClass) {
      case MissionClass::PointToPoint:
        break;
      case MissionClass::SearchPattern:
        if (!std::isfinite(searchAreaM2) || searchAreaM2 <= 0.0) {
            error = "search pattern needs area_m2 > 0";
            return false;
        }
        if (!std::isfinite(laneSpacingM) || laneSpacingM <= 0.0) {
            error = "search pattern needs spacing_m > 0";
            return false;
        }
        break;
      case MissionClass::PayloadDelivery:
        if (!std::isfinite(deliveryPayloadG) || deliveryPayloadG <= 0.0) {
            error = "payload delivery needs payload_g > 0";
            return false;
        }
        break;
    }
    return true;
}

void
MissionProfile::validate() const
{
    std::string error;
    util::fatalIf(!check(error), "MissionProfile: " + error);
}

MissionScenario
defaultMissionScenario()
{
    return MissionScenario{};
}

double
MissionMix::totalWeight() const
{
    double total = 0.0;
    for (const MissionScenario &scenario : scenarios)
        total += scenario.weight;
    return total;
}

std::string
MissionMix::tag() const
{
    if (isDefault())
        return "-";
    std::string tag;
    for (const MissionScenario &scenario : scenarios) {
        if (!tag.empty())
            tag += '+';
        tag += scenario.name;
    }
    return tag;
}

bool
MissionMix::check(std::string &error) const
{
    std::set<std::string> names;
    for (const MissionScenario &scenario : scenarios) {
        if (!safeScenarioName(scenario.name)) {
            error = "scenario name '" + scenario.name +
                    "' must be 1-32 chars of [a-z0-9_-]";
            return false;
        }
        if (!names.insert(scenario.name).second) {
            error = "duplicate scenario name '" + scenario.name + "'";
            return false;
        }
        if (!(scenario.weight > 0.0 && scenario.weight <= maxWeight)) {
            error = "scenario '" + scenario.name +
                    "' weight must be in (0, 1e6]";
            return false;
        }
        std::string profile_error;
        if (!scenario.profile.check(profile_error)) {
            error = "scenario '" + scenario.name + "': " + profile_error;
            return false;
        }
    }
    return true;
}

void
MissionMix::validate() const
{
    std::string error;
    util::fatalIf(!check(error), "MissionMix: " + error);
}

std::vector<MissionScenario>
effectiveScenarios(const MissionMix &mix)
{
    if (mix.isDefault())
        return {defaultMissionScenario()};
    return mix.scenarios;
}

} // namespace autopilot::uav

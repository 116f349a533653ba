/**
 * @file
 * Domain-randomized environment generator (the Air Learning environment
 * generator [1], [43] substitute).
 *
 * Three deployment complexities follow Section V-A: the low-obstacle
 * scenario places four randomly-positioned obstacles with a random goal;
 * the medium scenario has four fixed obstacles plus up to three random
 * ones; the dense scenario has four fixed obstacles plus up to five random
 * ones (with larger obstacle radii). Every episode re-randomizes obstacle
 * positions, sizes and the goal, which is the domain-randomization [83]
 * mechanism that forces trained policies to generalize.
 */

#ifndef AUTOPILOT_AIRLEARNING_ENVIRONMENT_H
#define AUTOPILOT_AIRLEARNING_ENVIRONMENT_H

#include <string>
#include <vector>

#include "util/rng.h"

namespace autopilot::airlearning
{

/** Deployment-scenario complexity (Section V-A). */
enum class ObstacleDensity
{
    Low,
    Medium,
    Dense,
};

/** Human-readable scenario name. */
std::string densityName(ObstacleDensity density);

/** The density densityName() calls @p name; false when none does. */
bool densityFromName(const std::string &name, ObstacleDensity &out);

/** All three scenarios in {Low, Medium, Dense} order. */
std::vector<ObstacleDensity> allDensities();

/** A circular obstacle in the 2-D arena. */
struct Obstacle
{
    double x = 0.0;
    double y = 0.0;
    double radius = 1.0;
    /// Visually hard cases (glare, texture-matched surfaces): detectable
    /// only at very short range regardless of policy quality. These set
    /// the task's achievable success ceiling, mirroring the sub-100%
    /// ceilings reported for trained agents in the robotics literature.
    bool camouflaged = false;
};

/** 2-D position. */
struct Vec2
{
    double x = 0.0;
    double y = 0.0;
};

/** One generated episode environment. */
struct Environment
{
    double arenaSize = 30.0; ///< Square arena side, meters.
    std::vector<Obstacle> obstacles;
    Vec2 start;
    Vec2 goal;

    /** Distance from a point to the nearest obstacle surface (can be
     * negative when inside an obstacle). */
    double clearance(double x, double y) const;
};

/** Generator configuration for one scenario. */
struct EnvironmentConfig
{
    ObstacleDensity density = ObstacleDensity::Low;
    double arenaSize = 30.0;
    int fixedObstacles = 0;     ///< Grid-placed obstacles.
    int maxRandomObstacles = 4; ///< Up to this many random obstacles.
    double minRadius = 0.6;
    double maxRadius = 1.0;
    double goalDistance = 22.0; ///< Start-to-goal separation.
    double camouflageProb = 0.06; ///< Chance an obstacle is hard to see.

    /** Scenario presets per Section V-A. */
    static EnvironmentConfig forDensity(ObstacleDensity density);
};

/**
 * Environment generator with domain randomization.
 *
 * Deterministic: the same seed sequence yields the same episodes.
 */
class EnvironmentGenerator
{
  public:
    /** @param config Scenario configuration. */
    explicit EnvironmentGenerator(const EnvironmentConfig &config);

    /**
     * Generate one randomized episode.
     *
     * Guarantees the start and goal positions are outside all obstacles.
     *
     * @param rng Random stream for this episode.
     */
    Environment generate(util::Rng &rng) const;

    const EnvironmentConfig &config() const { return cfg; }

  private:
    EnvironmentConfig cfg;
};

} // namespace autopilot::airlearning

#endif // AUTOPILOT_AIRLEARNING_ENVIRONMENT_H

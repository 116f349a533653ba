#include "airlearning/environment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace autopilot::airlearning
{

std::string
densityName(ObstacleDensity density)
{
    switch (density) {
      case ObstacleDensity::Low:    return "low";
      case ObstacleDensity::Medium: return "medium";
      case ObstacleDensity::Dense:  return "dense";
    }
    return "?";
}

bool
densityFromName(const std::string &name, ObstacleDensity &out)
{
    for (const ObstacleDensity density : allDensities()) {
        if (densityName(density) == name) {
            out = density;
            return true;
        }
    }
    return false;
}

std::vector<ObstacleDensity>
allDensities()
{
    return {ObstacleDensity::Low, ObstacleDensity::Medium,
            ObstacleDensity::Dense};
}

double
Environment::clearance(double x, double y) const
{
    double best = std::numeric_limits<double>::max();
    for (const Obstacle &obstacle : obstacles) {
        const double dx = x - obstacle.x;
        const double dy = y - obstacle.y;
        const double dist = std::sqrt(dx * dx + dy * dy) - obstacle.radius;
        best = std::min(best, dist);
    }
    return best;
}

EnvironmentConfig
EnvironmentConfig::forDensity(ObstacleDensity density)
{
    EnvironmentConfig config;
    config.density = density;
    switch (density) {
      case ObstacleDensity::Low:
        config.fixedObstacles = 0;
        config.maxRandomObstacles = 4;
        config.minRadius = 0.6;
        config.maxRadius = 1.0;
        config.camouflageProb = 0.05;
        break;
      case ObstacleDensity::Medium:
        config.fixedObstacles = 4;
        config.maxRandomObstacles = 3;
        config.minRadius = 0.8;
        config.maxRadius = 1.4;
        config.camouflageProb = 0.08;
        break;
      case ObstacleDensity::Dense:
        config.fixedObstacles = 4;
        config.maxRandomObstacles = 5;
        config.minRadius = 0.9;
        config.maxRadius = 1.5;
        config.camouflageProb = 0.11;
        break;
    }
    return config;
}

EnvironmentGenerator::EnvironmentGenerator(const EnvironmentConfig &config)
    : cfg(config)
{
    using util::fatalIf;
    fatalIf(cfg.arenaSize <= 0.0,
            "EnvironmentGenerator: arena size must be positive");
    fatalIf(cfg.minRadius <= 0.0 || cfg.maxRadius < cfg.minRadius,
            "EnvironmentGenerator: bad obstacle radius range");
    fatalIf(cfg.fixedObstacles < 0 || cfg.maxRandomObstacles < 0,
            "EnvironmentGenerator: negative obstacle counts");
    fatalIf(cfg.goalDistance <= 0.0 ||
                cfg.goalDistance > cfg.arenaSize * 1.4143,
            "EnvironmentGenerator: goal distance outside the arena");
}

Environment
EnvironmentGenerator::generate(util::Rng &rng) const
{
    Environment env;
    env.arenaSize = cfg.arenaSize;

    // Start near one corner; goal at the configured separation along the
    // diagonal, jittered so every episode differs.
    env.start = {2.0, 2.0};
    const double angle = rng.uniform(M_PI / 6.0, M_PI / 3.0);
    env.goal = {env.start.x + cfg.goalDistance * std::cos(angle),
                env.start.y + cfg.goalDistance * std::sin(angle)};
    env.goal.x = std::min(env.goal.x, cfg.arenaSize - 2.0);
    env.goal.y = std::min(env.goal.y, cfg.arenaSize - 2.0);

    auto blocks_endpoint = [&](const Obstacle &obstacle) {
        auto covers = [&](const Vec2 &point) {
            const double dx = point.x - obstacle.x;
            const double dy = point.y - obstacle.y;
            return std::sqrt(dx * dx + dy * dy) < obstacle.radius + 1.2;
        };
        return covers(env.start) || covers(env.goal);
    };

    // A minimum surface-to-surface gap keeps every environment passable:
    // the domain randomization must produce hard tasks, not impossible
    // ones (Air Learning regenerates unsolvable arenas the same way).
    const double min_gap = 1.5;
    auto too_close = [&](const Obstacle &obstacle) {
        for (const Obstacle &existing : env.obstacles) {
            const double dx = obstacle.x - existing.x;
            const double dy = obstacle.y - existing.y;
            const double gap = std::sqrt(dx * dx + dy * dy) -
                               obstacle.radius - existing.radius;
            if (gap < min_gap)
                return true;
        }
        return false;
    };

    // Obstacles populate the flight corridor between start and goal so
    // every episode actually exercises the avoidance policy (an obstacle
    // in a far corner of the arena tests nothing).
    const double dir_x = env.goal.x - env.start.x;
    const double dir_y = env.goal.y - env.start.y;
    const double corridor_len =
        std::sqrt(dir_x * dir_x + dir_y * dir_y);
    const double ux = dir_x / corridor_len;
    const double uy = dir_y / corridor_len;
    const double px = -uy; // Perpendicular unit vector.
    const double py = ux;

    auto corridor_point = [&](double along, double lateral) {
        Vec2 point;
        point.x = env.start.x + along * corridor_len * ux + lateral * px;
        point.y = env.start.y + along * corridor_len * uy + lateral * py;
        point.x = std::clamp(point.x, 1.0, cfg.arenaSize - 1.0);
        point.y = std::clamp(point.y, 1.0, cfg.arenaSize - 1.0);
        return point;
    };

    // Fixed obstacles: deterministic stations along the corridor with
    // alternating lateral offsets; radii are still randomized (the
    // paper's "four fixed" refers to placement).
    for (int i = 0; i < cfg.fixedObstacles; ++i) {
        const double along =
            0.25 + 0.6 * static_cast<double>(i) /
                       std::max(cfg.fixedObstacles - 1, 1);
        const double lateral = (i % 2 == 0 ? 1.0 : -1.0) * 1.5;
        const Vec2 at = corridor_point(along, lateral);
        Obstacle obstacle;
        obstacle.x = at.x;
        obstacle.y = at.y;
        obstacle.radius = rng.uniform(cfg.minRadius, cfg.maxRadius);
        obstacle.camouflaged = rng.bernoulli(cfg.camouflageProb);
        if (!blocks_endpoint(obstacle) && !too_close(obstacle))
            env.obstacles.push_back(obstacle);
    }

    // Randomly placed obstacles: count is itself randomized ("up to N"),
    // positions scattered across the corridor band.
    const int random_count =
        cfg.maxRandomObstacles > 0
            ? rng.uniformInt(cfg.fixedObstacles > 0 ? 1 : 2,
                             cfg.maxRandomObstacles)
            : 0;
    int placed = 0;
    int attempts = 0;
    while (placed < random_count && attempts < 200) {
        ++attempts;
        const double along = rng.uniform(0.15, 0.92);
        const double lateral = rng.uniform(-3.5, 3.5);
        const Vec2 at = corridor_point(along, lateral);
        Obstacle obstacle;
        obstacle.x = at.x;
        obstacle.y = at.y;
        obstacle.radius = rng.uniform(cfg.minRadius, cfg.maxRadius);
        obstacle.camouflaged = rng.bernoulli(cfg.camouflageProb);
        if (blocks_endpoint(obstacle) || too_close(obstacle))
            continue;
        env.obstacles.push_back(obstacle);
        ++placed;
    }

    return env;
}

} // namespace autopilot::airlearning

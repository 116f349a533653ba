/**
 * @file
 * Fixtures several test binaries share: the Phase 1 policy database of
 * the dense scenario, and distinct random encodings of the default
 * design space. Header-only; each binary trains its database once.
 */

#ifndef AUTOPILOT_TESTS_SHARED_FIXTURES_H
#define AUTOPILOT_TESTS_SHARED_FIXTURES_H

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "airlearning/trainer.h"
#include "dse/design_space.h"
#include "nn/e2e_template.h"
#include "util/rng.h"

namespace autopilot::fixtures
{

/** Every policy trained for the dense scenario (40 validation
 * episodes), once per test binary. */
inline const airlearning::PolicyDatabase &
sharedDatabase()
{
    static const airlearning::PolicyDatabase db = [] {
        airlearning::TrainerConfig config;
        config.validationEpisodes = 40;
        const airlearning::Trainer trainer(config);
        airlearning::PolicyDatabase built;
        trainer.trainAll(nn::PolicySpace(),
                         airlearning::ObstacleDensity::Dense, built);
        return built;
    }();
    return db;
}

/** @p count distinct random encodings of the default space. */
inline std::vector<dse::Encoding>
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

} // namespace autopilot::fixtures

#endif // AUTOPILOT_TESTS_SHARED_FIXTURES_H

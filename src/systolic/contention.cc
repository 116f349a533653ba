#include "systolic/contention.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace autopilot::systolic
{

double
ContentionProfile::derate(const AcceleratorConfig &config) const
{
    const double peak_bytes_per_sec =
        static_cast<double>(config.dramBytesPerCycle) *
        config.clockGhz * 1e9;
    const double share = 1.0 - totalBytesPerSec() / peak_bytes_per_sec;
    return std::max(share, npuFloorFraction);
}

std::string
ContentionProfile::invalidReason() const
{
    std::ostringstream what;
    // !(x >= 0) instead of x < 0: NaN rates must not slip through.
    if (!(cameraBytesPerSec >= 0.0) || !std::isfinite(cameraBytesPerSec))
        what << "camera rate must be finite and >= 0 (got "
             << cameraBytesPerSec << " B/s)";
    else if (!(hostBytesPerSec >= 0.0) || !std::isfinite(hostBytesPerSec))
        what << "host rate must be finite and >= 0 (got "
             << hostBytesPerSec << " B/s)";
    else if (!(npuFloorFraction >= 0.0) || npuFloorFraction >= 1.0)
        what << "QoS floor outside [0, 1) (got " << npuFloorFraction
             << ")";
    return what.str();
}

std::string
ContentionProfile::infeasibleReason(const AcceleratorConfig &config) const
{
    std::string reason = invalidReason();
    const double share = derate(config);
    if (!reason.empty() || share >= minDerate)
        return reason;
    std::ostringstream what;
    if (share > 0.0)
        what << "NPU bandwidth share " << share << " below the minimum "
             << minDerate << " (background " << totalBytesPerSec()
             << " B/s, QoS floor " << npuFloorFraction
             << ") - cycle counts would overflow";
    else
        what << "no DRAM bandwidth left to the NPU (background "
             << totalBytesPerSec() << " B/s >= peak "
             << static_cast<double>(config.dramBytesPerCycle) *
                    config.clockGhz * 1e9
             << " B/s and no QoS floor)";
    what << " - raise npuFloorFraction or lower the background load";
    return what.str();
}

void
ContentionProfile::validate() const
{
    const std::string reason = invalidReason();
    util::fatalIf(!reason.empty(), "ContentionProfile: " + reason);
}

} // namespace autopilot::systolic

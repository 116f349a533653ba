#include "dram/config.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace autopilot::dram
{

namespace
{

bool
safeGeneratorName(const std::string &name)
{
    if (name.empty() || name.size() > 32)
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::uint32_t
fnv32(const std::string &text)
{
    std::uint32_t hash = 0x811c9dc5u;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x01000193u;
    }
    return hash;
}

} // namespace

std::string
rowPolicyName(RowPolicy policy)
{
    switch (policy) {
      case RowPolicy::Open:   return "open";
      case RowPolicy::Closed: return "closed";
    }
    return "?";
}

bool
rowPolicyFromName(const std::string &name, RowPolicy &policy)
{
    if (name == "open")
        policy = RowPolicy::Open;
    else if (name == "closed")
        policy = RowPolicy::Closed;
    else
        return false;
    return true;
}

bool
DramSpec::enabled() const
{
    return backgroundBytesPerSec() > 0.0;
}

double
DramSpec::backgroundBytesPerSec() const
{
    double total = 0.0;
    for (const TrafficGeneratorSpec &generator : generators)
        total += generator.bytesPerSec;
    return total;
}

std::string
DramSpec::infeasibleReason() const
{
    std::ostringstream what;
    if (timing.banks <= 0) {
        what << "bank count must be >= 1 (got " << timing.banks
             << ") - a channel with no banks has nowhere to put a row";
        return what.str();
    }
    if (timing.banks > kMaxBanks) {
        what << "bank count " << timing.banks << " exceeds " << kMaxBanks
             << " - no DRAM channel has that many banks";
        return what.str();
    }
    if (timing.rowBytes <= 0 || timing.burstBytes <= 0) {
        what << "row size (" << timing.rowBytes << " B) and burst size ("
             << timing.burstBytes << " B) must be positive";
        return what.str();
    }
    if (timing.rowBytes > kMaxRowBytes) {
        what << "row size " << timing.rowBytes << " B exceeds "
             << kMaxRowBytes << " B - no DRAM page is that large";
        return what.str();
    }
    if (timing.burstBytes > timing.rowBytes) {
        what << "burst size " << timing.burstBytes
             << " B exceeds the row buffer (" << timing.rowBytes
             << " B) - a single request would span rows";
        return what.str();
    }
    if (timing.tCasCycles <= 0 || timing.tRcdCycles <= 0 ||
        timing.tRpCycles <= 0) {
        what << "command latencies must be positive (tCAS "
             << timing.tCasCycles << ", tRCD " << timing.tRcdCycles
             << ", tRP " << timing.tRpCycles
             << " cycles) - zero-latency commands collapse the row "
                "hit/miss/conflict distinction the model exists for";
        return what.str();
    }
    const std::pair<const char *, std::int64_t> cycleFields[] = {
        {"tCAS", timing.tCasCycles},   {"tRCD", timing.tRcdCycles},
        {"tRP", timing.tRpCycles},     {"tREFI", timing.tRefiCycles},
        {"tRFC", timing.tRfcCycles},
    };
    for (const auto &[field, cycles] : cycleFields) {
        if (cycles > kMaxTimingCycles) {
            what << "timing field " << field << " (" << cycles
                 << " cycles) exceeds " << kMaxTimingCycles
                 << " cycles - longer than a DRAM's whole retention "
                    "window, and large enough to overflow the "
                    "channel's cycle arithmetic";
            return what.str();
        }
    }
    if (timing.tRefiCycles <= 0 || timing.tRfcCycles < 0) {
        what << "refresh interval tREFI (" << timing.tRefiCycles
             << ") must be positive and stall tRFC ("
             << timing.tRfcCycles << ") non-negative";
        return what.str();
    }
    if (timing.tRefiCycles <= timing.tRfcCycles) {
        what << "refresh interval tREFI (" << timing.tRefiCycles
             << " cycles) is no longer than the refresh stall tRFC ("
             << timing.tRfcCycles
             << " cycles) - the channel would spend all time refreshing "
                "and never make progress";
        return what.str();
    }
    for (const TrafficGeneratorSpec &generator : generators) {
        if (!safeGeneratorName(generator.name)) {
            what << "traffic-generator name '" << generator.name
                 << "' must be 1-32 chars of [a-z0-9_-]";
            return what.str();
        }
        if (!(generator.bytesPerSec >= 0.0) ||
            !std::isfinite(generator.bytesPerSec)) {
            what << "traffic generator '" << generator.name
                 << "' rate must be finite and >= 0";
            return what.str();
        }
        if (!(generator.randomness >= 0.0) ||
            !(generator.randomness <= 1.0)) {
            what << "traffic generator '" << generator.name
                 << "' randomness must be in [0, 1]";
            return what.str();
        }
        if (generator.strideBytes <= 0) {
            what << "traffic generator '" << generator.name
                 << "' stride must be >= 1 byte";
            return what.str();
        }
        if (generator.addressBase < 0 ||
            generator.addressRange < timing.burstBytes ||
            generator.addressRange >
                std::numeric_limits<std::int64_t>::max() -
                    generator.addressBase) {
            what << "traffic generator '" << generator.name
                 << "' address window must be non-negative, at least "
                    "one burst wide and inside the 64-bit address space";
            return what.str();
        }
    }
    return {};
}

std::string
DramSpec::infeasibleReasonAt(std::int64_t bytesPerCycle) const
{
    std::string reason = infeasibleReason();
    if (!reason.empty())
        return reason;
    std::ostringstream what;
    if (bytesPerCycle <= 0) {
        what << "channel width must be >= 1 byte per cycle (got "
             << bytesPerCycle << ")";
        return what.str();
    }
    // Every term is bounded by kMaxTimingCycles or by the burst size,
    // so the sum cannot overflow.
    const std::int64_t worstBurst =
        timing.tRpCycles + timing.tRcdCycles + timing.tCasCycles +
        (timing.burstBytes + bytesPerCycle - 1) / bytesPerCycle;
    if (timing.tRefiCycles <= timing.tRfcCycles + worstBurst) {
        what << "refresh interval tREFI (" << timing.tRefiCycles
             << " cycles) is no longer than one refresh stall plus one "
                "worst-case burst ("
             << timing.tRfcCycles << " + " << worstBurst
             << " cycles at " << bytesPerCycle
             << " B/cycle) - the channel can never make progress "
                "between refreshes; raise tREFI or shrink the burst";
        return what.str();
    }
    return {};
}

void
DramSpec::validate() const
{
    const std::string reason = infeasibleReason();
    util::fatalIf(!reason.empty(), "DramSpec: " + reason);
}

std::string
DramSpec::fingerprintText() const
{
    std::ostringstream key;
    key.precision(17);
    key << timing.banks << '|' << timing.rowBytes << '|'
        << timing.burstBytes << '|' << timing.tCasCycles << '|'
        << timing.tRcdCycles << '|' << timing.tRpCycles << '|'
        << timing.tRefiCycles << '|' << timing.tRfcCycles << '|'
        << rowPolicyName(timing.rowPolicy);
    for (const TrafficGeneratorSpec &generator : generators) {
        key << "|gen|" << generator.name << '|' << generator.bytesPerSec
            << '|' << generator.strideBytes << '|'
            << generator.randomness << '|' << generator.seed << '|'
            << generator.addressBase << '|' << generator.addressRange
            << '|' << (generator.write ? 1 : 0);
    }
    return key.str();
}

std::string
DramSpec::tag() const
{
    if (!enabled())
        return "-";
    std::ostringstream os;
    os << 'b' << timing.banks
       << (timing.rowPolicy == RowPolicy::Open ? 'o' : 'c') << '-'
       << std::hex << fnv32(fingerprintText());
    return os.str();
}

bool
parseDramTiming(const std::string &text, DramTiming &timing,
                std::string &error)
{
    // Split on every ':' so an empty field (leading, doubled or
    // trailing separator) is a field of its own and gets rejected.
    std::vector<std::string> tokens(1);
    for (const char c : text) {
        if (c == ':')
            tokens.emplace_back();
        else
            tokens.back() += c;
    }
    if (tokens.size() != 3 && tokens.size() != 5) {
        error = "want tCAS:tRCD:tRP[:tREFI:tRFC], got '" + text + "'";
        return false;
    }
    std::vector<std::int64_t> fields;
    for (const std::string &token : tokens) {
        // Plain digits only: std::stoll alone would accept leading
        // whitespace and a sign.
        bool ok = !token.empty() &&
                  std::all_of(token.begin(), token.end(), [](char c) {
                      return c >= '0' && c <= '9';
                  });
        std::int64_t value = 0;
        try {
            if (ok)
                value = std::stoll(token);
        } catch (const std::out_of_range &) {
            ok = false;
        }
        if (!ok) {
            error = "bad cycle count '" + token + "' in '" + text + "'";
            return false;
        }
        fields.push_back(value);
    }
    timing.tCasCycles = fields[0];
    timing.tRcdCycles = fields[1];
    timing.tRpCycles = fields[2];
    if (fields.size() == 5) {
        timing.tRefiCycles = fields[3];
        timing.tRfcCycles = fields[4];
    }
    return true;
}

DramSpec
uavDramSpec(const DramTiming &timing, double cameraBytesPerSec,
            double hostBytesPerSec, double hostRandomness)
{
    DramSpec spec;
    spec.timing = timing;
    if (cameraBytesPerSec > 0.0) {
        TrafficGeneratorSpec camera;
        camera.name = "camera";
        camera.bytesPerSec = cameraBytesPerSec;
        camera.strideBytes = timing.burstBytes;
        camera.randomness = 0.0;
        camera.seed = 0xCA3E5A;
        camera.addressBase = 1ll << 30;
        camera.write = true; // Sensor frames stream into memory.
        spec.generators.push_back(camera);
    }
    if (hostBytesPerSec > 0.0) {
        TrafficGeneratorSpec host;
        host.name = "host";
        host.bytesPerSec = hostBytesPerSec;
        host.strideBytes = timing.burstBytes;
        host.randomness = hostRandomness;
        host.seed = 0x505731;
        host.addressBase = 2ll << 30;
        spec.generators.push_back(host);
    }
    return spec;
}

} // namespace autopilot::dram

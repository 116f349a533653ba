/**
 * @file
 * Reproduces Fig. 11: UAV agility increases the compute-throughput
 * requirement.
 *
 * Both vehicles carry 60 FPS sensors (to avoid being sensor-bound) and an
 * AutoPilot-class compute payload. The F-1 model gives each vehicle's
 * knee point: the paper reports ~27 Hz for the DJI Spark and ~46 Hz for
 * the more agile nano-UAV, i.e., the nano needs roughly 2x the compute
 * throughput of the Spark to maximize its safe velocity.
 */

#include <iostream>

#include "power/mass_model.h"
#include "uav/airframe.h"
#include "uav/propulsion.h"
#include "uav/uav_spec.h"
#include "util/table.h"

using namespace autopilot;

int
main()
{
    std::cout << "=== Fig. 11: UAV agility vs. compute requirement ===\n";
    std::cout << "(60 FPS sensor on both UAVs; AutoPilot-class compute "
                 "payload)\n\n";

    const power::MassModel mass_model;
    struct Case
    {
        uav::UavSpec spec;
        double npuPowerW;
    };
    const Case cases[] = {
        {uav::djiSpark(), 1.5},
        {uav::zhangNano(), 0.7},
    };

    util::Table table({"UAV", "payload (g)", "max accel (m/s^2)",
                       "v ceiling (m/s)", "knee point (Hz)"});
    double knee_spark = 0.0, knee_nano = 0.0;
    for (const Case &c : cases) {
        const double payload =
            mass_model.computePayloadGrams(c.npuPowerW);
        const uav::QuadrotorAirframe quad(c.spec);
        const double mass = quad.totalMassGrams(payload);
        const double accel = uav::maxAccelerationMps2(c.spec, mass);
        const double knee = quad.kneeThroughputHz(mass);
        table.addRow({c.spec.name, util::formatDouble(payload, 1),
                      util::formatDouble(accel, 1),
                      util::formatDouble(quad.velocityCeilingMps(mass), 1),
                      util::formatDouble(knee, 1)});
        if (c.spec.uavClass == uav::UavClass::Micro)
            knee_spark = knee;
        else
            knee_nano = knee;
    }
    table.print(std::cout);

    std::cout << "\nNano/Spark knee-point ratio: "
              << util::formatRatio(knee_nano / knee_spark)
              << " (paper: ~46 Hz vs ~27 Hz, about 1.7-2x)\n";

    // F-1 curves (Fig. 11a): safe velocity vs action throughput.
    std::cout << "\nF-1 curves (velocity m/s at throughput Hz):\n";
    util::Table curve({"throughput (Hz)", "DJI Spark", "nano-UAV"});
    const uav::QuadrotorAirframe spark(cases[0].spec);
    const uav::QuadrotorAirframe nano(cases[1].spec);
    const double spark_mass = spark.totalMassGrams(
        mass_model.computePayloadGrams(cases[0].npuPowerW));
    const double nano_mass = nano.totalMassGrams(
        mass_model.computePayloadGrams(cases[1].npuPowerW));
    for (double hz : {5.0, 10.0, 20.0, 27.0, 35.0, 46.0, 60.0, 90.0}) {
        curve.addRow(
            {util::formatDouble(hz, 0),
             util::formatDouble(spark.safeVelocityMps(hz, spark_mass), 2),
             util::formatDouble(nano.safeVelocityMps(hz, nano_mass), 2)});
    }
    curve.print(std::cout);
    return 0;
}

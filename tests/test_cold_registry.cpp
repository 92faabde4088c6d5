/**
 * @file
 * Cold-start registry test: the first controllers and traffic sources
 * of a process are built concurrently by sweep workers, so the
 * builtin organization and traffic-source registrations must be
 * complete before any worker resolves a name.  This file holds a
 * single test so that, even when the binary runs as a whole, the
 * registries are cold when the sweep starts.  The sanitizer CI leg
 * runs it under TSan.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "dramcache/organization.hpp"
#include "sim/sweep.hpp"
#include "trace/source.hpp"

using namespace accord;

namespace
{

Config
fastCli(unsigned jobs)
{
    Config cli;
    cli.parseArg("scale=4096");
    cli.parseArg("cores=2");
    cli.parseArg("warm=2000");
    cli.parseArg("measure=500");
    cli.parseArg("jobs=" + std::to_string(jobs));
    return cli;
}

} // namespace

TEST(ColdRegistry, FourJobSweepMatchesSerial)
{
    const std::vector<std::string> workloads = {"libq", "mcf", "lbm",
                                                "nekbone"};
    const std::vector<std::string> configs = {"ca", "2way-pws+gws"};

    // Nothing in this process has touched either registry yet.
    ASSERT_TRUE(dramcache::organizationRegistry().names().empty());
    ASSERT_TRUE(trace::trafficSourceRegistry().names().empty());

    const auto wide = sim::SweepRunner(fastCli(4)).runFunctionalGrid(
        workloads, configs, fastCli(4));
    const auto serial = sim::SweepRunner(fastCli(1)).runFunctionalGrid(
        workloads, configs, fastCli(1));

    for (const std::string &config : configs) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            EXPECT_EQ(serial.at(config).at(w).hitRate,
                      wide.at(config).at(w).hitRate);
            EXPECT_EQ(serial.at(config).at(w).wpAccuracy,
                      wide.at(config).at(w).wpAccuracy);
        }
    }
    EXPECT_EQ(dramcache::organizationRegistry().names(),
              (std::vector<std::string>{"ca", "set_assoc"}));
    EXPECT_EQ(trace::trafficSourceRegistry().names(),
              (std::vector<std::string>{"cyclic", "synthetic", "trace"}));
}

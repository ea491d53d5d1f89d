// TelemetryScope::FromFlags at the command-line trust boundary: a
// --metrics-port outside [0, 65535] or a --metrics-linger that is negative
// or not finite must be logged as an Error naming the flag and its value,
// and must start neither the exporter nor the linger (a failed bind is
// handled the same way). A valid port 0 still serves on an ephemeral port.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/flags.h"
#include "util/telemetry/telemetry.h"

namespace landmark {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (std::string& arg : args) argv.push_back(arg.data());
  Result<Flags> flags = Flags::Parse(static_cast<int>(argv.size()),
                                     argv.data());
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  return *flags;
}

TEST(TelemetryScopeTest, OutOfRangeMetricsFlagsStartNoExporter) {
  const struct {
    std::vector<std::string> args;
    std::string logged;
  } cases[] = {
      {{"--metrics-port=70000"}, "--metrics-port 70000"},
      {{"--metrics-port=-1"}, "--metrics-port -1"},
      {{"--metrics-port=0", "--metrics-linger=inf"}, "--metrics-linger inf"},
      {{"--metrics-port=0", "--metrics-linger=-0.5"},
       "--metrics-linger -0.5"},
  };
  for (const auto& c : cases) {
    const Flags flags = ParseArgs(c.args);
    ::testing::internal::CaptureStderr();
    TelemetryScope scope = TelemetryScope::FromFlags(flags);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find(c.logged), std::string::npos) << log;
    if (scope.exporter() != nullptr) {
      ADD_FAILURE() << c.logged << " started an exporter on port "
                    << scope.exporter()->port();
      // Finishing would linger for as long as the flag asked (forever for
      // `inf`), so abandon the scope instead.
      new TelemetryScope(std::move(scope));
    }
  }
}

TEST(TelemetryScopeTest, PortZeroServesOnAnEphemeralPort) {
  const Flags flags = ParseArgs({"--metrics-port=0"});
  ::testing::internal::CaptureStderr();
  TelemetryScope scope = TelemetryScope::FromFlags(flags);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_NE(scope.exporter(), nullptr) << log;
  EXPECT_NE(scope.exporter()->port(), 0);
  EXPECT_EQ(log.find("--metrics-"), std::string::npos) << log;
  scope.Finish();
  EXPECT_EQ(scope.exporter(), nullptr);
}

}  // namespace
}  // namespace landmark

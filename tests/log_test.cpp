// The logging macros check the level before evaluating their arguments, so
// a disabled line formats nothing: hot paths may pass describe() calls and
// other costly expressions to a debug line without paying for them.
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <string>

namespace qosnp {
namespace {

TEST(Log, DisabledLineEvaluatesNoArguments) {
  Logger& logger = Logger::instance();
  const LogLevel saved = logger.level();
  int evaluated = 0;
  auto costly = [&] {
    ++evaluated;
    return std::string("argument");
  };

  logger.set_level(LogLevel::kWarn);
  QOSNP_LOG_DEBUG("log_test", "disabled ", costly());
  QOSNP_LOG_INFO("log_test", costly(), " disabled");
  EXPECT_EQ(evaluated, 0);

  logger.set_level(LogLevel::kInfo);
  QOSNP_LOG_INFO("log_test", "enabled ", costly());
  EXPECT_EQ(evaluated, 1);
  logger.set_level(saved);
}

}  // namespace
}  // namespace qosnp

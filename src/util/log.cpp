#include "util/log.hpp"

#include <iostream>
#include <utility>

namespace qosnp {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::string& tls_tag() {
  thread_local std::string tag;
  return tag;
}

}  // namespace

void set_log_tag(std::string tag) { tls_tag() = std::move(tag); }

const std::string& log_tag() { return tls_tag(); }

ScopedLogTag::ScopedLogTag(std::string tag) : previous_(std::move(tls_tag())) {
  tls_tag() = std::move(tag);
}

ScopedLogTag::~ScopedLogTag() { tls_tag() = std::move(previous_); }

void Logger::write(LogLevel level, std::string_view component, const std::string& message) {
  // Compose the whole line first so the locked section is one insertion:
  // concurrent workers can never interleave mid-line.
  std::string line;
  const std::string& tag = log_tag();
  line.reserve(component.size() + message.size() + tag.size() + 16);
  line += '[';
  line += level_name(level);
  line += "] ";
  if (!tag.empty()) {
    line += '(';
    line += tag;
    line += ") ";
  }
  line += component;
  line += ": ";
  line += message;
  line += '\n';
  std::lock_guard lk(mu_);
  std::clog << line;
}

}  // namespace qosnp

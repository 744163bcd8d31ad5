// Minimal leveled logger. Negotiation and adaptation emit trace events the
// examples surface to the user (the role the 1996 prototype's information
// window played); benches run with logging off. Thread-safe: the level is
// atomic, every line is composed off-lock and emitted in a single write, and
// a thread-local tag (set by service workers to "w<worker>/r<request>")
// keeps interleaved worker output attributable.
#pragma once

#include <atomic>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace qosnp {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const { return level >= this->level(); }

  void write(LogLevel level, std::string_view component, const std::string& message);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex mu_;
};

/// Thread-local tag stamped onto every line this thread logs (empty = no
/// tag). Service workers use "w<worker>/r<request>".
void set_log_tag(std::string tag);
const std::string& log_tag();

/// RAII tag: sets the calling thread's tag, restores the previous one.
class ScopedLogTag {
 public:
  explicit ScopedLogTag(std::string tag);
  ~ScopedLogTag();

  ScopedLogTag(const ScopedLogTag&) = delete;
  ScopedLogTag& operator=(const ScopedLogTag&) = delete;

 private:
  std::string previous_;
};

namespace detail {
inline void log_format(std::ostringstream&) {}
template <typename T, typename... Rest>
void log_format(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  log_format(os, rest...);
}
}  // namespace detail

template <typename... Args>
void log_at(LogLevel level, std::string_view component, const Args&... args) {
  Logger& lg = Logger::instance();
  if (!lg.enabled(level)) return;
  std::ostringstream os;
  detail::log_format(os, args...);
  lg.write(level, component, os.str());
}

// The macros check the level before evaluating their arguments, so a
// disabled line formats nothing (no describe() calls, no temporaries).
#define QOSNP_LOG_AT(level, component, ...)                            \
  do {                                                                 \
    if (::qosnp::Logger::instance().enabled(level)) {                  \
      ::qosnp::log_at(level, component, __VA_ARGS__);                  \
    }                                                                  \
  } while (false)
#define QOSNP_LOG_TRACE(component, ...) QOSNP_LOG_AT(::qosnp::LogLevel::kTrace, component, __VA_ARGS__)
#define QOSNP_LOG_DEBUG(component, ...) QOSNP_LOG_AT(::qosnp::LogLevel::kDebug, component, __VA_ARGS__)
#define QOSNP_LOG_INFO(component, ...) QOSNP_LOG_AT(::qosnp::LogLevel::kInfo, component, __VA_ARGS__)
#define QOSNP_LOG_WARN(component, ...) QOSNP_LOG_AT(::qosnp::LogLevel::kWarn, component, __VA_ARGS__)
#define QOSNP_LOG_ERROR(component, ...) QOSNP_LOG_AT(::qosnp::LogLevel::kError, component, __VA_ARGS__)

}  // namespace qosnp

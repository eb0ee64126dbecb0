// In-memory spans for the traced run.
//
// Spans are recorded by the benchmark around its calls into the library
// (library-internal tracing stays off). Each has a name, start, end, the
// id of the span that caused it, and a request id shared by every span
// of one engine request. They are kept in memory and written as Chrome
// trace-event JSON when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t clock_ns();

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< engine request id (0 = none)
  std::uint32_t tid = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  /// A fresh span id (0 when disabled).
  std::uint64_t next_id() {
    return enabled_ ? next_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  /// Records a finished span; thread-safe; a no-op when disabled.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t id, std::uint64_t parent = 0,
              std::uint64_t req = 0);

  std::size_t size() const;
  /// Per span name: total duration minus the time its direct children
  /// cover, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Writes Chrome trace-event JSON; false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Records one span over its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent = 0,
             std::uint64_t req = 0)
      : log_(log),
        name_(name),
        id_(log.next_id()),
        parent_(parent),
        req_(req),
        start_(log.enabled() ? clock_ns() : 0) {}
  ~ScopedSpan() {
    if (log_.enabled()) {
      log_.record(name_, start_, clock_ns(), id_, parent_, req_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t req_;
  std::uint64_t start_;
};

}  // namespace perfbench

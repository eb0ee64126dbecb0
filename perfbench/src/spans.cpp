#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanLog::record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t id,
                     std::uint64_t parent, std::uint64_t req) {
  if (!enabled_) {
    return;
  }
  Span s{name, start_ns, end_ns < start_ns ? start_ns : end_ns, id, parent,
         req, thread_index()};
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    double self = static_cast<double>(s.end_ns - s.start_ns);
    const auto it = child_ns.find(s.id);
    if (it != child_ns.end()) {
      self -= it->second;
    }
    out[s.name] += (self > 0.0 ? self : 0.0) * 1e-9;
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans_) {
    t0 = s.start_ns < t0 ? s.start_ns : t0;
  }
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    f << (first ? "\n" : ",\n");
    first = false;
    f << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
      << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns - t0) * 1e-3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"req\":" << s.req << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

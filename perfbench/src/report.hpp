// Metric table, result accounting and the run environment.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind { kEndToEnd, kLayer };

struct MetricSpec {
  std::string name;
  std::string unit;
  Kind kind;
};

/// Every metric the benchmark reports, in output order. BENCHMARK.json
/// lists the same names and units; run.py rejects a result that differs.
const std::vector<MetricSpec>& metric_table();

/// Sets `name` only when the table lists it (per-format metrics cover a
/// subset of the formats).
class Report;
void set_if_listed(Report& rep, const std::string& name, double value);

/// Metric values and correctness accounting of one run.
class Report {
 public:
  /// Sets a metric by table name; throws std::logic_error on an unknown
  /// name (a benchmark bug, never a measurement).
  void set(const std::string& name, double value);

  /// Counts one checked operation; a failed one is logged to stderr.
  /// Thread-safe (load-generator threads check responses concurrently).
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  /// Prints one "metric" line per reported metric, then the final JSON
  /// object as the last line. With trace=false the end-to-end metrics
  /// are reported (all must be set); with trace=true the per-layer ones,
  /// where a layer the workload did not exercise reads 0.
  void print(bool trace, std::ostream& os) const;

 private:
  std::map<std::string, double> values_;
  mutable std::mutex check_mu_;
  std::uint64_t attempted_ = 0;  ///< guarded by check_mu_
  std::uint64_t failed_ = 0;     ///< guarded by check_mu_
};

/// Names of the SPC_* environment variables that are set; a run refuses
/// to measure while any is, since they change what the library does.
std::vector<std::string> spc_overrides();

struct Machine {
  std::string id;       ///< obs machine fingerprint id
  std::string cpu;
  std::string isa;
  std::size_t nproc = 1;
  /// Threads of the multithreaded SpMV cells: half of nproc, at least 2
  /// (params::kSpmvThreadShare).
  std::size_t spmv_threads = 1;
  std::size_t llc_bytes = 0;
  std::string git_sha;
};
Machine machine();

/// Same-run thread wake-up latency: one thread releases a semaphore
/// every 500 us and another, idle until then, records how long it took
/// to run. On a VM this is where serving tails come from.
struct WakeLatency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};
WakeLatency wake_latency(std::size_t samples);

/// The process's peak resident set (VmHWM), 0 when unknown.
std::size_t peak_rss_bytes();

/// Same-run bandwidth roof: `threads` threads each stream-read their
/// share of an array of `bytes`; the median of the timed passes.
struct StreamRoof {
  double gbps = 0.0;
  std::size_t array_bytes = 0;
};
StreamRoof stream_read_roof(std::size_t bytes, std::size_t threads);

}  // namespace perfbench

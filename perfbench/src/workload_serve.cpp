// serve-churn: the engine under open-loop traffic and tenant churn.
//
// Requests arrive as independent users would: a sender thread sleeps
// until each seeded Poisson due time and calls submit(); a completion
// thread polls the outstanding futures and stamps each as it turns done.
// Latency runs from the due time, so a stalled sender or engine charges
// every later request. While the tenants are served at a fixed rate,
// another thread keeps tuning, registering and unregistering arriving
// matrices. Traced runs then climb a fixed rate ladder to find goodput.
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>

#include "inputs.hpp"
#include "oracle.hpp"
#include "params.hpp"
#include "spc/engine/engine.hpp"
#include "spc/tune/tuner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using spc::Format;
using spc::Triplets;
using spc::Vector;
using spc::engine::Engine;
using spc::engine::Future;

struct Tenant {
  std::string id;
  Triplets t;
  Format fmt = Format::kCsr;
  double nnz = 0.0;
  std::vector<Vector> xs;
  std::vector<Reference> refs;
};

std::vector<Tenant> make_tenants(std::uint64_t seed) {
  // Fixed formats (no tuning on the read path): the paper's four.
  const Format formats[] = {Format::kCsrVi, Format::kCsrDuVi, Format::kCsr,
                            Format::kCsrDu};
  std::vector<Tenant> out;
  std::size_t i = 0;
  for (Matrix& m : serve_tenants(seed)) {
    Tenant t;
    t.id = m.name;
    t.t = std::move(m.t);
    t.fmt = formats[i++];
    t.nnz = static_cast<double>(t.t.nnz());
    spc::Rng r(sub_seed(seed, "x-" + t.id));
    for (std::size_t k = 0; k < params::kXVariants; ++k) {
      t.xs.push_back(seeded_vector(t.t.ncols(), r));
      t.refs.push_back(reference_spmv(t.t, t.xs.back()));
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<double> tenant_weights() {
  return {params::kTenantWeights.begin(), params::kTenantWeights.end()};
}

spc::engine::EngineOptions engine_options(std::size_t pool_threads) {
  spc::engine::EngineOptions eo;
  eo.pool_threads = pool_threads;
  eo.dispatchers = params::kDispatchers;
  eo.queue_capacity = params::kQueueCapacity;
  eo.batch_max = params::kBatchMax;
  eo.overflow = spc::engine::OverflowPolicy::kReject;
  return eo;
}

struct Setup {
  std::unique_ptr<Engine> engine;
  std::vector<double> samples_s;  ///< mean setup time of each batch
  std::vector<double> register_ms;
};

/// Engine construction + registration + warm-up of every tenant. One
/// setup takes tens of milliseconds and the host's speed drifts over a
/// run, so a single setup would measure the moment: each of `samples`
/// samples is the mean of kSetupBatch setups in a row, and a run takes
/// half its samples before serving and half after (setup_s is their
/// median). The last engine stays in `s.engine`. Each registration alone
/// is also timed.
void time_setups(const std::vector<Tenant>& ten, std::size_t pool_threads,
                 int samples, Setup& s, Report& rep, SpanLog& log) {
  for (int k = 0; k < samples; ++k) {
    double total_ns = 0.0;
    for (int b = 0; b < params::kSetupBatch; ++b) {
      s.engine.reset();
      ScopedSpan span(log, "engine.setup");
      const std::uint64_t t0 = clock_ns();
      s.engine = std::make_unique<Engine>(engine_options(pool_threads));
      for (const Tenant& t : ten) {
        spc::engine::RegisterOptions ro;
        ro.format = t.fmt;
        const std::uint64_t r0 = clock_ns();
        spc::Status st;
        {
          ScopedSpan reg(log, "engine.register_matrix", span.id());
          st = s.engine->register_matrix(t.id, t.t, ro);
        }
        s.register_ms.push_back(static_cast<double>(clock_ns() - r0) * 1e-6);
        rep.check(st.ok(), "register " + t.id + ": " + st.to_string());
        // Warm-up counts in setup_s but not in the registration time.
        ScopedSpan warm(log, "engine.warm", span.id());
        rep.check(s.engine->warm(t.id, params::kWarmRuns).ok(),
                  "warm " + t.id);
      }
      total_ns += static_cast<double>(clock_ns() - t0);
    }
    s.samples_s.push_back(total_ns * 1e-9 / params::kSetupBatch);
  }
}

struct Phase {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t refused = 0;     ///< error status (admission refusal etc.)
  std::size_t over_limit = 0;  ///< ok but later than the latency limit
  std::vector<double> latency_us;  ///< arrival order; +inf for refused
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  /// Per tenant: submit() call to observed completion, ok requests only.
  std::vector<std::vector<double>> service_us_by_tenant;
  std::vector<double> complete_us;
  std::vector<double> lag_us;
  std::vector<double> depth;
  std::vector<double> traced_us;  ///< latency of requests that record spans
  std::vector<double> plain_us;   ///< latency of the others (traced runs)
  std::size_t serial = 0;
  double batch_size = 0.0;

  double ok_frac() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(sent - refused - over_limit) /
                           static_cast<double>(sent);
  }
};

/// Lets this thread's sleeps end within a microsecond of their target
/// instead of the default 50 us timer slack.
void precise_sleeps() {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
}

/// One open-loop phase over `sched`; returns when every request completed.
/// With `statuses_checked`, every request's status counts as a checked
/// operation (an error status is a failure); above the reference rate a
/// refusal is the engine's overload policy and only counts as a latency
/// miss.
///
/// Every time is taken with the benchmark's clock: latency runs from the
/// request's due time to the moment the completion thread sees its future
/// done. That thread polls all outstanding futures with the non-blocking
/// done() every kPollUs, so a slow request never delays the observation
/// of the ones behind it. The engine's queue_ns and exec_ns feed only the
/// engine.* breakdown. In a traced run, requests record spans in
/// alternate blocks of kTraceBlock, and the two halves give the tracing
/// overhead.
Phase open_loop(Engine& eng, const std::vector<Tenant>& ten,
                const std::vector<Request>& sched, double rate,
                bool statuses_checked, Report& rep, SpanLog& log) {
  struct Slot {
    Future f;
    std::uint64_t due_ns = 0;
    std::uint64_t submit_ns = 0;
    std::uint64_t done_ns = 0;
    std::uint64_t req = 0;
    spc::Status status;
    bool serial = false;
    std::uint64_t queue_ns = 0;
    std::uint64_t exec_ns = 0;
    Vector y;  ///< kept for the post-phase check of sampled responses
  };
  constexpr std::size_t kTraceBlock = 500;
  constexpr auto kPollUs = std::chrono::microseconds(20);
  const std::size_t n = sched.size();
  std::vector<Slot> slots(n);
  std::atomic<std::size_t> published{0};
  SpanLog off(false);
  const auto traced = [&](std::size_t i) {
    return log.enabled() && (i / kTraceBlock) % 2 == 0;
  };
  Phase ph;
  ph.rate = rate;
  ph.sent = n;
  ph.service_us_by_tenant.resize(ten.size());
  const spc::engine::Engine::Stats before = eng.stats();
  const std::uint64_t t0 = clock_ns() + 2'000'000;
  const auto steady0 = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t0));
  const auto due = [&](std::size_t i) {
    return static_cast<std::uint64_t>(sched[i].due_s * 1e9);
  };

  std::thread sender([&] {
    precise_sleeps();
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(steady0 + std::chrono::nanoseconds(due(i)));
      Slot& s = slots[i];
      SpanLog& sl = traced(i) ? log : off;
      s.due_ns = t0 + due(i);
      s.req = sl.next_id();
      const Tenant& t = ten[sched[i].tenant];
      s.submit_ns = clock_ns();
      {
        ScopedSpan span(sl, "engine.submit", 0, s.req);
        s.f = eng.submit(t.id, t.xs[sched[i].xvar]);
      }
      if (i % 16 == 0) {
        ph.depth.push_back(static_cast<double>(eng.queue_depth()));
      }
      published.store(i + 1, std::memory_order_release);
    }
  });

  precise_sleeps();
  std::vector<std::size_t> pending;
  std::size_t seen = 0;
  std::size_t finished = 0;
  while (finished < n) {
    for (const std::size_t p = published.load(std::memory_order_acquire);
         seen < p; ++seen) {
      pending.push_back(seen);
    }
    std::size_t keep = 0;
    for (const std::size_t i : pending) {
      Slot& s = slots[i];
      if (!s.f.done()) {
        pending[keep++] = i;
        continue;
      }
      s.done_ns = clock_ns();
      s.status = s.f.status();
      s.queue_ns = s.f.queue_ns();
      s.exec_ns = s.f.exec_ns();
      s.serial = s.f.ran_serial();
      if (s.status.ok() && sched[i].check) {
        s.y = s.f.take();
      }
      // Release the request's x and y now, so the allocator reuses their
      // memory instead of faulting in fresh pages for every request.
      s.f = Future();
      ++finished;
    }
    pending.resize(keep);
    if (finished == n) {
      break;
    }
    if (pending.empty() && seen < n) {
      // Nothing in flight: sleep until the next request is due.
      std::this_thread::sleep_until(
          std::max(steady0 + std::chrono::nanoseconds(due(seen)),
                   std::chrono::steady_clock::now() + kPollUs));
    } else {
      std::this_thread::sleep_for(kPollUs);
    }
  }
  sender.join();
  eng.drain();
  const spc::engine::Engine::Stats after = eng.stats();
  const double batches = static_cast<double>(after.batches - before.batches);
  ph.batch_size =
      batches > 0.0
          ? static_cast<double>(after.completed - before.completed) / batches
          : 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    const Request& q = sched[i];
    ph.lag_us.push_back(static_cast<double>(s.submit_ns - s.due_ns) * 1e-3);
    if (statuses_checked) {
      rep.check(s.status.ok(), "request to " + ten[q.tenant].id + ": " +
                                   s.status.to_string());
    }
    if (!s.status.ok()) {
      ++ph.refused;
      ph.latency_us.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const double lat_us = static_cast<double>(s.done_ns - s.due_ns) * 1e-3;
    const double service_us =
        static_cast<double>(s.done_ns - s.submit_ns) * 1e-3;
    const double q_us = static_cast<double>(s.queue_ns) * 1e-3;
    const double e_us = static_cast<double>(s.exec_ns) * 1e-3;
    ph.latency_us.push_back(lat_us);
    ph.queue_us.push_back(q_us);
    ph.exec_us.push_back(e_us);
    ph.service_us_by_tenant[q.tenant].push_back(service_us);
    // What the client waits beyond the engine's own stamps: the submit
    // call (copying x, admission) and the completion hand-off.
    ph.complete_us.push_back(std::max(0.0, service_us - q_us - e_us));
    ph.over_limit += lat_us > params::kLatencyLimitUs ? 1 : 0;
    ph.serial += s.serial ? 1 : 0;
    if (log.enabled()) {
      (traced(i) ? ph.traced_us : ph.plain_us).push_back(lat_us);
    }
    if (traced(i)) {
      const std::uint64_t id = log.next_id();
      log.record("engine.request", s.due_ns, s.done_ns, id, 0, s.req);
      log.record("engine.queue", s.submit_ns, s.submit_ns + s.queue_ns,
                 log.next_id(), id, s.req);
      log.record("engine.exec", s.submit_ns + s.queue_ns,
                 s.submit_ns + s.queue_ns + s.exec_ns, log.next_id(), id,
                 s.req);
    }
    if (q.check) {
      rep.check(mismatches(s.y, ten[q.tenant].refs[q.xvar],
                           params::kRelTol) == 0,
                "engine response " + ten[q.tenant].id);
    }
  }
  return ph;
}

/// End-to-end and engine metrics of the reference phase. spmv_gflops is
/// the SpMV rate a client gets from the engine, timed by the benchmark:
/// the geomean over tenants of 2 nnz / median time from the submit() call
/// to the observed completion.
void report_phase(const Phase& ph, const std::vector<Tenant>& ten,
                  Report& rep) {
  std::vector<double> gflops;
  for (std::size_t i = 0; i < ten.size(); ++i) {
    gflops.push_back(2.0 * ten[i].nnz /
                     (median(ph.service_us_by_tenant[i]) * 1e3));
  }
  rep.set("spmv_gflops", geomean(gflops));
  const Tail t = windowed_tail(ph.latency_us, kTailWindow);
  rep.set("latency_p50_us", median(ph.latency_us));
  rep.set("engine.latency_p90_us", tail(ph.latency_us, 0.90).value);
  rep.set("engine.latency_p99_us", t.value);
  rep.set("engine.requests", static_cast<double>(ph.sent));
  rep.set("engine.queue_us_p50", median(ph.queue_us));
  rep.set("engine.queue_us_p99", tail(ph.queue_us).value);
  rep.set("engine.exec_us_p50", median(ph.exec_us));
  rep.set("engine.exec_us_p99", tail(ph.exec_us).value);
  rep.set("engine.complete_us_p50", median(ph.complete_us));
  rep.set("engine.serial_frac",
          ph.exec_us.empty() ? 0.0
                             : static_cast<double>(ph.serial) /
                                   static_cast<double>(ph.exec_us.size()));
  rep.set("engine.batch_size", ph.batch_size);
  rep.set("engine.backlog_max",
          ph.depth.empty() ? 0.0
                           : *std::max_element(ph.depth.begin(),
                                               ph.depth.end()));
  rep.set("engine.refused_frac", 1.0 - ph.ok_frac());
  rep.set("bench.gen_lag_us_p99", tail(ph.lag_us).value);
  if (!ph.traced_us.empty() && !ph.plain_us.empty()) {
    rep.set("bench.trace_overhead_frac",
            median(ph.traced_us) / median(ph.plain_us) - 1.0);
  }
  std::cout << "phase @" << ph.rate << " req/s: " << ph.sent
            << " requests, p50 " << median(ph.latency_us) << " us, p"
            << static_cast<int>(t.pct * 100 + 0.5) << " (median of "
            << kTailWindow << "-request windows) " << t.value
            << " us, whole-phase p99 " << tail(ph.latency_us).value
            << " us, refused " << ph.refused << ", over limit "
            << ph.over_limit << "\n";
}

void report_wake_latency(Report& rep) {
  const WakeLatency w = wake_latency(2000);
  std::cout << "thread wake-up latency: p50 " << w.p50_us << " us, p99 "
            << w.p99_us << " us\n";
  rep.set("bench.wake_us_p50", w.p50_us);
  rep.set("bench.wake_us_p99", w.p99_us);
}

/// Takes the second half of the setup samples (the serving engine is
/// gone afterwards) and reports setup_s and the tenants' registrations.
void finish_setup(const std::vector<Tenant>& ten, std::size_t pool_threads,
                  Setup& s, Report& rep, SpanLog& log) {
  time_setups(ten, pool_threads, params::kSetupSamples / 2, s, rep, log);
  s.engine.reset();
  std::cout << "engine setup (mean of " << params::kSetupBatch << ") ms:";
  for (const double v : s.samples_s) {
    std::cout << " " << v * 1e3;
  }
  std::cout << "\n";
  rep.set("setup_s", median(s.samples_s));
  rep.set("engine.register_ms_p50", median(s.register_ms));
  rep.set("engine.register_ms_p90", tail(s.register_ms, 0.90).value);
}

/// Climbs the rate ladder (traced runs, after the arrivals stopped): each
/// rung sends kRungWindows tail windows of Poisson arrivals at its rate,
/// and the climb stops after kLadderStopAfterFails failing rungs in a row.
void climb_ladder(Engine& eng, const std::vector<Tenant>& ten,
                  std::uint64_t seed, Report& rep, SpanLog& log) {
  std::vector<Rung> ladder;
  int fails = 0;
  for (std::size_t i = 0;
       i < params::kLadder.size() && fails < params::kLadderStopAfterFails;
       ++i) {
    const double rate = params::kLadder[i];
    const double dur =
        static_cast<double>(params::kRungWindows * kTailWindow) / rate;
    spc::Rng r(sub_seed(seed, "schedule-rung-" + std::to_string(i)));
    const auto sched =
        poisson_schedule(rate, dur, tenant_weights(),
                         static_cast<std::uint32_t>(params::kXVariants),
                         params::kCheckFraction, r);
    Phase ph = open_loop(eng, ten, sched, rate, false, rep, log);
    Rung rung{rate, std::move(ph.latency_us), std::move(ph.depth)};
    const bool pass = rung_passes(rung, params::kLatencyLimitUs,
                                  params::kBacklogGrowth,
                                  params::kBacklogSlack);
    std::cout << "rung " << rate << " req/s: " << ph.sent
              << " requests, windowed p99 "
              << windowed_tail(rung.latency, kTailWindow).value << " us -> "
              << (pass ? "pass" : "FAIL") << "\n";
    ladder.push_back(std::move(rung));
    fails = pass ? 0 : fails + 1;
  }
  rep.set("engine.goodput_rps",
          goodput(ladder, params::kLatencyLimitUs, params::kBacklogGrowth,
                  params::kBacklogSlack));
}

}  // namespace

void run_serve_churn(const RunOptions& o, const Machine&, Report& rep,
                     SpanLog& log) {
  const std::vector<Tenant> ten = make_tenants(o.seed);
  Setup s;
  time_setups(ten, params::kPoolThreads, params::kSetupSamples / 2, s,
              rep, log);
  Engine& eng = *s.engine;
  if (o.trace) {
    report_wake_latency(rep);
  }

  // Arrivals: the distinct matrices and their oracles are inputs, built
  // before anything is timed.
  spc::Rng pr(sub_seed(o.seed, "churn-plan"));
  const std::vector<ChurnStep> plan =
      churn_plan(params::kChurnArrivals, params::kChurnRepeatFraction, pr);
  std::size_t distinct = 0;
  for (const ChurnStep& st : plan) {
    distinct = std::max(distinct, st.matrix + 1);
  }
  std::vector<Tenant> arrivals;
  for (std::size_t k = 0; k < distinct; ++k) {
    Matrix m = churn_matrix(o.seed, k);
    Tenant t;
    t.id = m.name;
    t.t = std::move(m.t);
    t.nnz = static_cast<double>(t.t.nnz());
    spc::Rng r(sub_seed(o.seed, "x-" + t.id));
    t.xs.push_back(seeded_vector(t.t.ncols(), r));
    t.refs.push_back(reference_spmv(t.t, t.xs.back()));
    arrivals.push_back(std::move(t));
  }
  spc::tune::TuneOptions topts;
  topts.cache_path = o.tmp_dir + "/tune_cache.jsonl";
  std::remove(topts.cache_path.c_str());

  const double duration = params::kRefShare * o.seconds;
  spc::Rng r(sub_seed(o.seed, "schedule-churn"));
  const auto sched = poisson_schedule(
      params::kRefRate, duration, tenant_weights(),
      static_cast<std::uint32_t>(params::kXVariants), params::kCheckFraction,
      r);

  std::vector<double> register_ms;
  std::vector<double> pick_ms;
  std::vector<double> candidates;
  std::size_t hits = 0;
  std::thread churn([&] {
    try {
      std::deque<std::string> resident;
      const std::uint64_t start = clock_ns();
      const auto steady0 = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start));
      for (std::size_t i = 0; i < plan.size(); ++i) {
        std::this_thread::sleep_until(
            steady0 + std::chrono::nanoseconds(static_cast<std::uint64_t>(
                          duration * 1e9 * static_cast<double>(i) /
                          static_cast<double>(plan.size()))));
        const Tenant& a = arrivals[plan[i].matrix];
        const std::string id = a.id + "#" + std::to_string(i);
        ScopedSpan span(log, "churn.arrival");
        spc::tune::TuneReport tr;
        const std::uint64_t t0 = clock_ns();
        Format f = Format::kCsr;
        {
          ScopedSpan pick(log, "tune.pick_format", span.id());
          f = spc::tune::pick_format(a.t, params::kPoolThreads,
                                     eng.options().instance, topts, &tr);
        }
        const std::uint64_t t1 = clock_ns();
        spc::engine::RegisterOptions ro;
        ro.format = f;
        spc::Status st;
        {
          ScopedSpan reg(log, "engine.register_matrix", span.id());
          st = eng.register_matrix(id, a.t, ro);
        }
        const std::uint64_t t2 = clock_ns();
        rep.check(st.ok(), "register " + id + ": " + st.to_string());
        pick_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        register_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
        hits += tr.cache_hit ? 1 : 0;
        if (!tr.cache_hit) {
          candidates.push_back(static_cast<double>(tr.candidates.size()));
        }
        Vector y;
        const bool ran = eng.run_sync(id, a.xs[0], &y).ok();
        rep.check(ran && mismatches(y, a.refs[0], params::kRelTol) == 0,
                  "arrival " + id + " as " + spc::format_name(f));
        resident.push_back(id);
        if (resident.size() > params::kChurnResident) {
          ScopedSpan un(log, "engine.unregister_matrix", span.id());
          rep.check(eng.unregister_matrix(resident.front()).ok(),
                    "unregister " + resident.front());
          resident.pop_front();
        }
      }
    } catch (const std::exception& e) {
      rep.check(false, std::string("churn arrivals: ") + e.what());
    }
  });
  const Phase ph =
      open_loop(eng, ten, sched, params::kRefRate, true, rep, log);
  churn.join();
  report_phase(ph, ten, rep);
  if (o.trace) {
    climb_ladder(eng, ten, o.seed, rep, log);
  }
  finish_setup(ten, params::kPoolThreads, s, rep, log);
  // On serve-churn the registration metrics are the arrivals'.
  rep.set("engine.register_ms_p50", median(register_ms));
  rep.set("engine.register_ms_p90", tail(register_ms, 0.90).value);
  rep.set("tune.picks", static_cast<double>(pick_ms.size()));
  rep.set("tune.pick_ms_p50", median(pick_ms));
  rep.set("tune.candidates",
          candidates.empty() ? 0.0 : median(candidates));
  rep.set("tune.cache_hit_frac", pick_ms.empty()
                                     ? 0.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(pick_ms.size()));
  std::cout << "churn: " << pick_ms.size() << " arrivals, " << hits
            << " tune-cache hits, register p50 " << median(register_ms)
            << " ms\n";
}

}  // namespace perfbench

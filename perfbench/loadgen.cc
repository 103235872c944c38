// Open-loop load generation. Arrivals follow a seeded Poisson schedule
// and every request is timed from when it was due, so a stall charges
// the wait it imposes on later requests. Scores are checked against the
// direct-scoring reference as they complete.
//
//   in-process: one load thread Submits single rows when due and, in
//               between, spins over the outstanding tickets;
//   remote:     four sender threads over two RemoteFleets (two
//               connections each, four in all) send 64-row frames.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <thread>

#include "perfbench.h"

namespace perfbench {

namespace fd = fairdrift;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kSpanCapPerThread = 60000;

void CountFailure(fd::StatusCode code, uint64_t rows, StepResult* res) {
  switch (code) {
    case fd::StatusCode::kUnavailable: res->rows_shed += rows; break;
    case fd::StatusCode::kInvalidArgument: res->rows_invalid += rows; break;
    case fd::StatusCode::kDeadlineExceeded: res->rows_deadline += rows; break;
    default: res->rows_transport += rows; break;
  }
}

/// Checks one scored row: against the reference when the fixture
/// snapshot scored it, deferred otherwise (a rollout's snapshot did).
void CheckRow(const Fixture& fx, uint32_t row, const ScoreResult& result,
              StepResult* res) {
  ++res->rows_ok;
  if (result.snapshot_version == fx.snapshot->version()) {
    if (!SameScore(result, fx.traffic.reference[row])) ++res->mismatches;
  } else {
    res->deferred.push_back({row, result.snapshot_version, result});
  }
}

/// Spins briefly (about a microsecond) without giving up the core.
inline void CpuRelax() {
  for (int i = 0; i < 16; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }
}

/// One thread both sends and reaps. It never sleeps: a completion is
/// stamped when it happens, not when a sleeping waiter is scheduled
/// again. The thread's own CPU time is left out of the step's CPU time,
/// except for its Submit calls. The background stream of the rollout
/// phase (`stop` set) sleeps between polls instead: spinning there took a
/// core from Fit, and rollout times spread twice as wide from run to run.
StepResult RunInprocStep(Fixture* fx, double rate, double seconds,
                         uint64_t stream, const std::atomic<bool>* stop) {
  constexpr uint64_t kBackgroundPollNs = 200000;
  struct Pending {
    fd::ScoreTicket ticket;
    uint64_t due, submit_start, submit_end, id;
    uint32_t row;
  };
  const bool traced = fx->options.trace;
  const size_t width = fx->traffic.width;
  if (stop != nullptr) TightenTimerSlack();
  StepResult res;
  res.offered_rps = rate;
  std::vector<Pending> pending;
  std::vector<Span> spans;
  PoissonSchedule schedule(rate, fx->options.seed * 1000003u + stream);
  const double cpu0 = ProcessCpuSeconds();
  const double own_cpu0 = ThreadCpuSeconds();
  const uint64_t allocs0 = AllocCount();
  const uint64_t t0 = NowNs() + 1000000;
  const uint64_t t_end = t0 + static_cast<uint64_t>(seconds * 1e9);
  uint64_t end_ns = std::numeric_limits<uint64_t>::max();
  size_t cursor = static_cast<size_t>(stream * 7919u) % fx->traffic.count;
  double next = static_cast<double>(t0);
  uint64_t id = 0, submit_ns_total = 0;
  while (end_ns == std::numeric_limits<uint64_t>::max() || !pending.empty()) {
    const uint64_t now = NowNs();
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      if (!p.ticket.done()) {
        ++i;
        continue;
      }
      fd::Result<ScoreResult> got = p.ticket.Wait();  // done: no block
      if (now > end_ns) ++res.backlog_end;
      if (got.ok()) {
        CheckRow(*fx, p.row, got.value(), &res);
        res.latency_us.push_back(static_cast<double>(now - p.due) * 1e-3);
      } else {
        CountFailure(got.status().code(), 1, &res);
        res.latency_us.push_back(kInf);
      }
      res.due_ns.push_back(p.due);
      if (traced) {
        res.wait_us.push_back(static_cast<double>(now - p.submit_end) * 1e-3);
        if (fx->spans != nullptr && spans.size() + 3 <= kSpanCapPerThread) {
          spans.push_back({"request", "", p.due, now, p.id});
          spans.push_back({"serve.submit", "request", p.submit_start,
                           p.submit_end, p.id});
          spans.push_back({"serve.wait", "request", p.submit_end, now, p.id});
        }
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
    const uint64_t due = static_cast<uint64_t>(next);
    if (end_ns != std::numeric_limits<uint64_t>::max() || due > now) {
      if (stop == nullptr) {
        CpuRelax();
      } else {
        SleepUntilNs(std::min(due, now + kBackgroundPollNs));
      }
      continue;
    }
    if (due >= t_end || (stop != nullptr && stop->load())) {
      end_ns = std::min(now, t_end);
      continue;
    }
    next += schedule.NextGapNs();
    res.gen_lag_us.push_back(static_cast<double>(now - due) * 1e-3);
    const uint32_t row = static_cast<uint32_t>(cursor);
    cursor = (cursor + 1) % fx->traffic.count;
    ++res.requests;
    ++res.rows_attempted;
    const double* src = fx->traffic.row(row);
    const uint64_t submit_start = NowNs();
    fd::Result<fd::ScoreTicket> ticket = fx->server->Submit(
        std::vector<double>(src, src + width),
        fd::RequestAuditInfo{fx->traffic.groups[row], fx->traffic.labels[row]});
    const uint64_t submit_end = NowNs();
    submit_ns_total += submit_end - submit_start;
    fx->inproc_rows_sent.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      res.submit_ns.push_back(static_cast<double>(submit_end - submit_start));
    }
    if (!ticket.ok()) {
      CountFailure(ticket.status().code(), 1, &res);
      res.latency_us.push_back(kInf);
      res.due_ns.push_back(due);
    } else {
      pending.push_back({std::move(ticket).value(), due, submit_start,
                         submit_end, id, row});
    }
    ++id;
  }
  res.cpu_seconds = ProcessCpuSeconds() - cpu0 -
                    (ThreadCpuSeconds() - own_cpu0) +
                    static_cast<double>(submit_ns_total) * 1e-9;
  res.allocs = AllocCount() - allocs0;
  if (fx->spans != nullptr) fx->spans->AddAll(spans);
  return res;
}

StepResult RunRemoteStep(Fixture* fx, double rate, double seconds,
                         uint64_t stream, const std::atomic<bool>* stop) {
  const bool traced = fx->options.trace;
  const size_t width = fx->traffic.width;
  const size_t frame_rows = fx->plan.rows_per_request;
  PoissonSchedule schedule(rate / static_cast<double>(frame_rows),
                           fx->options.seed * 1000003u + stream);
  const uint64_t t0 = NowNs() + 1000000;
  const uint64_t t_end = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::vector<uint64_t> due;
  for (double next = static_cast<double>(t0); next < static_cast<double>(t_end);
       next += schedule.NextGapNs()) {
    due.push_back(static_cast<uint64_t>(next));
  }
  const size_t offset = static_cast<size_t>(stream * 7919u) % fx->traffic.count;

  // Two senders per fleet: while one waits on shard 0 the other can use
  // shard 1 (each client serializes its connection). The rollout phase
  // pushes through fleets[0], so its background stream uses fleets[1].
  const size_t first = stop != nullptr ? 1 : 0;
  const size_t senders = 2 * (fx->fleets.size() - first);
  std::atomic<size_t> next_frame{0};
  std::atomic<uint64_t> end_ns{std::numeric_limits<uint64_t>::max()};
  std::vector<StepResult> parts(senders);
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t allocs0 = AllocCount();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < senders; ++t) {
    threads.emplace_back([&, t] {
      TightenTimerSlack();
      fd::net::RemoteFleet* fleet = fx->fleets[first + t / 2].get();
      StepResult& res = parts[t];
      std::vector<Span> spans;
      std::vector<double> frame(frame_rows * width);
      for (;;) {
        const size_t k = next_frame.fetch_add(1);
        if (k >= due.size() || (stop != nullptr && stop->load())) {
          uint64_t expected = std::numeric_limits<uint64_t>::max();
          end_ns.compare_exchange_strong(expected, std::min(NowNs(), t_end));
          break;
        }
        uint64_t now = NowNs();
        if (due[k] > now) {
          SleepUntilNs(due[k]);
          now = NowNs();
        }
        res.gen_lag_us.push_back(static_cast<double>(now - due[k]) * 1e-3);
        std::vector<uint32_t> rows(frame_rows);
        for (size_t r = 0; r < frame_rows; ++r) {
          rows[r] = static_cast<uint32_t>((offset + k * frame_rows + r) %
                                          fx->traffic.count);
          const double* src = fx->traffic.row(rows[r]);
          std::copy(src, src + width, frame.begin() + r * width);
        }
        ++res.requests;
        res.rows_attempted += frame_rows;
        const uint64_t send = NowNs();
        auto got = fleet->ScoreBatch(frame, width);
        const uint64_t done = NowNs();
        fx->remote_rows_sent.fetch_add(frame_rows);
        if (done > end_ns.load(std::memory_order_relaxed)) ++res.backlog_end;
        bool all_ok = got.ok();
        if (!got.ok()) {
          res.rows_transport += frame_rows;
        } else {
          for (size_t r = 0; r < frame_rows; ++r) {
            const fd::net::WireRowOutcome& outcome = got.value()[r];
            if (outcome.code == fd::StatusCode::kOk) {
              CheckRow(*fx, rows[r], outcome.result, &res);
            } else {
              all_ok = false;
              CountFailure(outcome.code, 1, &res);
            }
          }
        }
        res.latency_us.push_back(
            all_ok ? static_cast<double>(done - due[k]) * 1e-3 : kInf);
        res.due_ns.push_back(due[k]);
        if (traced && fx->spans != nullptr &&
            spans.size() + 2 <= kSpanCapPerThread) {
          spans.push_back({"request", "", due[k], done, k});
          spans.push_back({"remote.score_batch", "request", send, done, k});
        }
      }
      if (fx->spans != nullptr) fx->spans->AddAll(spans);
    });
  }
  for (std::thread& t : threads) t.join();
  StepResult res;
  res.offered_rps = rate;
  res.cpu_seconds = ProcessCpuSeconds() - cpu0;
  res.allocs = AllocCount() - allocs0;
  for (StepResult& part : parts) res.Absorb(std::move(part));
  return res;
}

}  // namespace

void StepResult::Absorb(StepResult&& other) {
  requests += other.requests;
  rows_attempted += other.rows_attempted;
  rows_ok += other.rows_ok;
  rows_shed += other.rows_shed;
  rows_invalid += other.rows_invalid;
  rows_deadline += other.rows_deadline;
  rows_transport += other.rows_transport;
  mismatches += other.mismatches;
  backlog_end += other.backlog_end;
  cpu_seconds += other.cpu_seconds;
  allocs += other.allocs;
  auto append = [](std::vector<double>* dst, const std::vector<double>& src) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  append(&latency_us, other.latency_us);
  due_ns.insert(due_ns.end(), other.due_ns.begin(), other.due_ns.end());
  append(&gen_lag_us, other.gen_lag_us);
  append(&submit_ns, other.submit_ns);
  append(&wait_us, other.wait_us);
  deferred.insert(deferred.end(), other.deferred.begin(), other.deferred.end());
}

StepResult RunStep(Fixture* fx, double rate_rps, double seconds,
                   uint64_t stream, const std::atomic<bool>* stop) {
  return fx->options.workload == Workload::kServeRemote
             ? RunRemoteStep(fx, rate_rps, seconds, stream, stop)
             : RunInprocStep(fx, rate_rps, seconds, stream, stop);
}

namespace {

/// Rows completed per second in each of `windows` equal spans of
/// [t0, t_end); completions after t_end (the drain) are left out.
std::vector<double> WindowRates(const std::vector<uint64_t>& done_ns,
                                uint64_t t0, uint64_t t_end, size_t windows,
                                double rows_each) {
  std::vector<double> counts(windows, 0.0);
  const double span_ns =
      static_cast<double>(t_end - t0) / static_cast<double>(windows);
  for (uint64_t done : done_ns) {
    if (done < t0 || done >= t_end) continue;
    const size_t w =
        static_cast<size_t>(static_cast<double>(done - t0) / span_ns);
    counts[std::min(w, windows - 1)] += rows_each;
  }
  for (double& c : counts) c /= span_ns * 1e-9;
  return counts;
}

std::vector<double> RunInprocSaturated(Fixture* fx, double seconds,
                                       uint64_t stream, size_t windows,
                                       StepResult* res) {
  constexpr size_t kOutstanding = 512;
  struct Outstanding {
    fd::ScoreTicket ticket;
    uint32_t row;
  };
  const size_t width = fx->traffic.width;
  std::deque<Outstanding> outstanding;
  std::vector<uint64_t> done_ns;
  size_t cursor = static_cast<size_t>(stream * 7919u) % fx->traffic.count;
  const uint64_t t0 = NowNs();
  const uint64_t t_end = t0 + static_cast<uint64_t>(seconds * 1e9);
  for (;;) {
    while (outstanding.size() < kOutstanding && NowNs() < t_end) {
      const uint32_t row = static_cast<uint32_t>(cursor);
      cursor = (cursor + 1) % fx->traffic.count;
      const double* src = fx->traffic.row(row);
      ++res->requests;
      ++res->rows_attempted;
      fd::Result<fd::ScoreTicket> ticket = fx->server->Submit(
          std::vector<double>(src, src + width),
          fd::RequestAuditInfo{fx->traffic.groups[row],
                               fx->traffic.labels[row]});
      fx->inproc_rows_sent.fetch_add(1, std::memory_order_relaxed);
      if (!ticket.ok()) {
        CountFailure(ticket.status().code(), 1, res);
      } else {
        outstanding.push_back({std::move(ticket).value(), row});
      }
    }
    if (outstanding.empty()) break;
    fd::Result<ScoreResult> got = outstanding.front().ticket.Wait();
    done_ns.push_back(NowNs());
    if (got.ok()) {
      CheckRow(*fx, outstanding.front().row, got.value(), res);
    } else {
      CountFailure(got.status().code(), 1, res);
    }
    outstanding.pop_front();
  }
  return WindowRates(done_ns, t0, t_end, windows, 1.0);
}

std::vector<double> RunRemoteSaturated(Fixture* fx, double seconds,
                                       uint64_t stream, size_t windows,
                                       StepResult* res) {
  const size_t width = fx->traffic.width;
  const size_t frame_rows = fx->plan.rows_per_request;
  const size_t senders = 2 * fx->fleets.size();
  const size_t offset = static_cast<size_t>(stream * 7919u) % fx->traffic.count;
  std::atomic<size_t> next_frame{0};
  std::vector<StepResult> parts(senders);
  std::vector<std::vector<uint64_t>> done(senders);
  const uint64_t t0 = NowNs();
  const uint64_t t_end = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < senders; ++t) {
    threads.emplace_back([&, t] {
      fd::net::RemoteFleet* fleet = fx->fleets[t / 2].get();
      StepResult& part = parts[t];
      std::vector<double> frame(frame_rows * width);
      std::vector<uint32_t> rows(frame_rows);
      while (NowNs() < t_end) {
        const size_t k = next_frame.fetch_add(1);
        for (size_t r = 0; r < frame_rows; ++r) {
          rows[r] = static_cast<uint32_t>((offset + k * frame_rows + r) %
                                          fx->traffic.count);
          const double* src = fx->traffic.row(rows[r]);
          std::copy(src, src + width, frame.begin() + r * width);
        }
        ++part.requests;
        part.rows_attempted += frame_rows;
        auto got = fleet->ScoreBatch(frame, width);
        done[t].push_back(NowNs());
        fx->remote_rows_sent.fetch_add(frame_rows);
        if (!got.ok()) {
          part.rows_transport += frame_rows;
          continue;
        }
        for (size_t r = 0; r < frame_rows; ++r) {
          const fd::net::WireRowOutcome& outcome = got.value()[r];
          if (outcome.code == fd::StatusCode::kOk) {
            CheckRow(*fx, rows[r], outcome.result, &part);
          } else {
            CountFailure(outcome.code, 1, &part);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<uint64_t> all;
  for (size_t t = 0; t < senders; ++t) {
    res->Absorb(std::move(parts[t]));
    all.insert(all.end(), done[t].begin(), done[t].end());
  }
  return WindowRates(all, t0, t_end, windows,
                     static_cast<double>(frame_rows));
}

}  // namespace

std::vector<double> RunSaturated(Fixture* fx, double seconds,
                                 uint64_t stream, size_t windows,
                                 StepResult* res) {
  return fx->options.workload == Workload::kServeRemote
             ? RunRemoteSaturated(fx, seconds, stream, windows, res)
             : RunInprocSaturated(fx, seconds, stream, windows, res);
}

void RunLevels(Fixture* fx, double seconds, StepResult* low,
               StepResult* high) {
  const RatePlan& plan = fx->plan;
  const double slice_s = seconds / static_cast<double>(2 * plan.slices);
  low->offered_rps = plan.low_rps;
  high->offered_rps = plan.high_rps;
  for (uint64_t i = 0; i < plan.slices; ++i) {
    low->Absorb(RunStep(fx, plan.low_rps, slice_s, 100 + 2 * i, nullptr));
    high->Absorb(RunStep(fx, plan.high_rps, slice_s, 101 + 2 * i, nullptr));
  }
}

double StepQuantile(const StepResult& step, double q, size_t max_windows) {
  const size_t n = step.latency_us.size();
  // At least ten samples beyond the quantile in every window.
  const size_t min_window = std::max<size_t>(
      20, static_cast<size_t>(std::ceil(10.0 / std::max(1.0 - q, 1e-3))));
  const size_t windows =
      std::max<size_t>(1, std::min(max_windows, n / min_window));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return step.due_ns[a] < step.due_ns[b];
  });
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> window;
    for (size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      window.push_back(step.latency_us[order[i]]);
    }
    per_window.push_back(Quantile(window, q));
  }
  return Quantile(per_window, 0.5);
}

bool StepMet(const Fixture& fx, const StepResult& step, std::string* why) {
  const double limit = fx.plan.p99_limit_us;
  if (step.rows_failed() > 0) {
    *why = "failed rows";
    return false;
  }
  // One request in ten sent more than the limit late: the generator
  // (or, remote, every sender) could not keep up.
  if (Quantile(step.gen_lag_us, 0.9) > limit) {
    *why = "generator behind";
    return false;
  }
  if (StepQuantile(step, 0.99, 4) > limit) {
    *why = "p99 over limit";
    return false;
  }
  // By Little's law a sustainable rate leaves about rate x latency
  // requests in flight; more than rate x limit at the step's end means
  // the backlog was still growing.
  const double in_flight_bound =
      std::max(8.0, step.offered_rps /
                        static_cast<double>(fx.plan.rows_per_request) *
                        limit * 1e-6);
  if (static_cast<double>(step.backlog_end) > in_flight_bound) {
    *why = "backlog grew";
    return false;
  }
  *why = "met";
  return true;
}

}  // namespace perfbench

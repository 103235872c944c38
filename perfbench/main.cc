// perfbench entry point: argument parsing, the run schedule, the output
// checks and the metric report. See perfbench.h for the design.
//
//   perfbench --workload serve_inproc|serve_remote --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--commit ID]
//   perfbench --self-test
//
// stdout: '#'-prefixed human-readable lines (host fingerprint, every step
// of the ladder, the layer ledger), then one JSON object as the last line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fd = fairdrift;

constexpr int kSetupRepeats = 3;
// saturated_rps is the median rate over this many equal spans of its step.
constexpr size_t kSaturatedSpans = 4;

bool ParseArgs(int argc, char** argv, Options* o, bool* self_test) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--self-test") {
      *self_test = true;
    } else if (arg == "--workload") {
      o->workload_name = value();
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o->trace = value() == "1";
    } else if (arg == "--workdir") {
      o->workdir = value();
    } else if (arg == "--commit") {
      o->commit = value();
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (*self_test) return true;
  if (o->workload_name == "serve_inproc") {
    o->workload = Workload::kServeInproc;
  } else if (o->workload_name == "serve_remote") {
    o->workload = Workload::kServeRemote;
  } else {
    std::fprintf(stderr, "--workload must be serve_inproc or serve_remote\n");
    return false;
  }
  if (!(o->seconds >= 1.0 && o->seconds <= 60.0)) {
    std::fprintf(stderr, "--seconds must be in [1, 60]\n");
    return false;
  }
  return true;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// JSON has no inf/NaN: a failed request's +inf latency prints as 1e18.
std::string Num(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e18 : -1e18;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintStep(const char* label, const StepResult& s,
               const std::string& verdict) {
  std::printf(
      "# %-12s offered %9.0f rows/s  requests %8llu  p50 %9.1f us  p99 "
      "%9.1f us  gen_lag_p99 %8.1f us  backlog_end %6llu  failed %llu  %s\n",
      label, s.offered_rps, static_cast<unsigned long long>(s.requests),
      Quantile(s.latency_us, 0.5), Quantile(s.latency_us, 0.99),
      Quantile(s.gen_lag_us, 0.99),
      static_cast<unsigned long long>(s.backlog_end),
      static_cast<unsigned long long>(s.rows_failed()), verdict.c_str());
}

std::string BaselinePath(const Options& o) {
  return o.workdir + "/last_untraced_" + o.workload_name + ".txt";
}

void SaveBaseline(const Options& o, const std::vector<Metric>& metrics) {
  std::ofstream f(BaselinePath(o));
  for (const Metric& m : metrics) f << m.name << ' ' << Num(m.value) << '\n';
}

std::map<std::string, double> LoadBaseline(const Options& o) {
  std::map<std::string, double> out;
  std::ifstream f(BaselinePath(o));
  std::string name;
  double value;
  while (f >> name >> value) out[name] = value;
  return out;
}

int Run(const Options& options) {
  Fixture fx;
  fx.options = options;
  SpanLog spans(300000);
  if (options.trace) {
    fx.spans = &spans;
    SetAllocCounting(true);
  }

  std::printf(
      "# host {\"nproc\":%u,\"avx2\":%s,\"build\":\"%s\",\"compiler\":\"gcc "
      "%s\",\"commit\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d,\"pool_workers\":\"%s\"}\n",
      std::thread::hardware_concurrency(),
      __builtin_cpu_supports("avx2") ? "true" : "false", PERFBENCH_BUILD_TYPE,
      __VERSION__, options.commit.c_str(), options.workload_name.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, std::getenv("FAIRDRIFT_THREADS"));

  std::string error;
  if (!SetUp(&fx, kSetupRepeats, &error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    TearDown(&fx);
    return 2;
  }
  const RatePlan& plan = fx.plan;
  const double S = options.seconds;
  std::printf("# setup %s s (median of %d cold set-ups); p99 limit %.0f us; "
              "%zu rows per request\n",
              Num(Median(fx.setup_seconds)).c_str(), kSetupRepeats,
              plan.p99_limit_us, plan.rows_per_request);

  // ---- serve phase
  StepResult low, high;
  RunLevels(&fx, plan.level_share * S, &low, &high);
  PrintStep("low", low, "");
  PrintStep("high", high, "");
  double max_rate = 0.0;
  int misses_in_a_row = 0;
  std::vector<StepResult> ladder;
  for (size_t i = 0; i < plan.ladder_rps.size() && misses_in_a_row < 2; ++i) {
    StepResult step =
        RunStep(&fx, plan.ladder_rps[i], plan.ladder_share * S, 10 + i, nullptr);
    std::string why;
    if (StepMet(fx, step, &why)) {
      max_rate = std::max(max_rate, plan.ladder_rps[i]);
      misses_in_a_row = 0;
    } else {
      ++misses_in_a_row;
    }
    PrintStep("ladder", step, why);
    ladder.push_back(std::move(step));
  }

  StepResult saturated;
  const std::vector<double> spans_rps = RunSaturated(
      &fx, plan.saturated_share * S, 4, kSaturatedSpans, &saturated);
  const double saturated_rps = Median(spans_rps);
  std::printf("# saturated    closed loop, median %.0f rows/s over spans",
              saturated_rps);
  for (double r : spans_rps) std::printf(" %.0f", r);
  std::printf("  requests %llu  failed %llu\n",
              static_cast<unsigned long long>(saturated.requests),
              static_cast<unsigned long long>(saturated.rows_failed()));

  // ---- rollout phase: background stream at the low rate
  std::atomic<bool> stop_background{false};
  StepResult background;
  std::thread background_thread([&] {
    background = RunStep(&fx, plan.low_rps, 150.0, 3, &stop_background);
  });
  RolloutOutcome rollouts;
  RunRollouts(&fx, plan.rollout_pairs, &rollouts);
  stop_background.store(true);
  background_thread.join();
  PrintStep("background", background, "(during rollouts)");

  // ---- checks
  bool correct = true;
  if (!rollouts.ok) std::printf("# rollout failed: %s\n", rollouts.error.c_str());
  StepResult total;
  std::vector<const StepResult*> steps = {&low, &high, &saturated,
                                         &background};
  for (const StepResult& s : ladder) steps.push_back(&s);
  std::vector<DeferredCheck> deferred;
  for (const StepResult* s : steps) {
    total.requests += s->requests;
    total.rows_attempted += s->rows_attempted;
    total.rows_ok += s->rows_ok;
    total.rows_shed += s->rows_shed;
    total.rows_invalid += s->rows_invalid;
    total.rows_deadline += s->rows_deadline;
    total.rows_transport += s->rows_transport;
    total.mismatches += s->mismatches;
    deferred.insert(deferred.end(), s->deferred.begin(), s->deferred.end());
  }
  uint64_t unknown = 0;
  const uint64_t deferred_bad =
      CheckDeferred(fx, deferred, rollouts.versions, &unknown);
  auto check = [&](bool ok, const std::string& what) {
    std::printf("# check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    correct = correct && ok;
  };
  check(total.mismatches == 0,
        "scores equal direct ScoreBatch (" +
            std::to_string(total.rows_ok - deferred.size()) + " rows)");
  check(deferred_bad == 0 && unknown == 0,
        "rollout-version scores equal direct scoring (" +
            std::to_string(deferred.size()) + " rows)");
  check(total.rows_attempted == total.rows_ok + total.rows_failed(),
        "attempted = completed + shed + invalid + failed");
  // RunRollouts stops at the first rollout whose check fails.
  check(rollouts.ok && !rollouts.records.empty(),
        "every rollout served its new version (" +
            std::to_string(rollouts.records.size()) + " rollouts)");
  uint64_t daemon_submitted = 0, daemon_completed = 0, reconnects = 0;
  double daemon_batches = 0, daemon_batch_rows = 0;
  if (options.workload == Workload::kServeRemote) {
    uint64_t accepted = 0;
    fd::net::RemoteFleet* fleet = fx.fleets[0].get();
    for (size_t s = 0; s < fleet->num_shards(); ++s) {
      auto v = fleet->shard_client(s)->Stats();  // over the wire
      if (!v.ok()) continue;
      daemon_submitted += v.value().submitted;
      daemon_completed += v.value().completed;
      daemon_batches += static_cast<double>(v.value().batches);
      daemon_batch_rows +=
          v.value().mean_batch_size * static_cast<double>(v.value().batches);
    }
    for (auto& daemon : fx.daemons) {
      accepted += daemon->counters().connections_accepted;
    }
    reconnects = accepted - fx.daemon_connections_after_setup;
    check(daemon_submitted == fx.remote_rows_sent.load() &&
              daemon_completed == fx.remote_rows_sent.load(),
          "daemon totals equal rows sent (" +
              std::to_string(fx.remote_rows_sent.load()) + ")");
  } else {
    fd::ServerStats::View v = fx.server->stats();
    check(v.submitted + v.shed_admission == fx.inproc_rows_sent.load() &&
              v.completed + v.shed_deadline + v.invalid == v.submitted,
          "server totals equal rows sent (" +
              std::to_string(fx.inproc_rows_sent.load()) + ")");
  }

  // ---- metrics
  std::vector<double> confair_s, diffair_s, freeze_s, save_s, load_s, swap_us,
      first_us, bytes, fit_c, fit_d;
  for (const RolloutRecord& r : rollouts.records) {
    const bool confair = r.method == fd::Method::kConfair;
    (confair ? confair_s : diffair_s).push_back(r.total_s);
    (confair ? fit_c : fit_d).push_back(r.fit_s);
    freeze_s.push_back(r.freeze_s);
    save_s.push_back(r.save_s);
    load_s.push_back(r.load_s);
    swap_us.push_back(r.swap_us);
    first_us.push_back(r.first_score_us);
    bytes.push_back(static_cast<double>(r.snapshot_bytes));
    std::printf("# rollout %-8s total %.3f s  fit %.3f  freeze %.4f  save "
                "%.4f  load %.4f  swap %.1f us  first score %.1f us  %llu "
                "bytes\n",
                fd::MethodName(r.method), r.total_s, r.fit_s, r.freeze_s,
                r.save_s, r.load_s, r.swap_us, r.first_score_us,
                static_cast<unsigned long long>(r.snapshot_bytes));
  }
  std::vector<Metric> e2e = {
      {"setup_s", Median(fx.setup_seconds), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"saturated_rps", saturated_rps, "1/s"},
      {"cpu_us_per_row.high",
       high.cpu_seconds * 1e6 /
           static_cast<double>(std::max<uint64_t>(high.rows_ok, 1)),
       "us"},
      {"rollout_confair_s", Median(confair_s), "s"},
      {"rollout_diffair_s", Median(diffair_s), "s"},
  };
  // Latencies go with the ledger, without a bound. On a shared host they
  // ride on the thread wake-ups inside the server, and another tenant's
  // load moved a p50 by a third and a p99 by half its median from run to
  // run, wider than any bound a comparison of two commits could use. So
  // did max_rate_rps, which a p99 limit decides.
  std::vector<Metric> latencies = {
      // Medians over the slices' quantiles (see StepQuantile, RunLevels).
      {"p50_us.low", StepQuantile(low, 0.5, plan.slices), "us"},
      {"p50_us.high", StepQuantile(high, 0.5, plan.slices), "us"},
      {"p99_us.low", StepQuantile(low, 0.99, plan.slices), "us"},
      {"p99_us.high", StepQuantile(high, 0.99, plan.slices), "us"},
      // Plain p99: the stalls a rollout causes recur with each Fit, so a
      // median over windows would flip between stalled and clean windows.
      {"rollout_serve_p99_us", Quantile(background.latency_us, 0.99), "us"},
      {"max_rate_rps", max_rate, "1/s"},
  };
  std::vector<Metric> measured = e2e;
  measured.insert(measured.end(), latencies.begin(), latencies.end());
  std::printf("# samples: low %zu, high %zu, rollout background %zu, "
              "rollouts %zu CONFAIR + %zu DIFFAIR, set-ups %zu\n",
              low.latency_us.size(), high.latency_us.size(),
              background.latency_us.size(),
              confair_s.size(), diffair_s.size(), fx.setup_seconds.size());

  std::vector<Metric> report;
  if (!options.trace) {
    report = e2e;
    SaveBaseline(options, measured);
  } else {
    const bool remote = options.workload == Workload::kServeRemote;
    const double attempted =
        static_cast<double>(std::max<uint64_t>(total.rows_attempted, 1));
    double mean_batch = remote ? daemon_batch_rows / std::max(daemon_batches, 1.0)
                               : fx.server->stats().mean_batch_size;
    std::vector<Metric> layers;
    ScoringLedger(&fx, mean_batch, &layers);
    WireLedger(&fx, &layers);
    auto layer = [&](const std::string& name) {
      for (const Metric& m : layers) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    const double wait_us = remote ? 0.0 : Median(high.wait_us);
    const double batch_cost_us =
        (layer("snapshot.score_ns_per_row") + layer("audit.fold_ns_per_row")) *
        mean_batch * 1e-3;
    report = latencies;
    std::vector<Metric> serve_layers = {
        {"serve.submit_ns", remote ? 0.0 : Median(high.submit_ns), "ns"},
        {"serve.wait_us", wait_us, "us"},
        {"serve.batch_rows", mean_batch, "rows"},
        {"serve.allocs_per_row",
         static_cast<double>(high.allocs) /
             static_cast<double>(std::max<uint64_t>(high.rows_ok, 1)),
         "count"},
        {"serve.shed", static_cast<double>(total.rows_shed), "count"},
        {"serve.invalid", static_cast<double>(total.rows_invalid), "count"},
        {"serve.gen_lag_us", Quantile(high.gen_lag_us, 0.99), "us"},
        {"serve.residue_us", remote ? 0.0 : wait_us - batch_cost_us, "us"},
        {"failed_share", static_cast<double>(total.rows_failed()) / attempted,
         "share"},
    };
    report.insert(report.end(), serve_layers.begin(), serve_layers.end());
    report.insert(report.end(), layers.begin(), layers.end());
    report.push_back({"remote.transport_errors",
                      static_cast<double>(total.rows_transport), "count"});
    report.push_back(
        {"remote.reconnects", static_cast<double>(reconnects), "count"});

    FitLedger fit;
    for (const FitLedger& l : rollouts.ledgers) {
      fit.encoder_s += l.encoder_s;
      fit.profile_s += l.profile_s;
      fit.confair_weights_s += l.confair_weights_s;
      fit.group_models_s += l.group_models_s;
      fit.learner_s += l.learner_s;
      fit.monitor_kde_s += l.monitor_kde_s;
    }
    const uint64_t kde_total = rollouts.kde_hits + rollouts.kde_misses;
    std::vector<Metric> rollout_layers = {
        {"fit.encoder_s", fit.encoder_s, "s"},
        {"fit.profile_s", fit.profile_s, "s"},
        {"fit.confair_weights_s", fit.confair_weights_s, "s"},
        {"fit.group_models_s", fit.group_models_s, "s"},
        {"fit.learner_s", fit.learner_s, "s"},
        {"fit.monitor_kde_s", fit.monitor_kde_s, "s"},
        {"fit.residue_s", Median(fit_c) + Median(fit_d) - fit.sum(), "s"},
        {"rollout.freeze_s", Median(freeze_s), "s"},
        {"rollout.save_s", Median(save_s), "s"},
        {"rollout.snapshot_bytes", Median(bytes), "bytes"},
        {"rollout.load_s", Median(load_s), "s"},
        {"rollout.swap_us", Median(swap_us), "us"},
        {"rollout.first_score_us", Median(first_us), "us"},
        {"kde.cache_hit_share",
         kde_total == 0 ? 0.0
                        : static_cast<double>(rollouts.kde_hits) /
                              static_cast<double>(kde_total),
         "share"},
    };
    report.insert(report.end(), rollout_layers.begin(), rollout_layers.end());

    // Tracing overhead: this traced run's end-to-end numbers and
    // latencies over the last untraced run of the same workload in this
    // checkout.
    std::map<std::string, double> base = LoadBaseline(options);
    for (const Metric& m : measured) {
      auto it = base.find(m.name);
      const double ratio =
          it != base.end() && it->second != 0.0 ? m.value / it->second : 0.0;
      std::printf("# trace overhead %-22s traced %12.3f / untraced %12.3f = "
                  "%.3fx\n",
                  m.name.c_str(), m.value,
                  it != base.end() ? it->second : std::nan(""), ratio);
      if (m.name == "p50_us.high" || m.name == "p99_us.high" ||
          m.name == "cpu_us_per_row.high" || m.name == "rollout_confair_s") {
        report.push_back({"trace.overhead." + m.name, ratio, "x"});
      }
    }

    // The ledger, path by path, with each residue row.
    std::printf("# ledger (per-layer, traced; %zu spans kept, %llu dropped)\n",
                spans.size(), static_cast<unsigned long long>(spans.dropped()));
    for (const Metric& m : report) {
      std::printf("#   %-34s %14.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string span_path = options.workdir + "/spans_" +
                                  options.workload_name + "_" +
                                  std::to_string(options.seed) + ".jsonl";
    if (!spans.WriteJsonl(span_path)) {
      std::fprintf(stderr, "could not write %s\n", span_path.c_str());
    }
  }
  TearDown(&fx);

  for (const Metric& m : report) {
    if (!ValidMetricName(m.name)) {
      std::fprintf(stderr, "invalid metric name '%s'\n", m.name.c_str());
      return 3;
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << total.rows_attempted
       << ", \"failed\": " << total.rows_failed() << ", \"metrics\": {";
  for (size_t i = 0; i < report.size(); ++i) {
    json << (i ? ", " : "") << "\"" << report[i].name << "\": {\"value\": "
         << Num(report[i].value) << ", \"unit\": \"" << report[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The library's global pool gets nproc - 2 workers unless
  // FAIRDRIFT_THREADS is already set: one core stays with the load
  // generator and one with the thread that feeds the pool (the server's
  // dispatcher, or the caller of Fit), so that no more threads are busy
  // than there are cores. Otherwise the scheduler, not the program, set
  // how fast a rollout or a saturated server ran.
  const unsigned cores = std::thread::hardware_concurrency();
  const std::string workers = std::to_string(cores > 2 ? cores - 2 : 1);
  setenv("FAIRDRIFT_THREADS", workers.c_str(), /*overwrite=*/0);
  perfbench::Options options;
  bool self_test = false;
  if (!perfbench::ParseArgs(argc, argv, &options, &self_test)) return 2;
  // The harness self-tests are cheap; every run starts with them.
  if (!perfbench::RunSelfTests()) return 3;
  if (self_test) {
    std::fprintf(stderr, "self-tests passed\n");
    return 0;
  }
  return perfbench::Run(options);
}

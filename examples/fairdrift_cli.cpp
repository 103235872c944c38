// fairdrift_cli — command-line driver over the library's public API.
//
//   fairdrift_cli list
//       Show the available simulated datasets and their Fig. 4 statistics.
//
//   fairdrift_cli eval --dataset meps --method confair [--learner lr|xgb]
//                      [--trials N] [--scale S] [--seed K] [--alpha A]
//       Run one intervention end-to-end and print the fairness report.
//       Methods: noint kam confair omn cap multi diffair.
//
//   fairdrift_cli constraints --dataset meps [--scale S]
//       Profile the (group x label) cells and print the discovered
//       conformance constraints (most important first).
//
//   fairdrift_cli weigh --dataset meps --out /tmp/weighted.csv [--alpha A]
//       Compute CONFAIR weights and export the weighted training data.
//
//   fairdrift_cli snapshot save --dataset meps --method confair
//                      --out /tmp/snap.bin [--learner lr|xgb|nb] [--alpha A]
//                      [--no-density] [--scores-out FILE] [--score-rows N]
//       Train the intervention, freeze it, and persist the snapshot. With
//       --scores-out, also score N deterministic request rows and write
//       their results in exact hex-float form. Both snapshot commands
//       print the density monitor's floor, and say when it sits at the
//       guard value, where the monitor cannot flag any row.
//
//   fairdrift_cli snapshot load-and-score --in /tmp/snap.bin
//                      [--score-rows N] [--scores-out FILE]
//       Load a snapshot (saved by any process), serve it through a
//       ScoringServer, and score the same deterministic request rows.
//       Diffing the two --scores-out files proves cross-process bitwise
//       score identity.
//
//   fairdrift_cli serve --in /tmp/snap.bin [--shards N] [--poll-ms M]
//                      [--routing rr|least|hash] [--wait-for-reload SECS]
//                      [--allow-partial] [--health-ms M]
//                      [--quarantine-after N]
//       Serve the snapshot through a sharded ScoringFleet and watch the
//       file: when another process saves a new snapshot over it, the
//       fleet rolls the update shard-by-shard with no restart (retrying
//       stalled shards with backoff and rolling back on exhaustion).
//       With --wait-for-reload the command blocks until that happens and
//       exits 0 only if the served snapshot_version advanced — the CI
//       hot-reload smoke. --health-ms starts a HealthMonitor that ejects
//       and restarts wedged shards; --allow-partial serves snapshots
//       whose optional monitor tail is corrupt (monitoring disabled);
//       --quarantine-after bounds retries of a corrupt file identity.
//       FAULT_SEED / FAULT_SITES env vars arm deterministic fault
//       injection (see src/util/fault.h).
//
//   fairdrift_cli shard --listen PORT --in /tmp/snap.bin
//                      [--state-dir DIR] [--allow-partial] [--run-secs S]
//       Serve one snapshot over TCP (the network tier's shard daemon).
//       With --state-dir, pushed snapshots persist there and a restart
//       prefers the directory's MANIFEST over --in.
//
//   fairdrift_cli route --listen PORT --connect h:p,h:p
//                      [--routing rr|least|hash] [--probe-ms M]
//       Frontend router over shard daemons: score fan-out + failover,
//       health probing (eject/readmit), wire-merged stats, and rolling
//       relay of snapshot pushes.
//
//   fairdrift_cli push --connect HOST:PORT --in /tmp/snap.bin
//       Incremental snapshot push: the receiver answers the manifest
//       with the chunks it needs; only changed artifacts travel.
//
//   fairdrift_cli net-score --connect HOST:PORT --in /tmp/snap.bin
//                      [--score-rows N] [--scores-out FILE]
//       Score the deterministic request rows through the wire; the
//       scores file diffs bitwise against in-process scoring.
//
//   fairdrift_cli metrics --connect HOST:PORT
//       Scrape a shard daemon's or router's Prometheus-style metrics
//       exposition (the kMetrics frame) and print it.
//
//   fairdrift_cli trace <verify|show> <log>
//       Walk a trace span log's checksum chain across rotated segments
//       (verify), or print every whole-span JSON record (show).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/experiment.h"
#include "bench_common/table.h"
#include "cc/explain.h"
#include "core/confair.h"
#include "core/deployment.h"
#include "core/profile.h"
#include "data/csv.h"
#include "data/weights_io.h"
#include "data/split.h"
#include "datagen/realworld.h"
#include "serve/audit/audit_log.h"
#include "serve/audit/replay.h"
#include "serve/fleet/fleet.h"
#include "serve/fleet/health.h"
#include "serve/fleet/watcher.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/router.h"
#include "serve/net/shard_daemon.h"
#include "serve/net/wire.h"
#include "serve/server.h"
#include "serve/snapshot_io.h"
#include "serve/trace/trace_log.h"
#include "serve/snapshot_manifest.h"
#include "util/cli.h"
#include "util/fault.h"
#include "util/string_util.h"

using namespace fairdrift;

namespace {

/// Prints a failed `status` to stderr; true when it failed.
bool Failed(const Status& status) {
  if (status.ok()) return false;
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return true;
}

int CmdList() {
  AsciiTable table({"name", "paper size", "numeric", "categorical",
                    "minority", "% pos in U"});
  for (const RealDatasetSpec& spec : RealDatasetSuite()) {
    table.AddRow({spec.name, StrFormat("%zu", spec.full_size),
                  StrFormat("%d", spec.n_numeric),
                  StrFormat("%d", spec.n_categorical),
                  StrFormat("%.1f%%", 100 * spec.minority_fraction),
                  StrFormat("%.1f%%", 100 * spec.pos_rate_minority)});
  }
  table.Print();
  std::printf("\nuse --dataset <name> (case-insensitive) with other "
              "subcommands.\n");
  return 0;
}

Result<Dataset> LoadDataset(const CliFlags& flags) {
  std::string name = flags.GetString("dataset", "meps");
  Result<RealDatasetSpec> spec = FindRealDatasetSpec(name);
  if (!spec.ok()) return spec.status();
  double scale = flags.GetDouble("scale", 0.1);
  return MakeRealWorldLike(spec.value(), scale);
}

Result<Method> ParseMethod(const std::string& name) {
  std::string m = ToLower(name);
  if (m == "noint" || m == "none") return Method::kNoIntervention;
  if (m == "kam") return Method::kKamiran;
  if (m == "confair") return Method::kConfair;
  if (m == "omn") return Method::kOmnifair;
  if (m == "cap") return Method::kCapuchin;
  if (m == "multi") return Method::kMultiModel;
  if (m == "diffair") return Method::kDiffair;
  return Status::InvalidArgument("unknown method '" + name + "'");
}

int CmdEval(const CliFlags& flags) {
  Result<Dataset> data = LoadDataset(flags);
  if (Failed(data.status())) return 1;
  Result<Method> method = ParseMethod(flags.GetString("method", "confair"));
  if (Failed(method.status())) return 1;
  PipelineOptions opts;
  opts.method = method.value();
  std::string learner = ToLower(flags.GetString("learner", "lr"));
  opts.learner = learner == "xgb"  ? LearnerKind::kGradientBoosting
                 : learner == "nb" ? LearnerKind::kNaiveBayes
                                   : LearnerKind::kLogisticRegression;
  if (flags.Has("alpha")) {
    opts.tune_confair = false;
    opts.confair.alpha_u = flags.GetDouble("alpha", 1.0);
    opts.confair.alpha_w = opts.confair.alpha_u / 2.0;
  }
  int trials = static_cast<int>(flags.GetInt("trials", 3));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  TrialSummary s = RunTrials(*data, opts, trials, seed);
  if (s.trials_succeeded == 0) {
    std::fprintf(stderr, "all trials failed: %s\n", s.first_error.c_str());
    return 1;
  }
  std::printf("%s on %s (%s, %d trial(s), n=%zu)\n",
              MethodName(opts.method),
              flags.GetString("dataset", "meps").c_str(),
              LearnerKindName(opts.learner), s.trials_succeeded,
              data->size());
  std::printf("  %s\n", FormatReport(s.report).c_str());
  std::printf("  SR: %.3f (U) vs %.3f (W)   TPR: %.3f vs %.3f   "
              "FPR: %.3f vs %.3f\n",
              s.report.stats.minority.SelectionRate(),
              s.report.stats.majority.SelectionRate(),
              s.report.stats.minority.TPR(), s.report.stats.majority.TPR(),
              s.report.stats.minority.FPR(), s.report.stats.majority.FPR());
  if (opts.method == Method::kConfair) {
    std::printf("  alpha_u = %.2f (%s)\n", s.tuned_alpha,
                flags.Has("alpha") ? "user-supplied" : "tuned");
  }
  if (opts.method == Method::kOmnifair) {
    std::printf("  lambda = %.2f\n", s.tuned_lambda);
  }
  std::printf("  runtime %.3fs/trial, %d trial(s) failed\n",
              s.runtime_seconds, s.trials_failed);
  return 0;
}

int CmdConstraints(const CliFlags& flags) {
  Result<Dataset> data = LoadDataset(flags);
  if (Failed(data.status())) return 1;
  ProfileOptions opts;
  Result<GroupLabelProfile> profile = GroupLabelProfile::Profile(*data, opts);
  if (Failed(profile.status())) return 1;
  std::vector<std::string> names;
  for (size_t j = 0; j < data->num_features(); ++j) {
    if (data->column(j).is_numeric()) names.push_back(data->column(j).name());
  }
  for (int g = 0; g < profile->num_groups(); ++g) {
    for (int y = 0; y < profile->num_classes(); ++y) {
      const auto& cell = profile->cell(g, y);
      std::printf("\ncell (%s, y=%d): %s\n",
                  g == kMinorityGroup ? "minority U" : "majority W", y,
                  cell.has_value() ? "" : "(empty)");
      if (cell.has_value()) {
        std::fputs(DescribeConstraintSet(*cell, names).c_str(), stdout);
      }
    }
  }
  return 0;
}

int CmdWeigh(const CliFlags& flags) {
  Result<Dataset> data = LoadDataset(flags);
  if (Failed(data.status())) return 1;
  ConfairOptions opts;
  opts.alpha_u = flags.GetDouble("alpha", 1.0);
  opts.alpha_w = opts.alpha_u / 2.0;
  Result<ConfairWeights> weights = ComputeConfairWeights(*data, opts);
  if (Failed(weights.status())) return 1;
  Dataset out = *data;
  if (!out.SetWeights(weights->weights).ok()) return 1;
  std::string path = flags.GetString("out", "/tmp/fairdrift_weighted.csv");
  Status st = WriteCsv(out, path);
  if (Failed(st)) return 1;
  std::printf("CONFAIR weights (alpha_u=%.2f): boosted %zu + %zu of %zu "
              "tuples; written to %s\n",
              opts.alpha_u, weights->boosted_primary,
              weights->boosted_secondary, data->size(), path.c_str());
  // Optional standalone weight artifact, fingerprinted against the data
  // (the model-agnostic hand-off of Fig. 7).
  std::string weights_path = flags.GetString("weights-out", "");
  if (!weights_path.empty()) {
    st = WriteWeightsFor(*data, weights->weights, weights_path);
    if (Failed(st)) return 1;
    std::printf("standalone weight file: %s (fingerprint %016llx)\n",
                weights_path.c_str(),
                static_cast<unsigned long long>(DatasetFingerprint(*data)));
  }
  return 0;
}

// ------------------------------------------------------------- snapshot

/// Deterministic request rows for a snapshot's schema: numeric fields
/// draw standard Gaussians, categorical fields uniform codes. Both
/// `snapshot save` and `snapshot load-and-score` generate the identical
/// set, so their score files diff clean across processes.
Matrix MakeSchemaRequests(const Schema& schema, size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, schema.num_fields());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < schema.num_fields(); ++j) {
      const FieldSpec& field = schema.field(j);
      rows.At(i, j) =
          field.type == ColumnType::kNumeric
              ? rng.Gaussian()
              : static_cast<double>(
                    rng.UniformInt(0, field.num_categories - 1));
    }
  }
  return rows;
}

/// Writes scores in exact hex-float form (%a round-trips every bit), one
/// row per request — the cross-process diff artifact.
int WriteScoresFile(const std::vector<ScoreResult>& scores,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return 1;
  }
  for (const ScoreResult& s : scores) {
    std::fprintf(f, "label=%d group=%d p=%a margin=%a logd=%a outlier=%d\n",
                 s.label, s.routed_group, s.probability, s.margin,
                 s.log_density, s.density_outlier ? 1 : 0);
  }
  std::fclose(f);
  return 0;
}

/// Prints the density monitor's floor. A floor at the estimator's guard
/// (the log-density of a zero kernel sum) is below no row's log-density,
/// so that monitor can never flag anything; say so instead of letting a
/// zero outlier count look like clean traffic.
void PrintMonitorFloor(const ModelSnapshot& snapshot) {
  if (!snapshot.has_density()) return;
  double floor = snapshot.density_floor();
  double guard = snapshot.density()->LogDensityGuard();
  std::printf("density monitor floor %.4f (guard %.4f)", floor, guard);
  if (floor <= guard) {
    std::printf(": the floor sits at the guard, so the monitor cannot flag "
                "any row");
  }
  std::printf("\n");
}

/// Parses `--monitor exact|bounded|sampled` (plus `--sample-modulus N`
/// for sampled) into a MonitorSpec. Returns false and complains on an
/// unknown mode.
bool ParseMonitorFlag(const CliFlags& flags, MonitorSpec* spec) {
  if (!flags.Has("monitor")) return true;
  std::string mode = ToLower(flags.GetString("monitor", "exact"));
  if (mode == "exact") {
    spec->mode = MonitorMode::kExact;
  } else if (mode == "bounded") {
    spec->mode = MonitorMode::kBounded;
  } else if (mode == "sampled") {
    spec->mode = MonitorMode::kSampled;
  } else {
    std::fprintf(stderr,
                 "--monitor must be exact, bounded, or sampled (got '%s')\n",
                 mode.c_str());
    return false;
  }
  long modulus = flags.GetInt("sample-modulus", 16);
  if (modulus <= 0) {
    std::fprintf(stderr, "--sample-modulus must be positive\n");
    return false;
  }
  spec->sample_modulus = static_cast<uint32_t>(modulus);
  return true;
}

int CmdSnapshotSave(const CliFlags& flags) {
  Result<Dataset> data = LoadDataset(flags);
  if (Failed(data.status())) return 1;
  Result<Method> method = ParseMethod(flags.GetString("method", "confair"));
  if (Failed(method.status())) return 1;
  TrainSpec spec = ServingSpec(method.value());
  std::string learner = ToLower(flags.GetString("learner", "lr"));
  spec.learner = learner == "xgb"  ? LearnerKind::kGradientBoosting
                 : learner == "nb" ? LearnerKind::kNaiveBayes
                                   : LearnerKind::kLogisticRegression;
  if (flags.Has("alpha")) {
    spec.confair.alpha_u = flags.GetDouble("alpha", 1.0);
    spec.confair.alpha_w = spec.confair.alpha_u / 2.0;
  }
  if (flags.Has("no-density")) spec.include_density = false;
  // --group-field: persist which categorical request field carries the
  // sensitive group id (snapshot format v4), so the serving audit tier
  // windows fairness metrics without clients attaching group metadata.
  spec.audit_group_field = flags.GetString("group-field", "");
  // The monitoring policy rides with the artifact (snapshot format v3):
  // whatever is chosen here is what every server loading this snapshot
  // runs, unless a deployment overrides it with serve --monitor.
  if (!ParseMonitorFlag(flags, &spec.monitor)) return 1;

  // OMN calibrates lambda against validation data; carve a split off
  // the dataset for it. The non-calibrating methods train on everything.
  size_t train_size = data->size();
  FitStageSeconds stages;
  auto build = [&]() -> Result<std::shared_ptr<const ModelSnapshot>> {
    if (spec.method == Method::kOmnifair) {
      Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
      Result<TrainValTest> split = SplitTrainValTest(*data, &rng, 0.85, 0.15);
      if (!split.ok()) return split.status();
      train_size = split->train.size();
      return BuildSnapshot(split->train, split->val, spec, &stages);
    }
    return BuildSnapshot(*data, Dataset(), spec, &stages);
  };
  Result<std::shared_ptr<const ModelSnapshot>> snapshot = build();
  if (Failed(snapshot.status())) return 1;
  std::string path = flags.GetString("out", "/tmp/fairdrift_snapshot.bin");
  Status st = SaveSnapshot(*snapshot.value(), path);
  if (Failed(st)) return 1;
  std::printf("%s snapshot (%s, %d group model(s)%s%s) trained on %zu "
              "tuples -> %s\n",
              MethodName(spec.method), LearnerKindName(spec.learner),
              snapshot.value()->num_groups(),
              snapshot.value()->has_profile() ? ", profile" : "",
              snapshot.value()->has_density() ? ", density monitor" : "",
              train_size, path.c_str());
  std::printf("fit stages: encoder %.3f s, intervention %.3f s, learner "
              "%.3f s, monitor %.3f s\n",
              stages.encoder, stages.intervention, stages.learner,
              stages.monitor);
  PrintMonitorFloor(*snapshot.value());

  std::string scores_path = flags.GetString("scores-out", "");
  if (!scores_path.empty()) {
    size_t n = static_cast<size_t>(flags.GetInt("score-rows", 256));
    uint64_t seed = static_cast<uint64_t>(flags.GetInt("score-seed", 99));
    Matrix requests =
        MakeSchemaRequests(snapshot.value()->schema(), n, seed);
    Result<std::vector<ScoreResult>> scores =
        snapshot.value()->ScoreBatch(requests);
    if (Failed(scores.status())) return 1;
    if (WriteScoresFile(scores.value(), scores_path) != 0) return 1;
    std::printf("scored %zu deterministic rows -> %s\n", n,
                scores_path.c_str());
  }
  return 0;
}

int CmdSnapshotLoadAndScore(const CliFlags& flags) {
  std::string path = flags.GetString("in", "/tmp/fairdrift_snapshot.bin");
  Result<std::shared_ptr<const ModelSnapshot>> snapshot = LoadSnapshot(path);
  if (Failed(snapshot.status())) return 1;
  std::printf("loaded %s: %zu fields, %d group model(s)%s%s\n", path.c_str(),
              snapshot.value()->num_features(),
              snapshot.value()->num_groups(),
              snapshot.value()->has_profile() ? ", profile" : "",
              snapshot.value()->has_density() ? ", density monitor" : "");
  PrintMonitorFloor(*snapshot.value());

  // Serve the loaded snapshot through the full async path — the
  // two-process deployment shape end to end.
  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot.value());
  if (Failed(server.status())) return 1;
  size_t n = static_cast<size_t>(flags.GetInt("score-rows", 256));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("score-seed", 99));
  Matrix requests = MakeSchemaRequests(snapshot.value()->schema(), n, seed);
  std::vector<ScoreResult> scores;
  scores.reserve(n);
  size_t outliers = 0;
  for (size_t i = 0; i < n; ++i) {
    Result<ScoreResult> r = server.value()->ScoreSync(requests.Row(i));
    if (!r.ok()) {
      std::fprintf(stderr, "row %zu: %s\n", i, r.status().ToString().c_str());
      return 1;
    }
    if (r.value().density_outlier) ++outliers;
    scores.push_back(r.value());
  }
  ServerStats::View stats = server.value()->stats();
  std::printf("scored %zu rows through the server (mean batch %.1f, "
              "p50 %.0fus, p99 %.0fus, %zu density outlier(s))\n",
              n, stats.mean_batch_size, stats.p50_latency_us,
              stats.p99_latency_us, outliers);

  std::string scores_path = flags.GetString("scores-out", "");
  if (!scores_path.empty()) {
    if (WriteScoresFile(scores, scores_path) != 0) return 1;
    std::printf("scores -> %s\n", scores_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- serve

/// Scores `n` deterministic rows through the fleet and returns the
/// snapshot version that served them (the maximum seen — during a
/// rollout different shards may answer from adjacent versions).
Result<uint64_t> ServeProbeRows(ScoringFleet* fleet, const Schema& schema,
                                size_t n, uint64_t seed) {
  Matrix requests = MakeSchemaRequests(schema, n, seed);
  uint64_t version = 0;
  for (size_t i = 0; i < n; ++i) {
    Result<ScoreResult> r = fleet->ScoreSync(requests.Row(i));
    if (!r.ok()) return r.status();
    if (r.value().snapshot_version > version) {
      version = r.value().snapshot_version;
    }
  }
  return version;
}

int CmdServe(const CliFlags& flags) {
  std::string path = flags.GetString("in", "/tmp/fairdrift_snapshot.bin");
  // --allow-partial: a snapshot whose optional monitor tail is corrupt
  // still serves (density monitoring disabled) instead of failing the
  // load — both here and in the hot-reload watcher.
  SnapshotLoadMode load_mode = flags.GetBool("allow-partial", false)
                                   ? SnapshotLoadMode::kAllowPartial
                                   : SnapshotLoadMode::kStrict;
  SnapshotLoadReport load_report;
  // Load the snapshot AND capture its file signature consistently (probe
  // before and after the load; retry if a save raced in between). The
  // signature seeds the watcher baseline, so a snapshot saved between
  // this load and the watcher start still triggers a rollout instead of
  // being silently adopted as already-served.
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      Status::Internal("unreachable");
  Result<SnapshotFileSignature> signature =
      Status::Internal("unreachable");
  for (int attempt = 0; attempt < 3; ++attempt) {
    signature = ProbeSnapshotFile(path);
    if (!signature.ok()) break;
    snapshot = LoadSnapshot(path, load_mode, &load_report);
    if (!snapshot.ok()) break;
    Result<SnapshotFileSignature> after = ProbeSnapshotFile(path);
    if (after.ok() && after.value().checksum == signature.value().checksum) {
      break;
    }
    snapshot = Status::Unavailable("snapshot changed while loading");
  }
  if (Failed(snapshot.status())) return 1;
  Schema schema = snapshot.value()->schema();

  FleetOptions options;
  options.num_shards = static_cast<size_t>(flags.GetInt("shards", 2));
  std::string routing = ToLower(flags.GetString("routing", "least"));
  options.routing = routing == "rr"     ? FleetRoutingPolicy::kRoundRobin
                    : routing == "hash" ? FleetRoutingPolicy::kHashRow
                                        : FleetRoutingPolicy::kLeastQueueDepth;
  // serve --monitor pins a per-deployment monitoring policy that
  // survives hot reloads; without it every loaded snapshot's own
  // persisted spec is honored.
  if (flags.Has("monitor")) {
    MonitorSpec override_spec;
    if (!ParseMonitorFlag(flags, &override_spec)) return 1;
    options.shard.monitor_override = override_spec;
  }
  // Fairness audit tier: --audit-log (or --audit-window) turns it on.
  if (flags.Has("audit-log") || flags.Has("audit-window")) {
    options.audit.enabled = true;
    options.audit.log_path = flags.GetString("audit-log", "");
    long window = flags.GetInt("audit-window", 256);
    if (window <= 0) {
      std::fprintf(stderr, "--audit-window must be positive\n");
      return 1;
    }
    options.audit.window_size = static_cast<size_t>(window);
    options.audit.alert.di_star_floor = flags.GetDouble("di-floor", 0.8);
    options.audit.alert.spd_ceiling = flags.GetDouble("spd-ceiling", 1.0);
    options.audit.alert.eod_ceiling = flags.GetDouble("eod-ceiling", 1.0);
    options.audit.alert.trigger_windows =
        static_cast<size_t>(flags.GetInt("alert-after", 2));
    options.audit.alert.clear_windows =
        static_cast<size_t>(flags.GetInt("alert-clear", 2));
    options.audit.fsync_each_append = flags.GetBool("audit-fsync", false);
    std::string rows_mode = ToLower(flags.GetString("audit-rows", "flagged"));
    if (rows_mode == "flagged") {
      options.audit.row_logging = AuditRowLogging::kFlaggedWindows;
    } else if (rows_mode == "all") {
      options.audit.row_logging = AuditRowLogging::kAll;
    } else if (rows_mode == "none") {
      options.audit.row_logging = AuditRowLogging::kNone;
    } else {
      std::fprintf(stderr,
                   "--audit-rows must be flagged, all, or none (got '%s')\n",
                   rows_mode.c_str());
      return 1;
    }
  }
  Result<std::unique_ptr<ScoringFleet>> fleet =
      ScoringFleet::Create(snapshot.value(), options);
  if (Failed(fleet.status())) return 1;

  size_t rows = static_cast<size_t>(flags.GetInt("score-rows", 64));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("score-seed", 99));
  Result<uint64_t> served = ServeProbeRows(fleet.value().get(), schema,
                                           rows, seed);
  if (Failed(served.status())) return 1;
  std::printf("serving %s: %zu shard(s), %s routing, snapshot_version=%llu\n",
              path.c_str(), fleet.value()->num_shards(),
              FleetRoutingPolicyName(options.routing),
              static_cast<unsigned long long>(served.value()));
  if (load_report.outcome == SnapshotLoadReport::Outcome::kDegraded) {
    std::printf("degraded: %s\n", load_report.degraded_note.c_str());
  }
  std::fflush(stdout);

  // --health-ms: probe the shards for wedges; eject, restart with the
  // current snapshot, and readmit automatically.
  HealthMonitor health;
  long health_ms = flags.GetInt("health-ms", 0);
  if (health_ms > 0) {
    HealthMonitorOptions health_options;
    health_options.probe_interval = std::chrono::milliseconds(health_ms);
    Status started = health.Start(fleet.value().get(), health_options);
    if (Failed(started)) return 1;
  }

  // Periodic status lines (--status-ms): one "status:" line with each
  // shard's served snapshot version, queue depth, and density outlier
  // rate, plus one greppable "audit:" line when the audit tier is on.
  ScoringFleet* fleet_raw = fleet.value().get();
  auto print_status = [fleet_raw] {
    FleetStatsView fs = fleet_raw->stats();
    std::string line = "status:";
    for (size_t s = 0; s < fs.num_shards; ++s) {
      line += StrFormat(
          " shard%zu[v=%llu q=%zu outlier=%.4f%s]", s,
          static_cast<unsigned long long>(fs.shard_versions[s]),
          fs.queue_depths[s], fs.shard_outlier_rates[s],
          fs.shard_ejected[s] != 0 ? " EJECTED" : "");
    }
    std::printf("%s\n", line.c_str());
    if (fs.audit.enabled) {
      const FleetAuditView& a = fs.audit;
      std::printf(
          "audit: obs=%llu windows=%llu breaches=%llu alerts=%llu "
          "alerting=%zu fleet[w=%llu b=%llu a=%llu%s dropped=%llu] "
          "di*=%.4f spd=%.4f log[%llu rec, %llu fail]%s%s\n",
          static_cast<unsigned long long>(a.observations),
          static_cast<unsigned long long>(a.windows),
          static_cast<unsigned long long>(a.breaches),
          static_cast<unsigned long long>(a.alerts_raised),
          a.shards_alerting,
          static_cast<unsigned long long>(a.fleet_windows),
          static_cast<unsigned long long>(a.fleet_breaches),
          static_cast<unsigned long long>(a.fleet_alerts_raised),
          a.fleet_alert_active ? " ACTIVE" : "",
          static_cast<unsigned long long>(a.fleet_windows_dropped),
          a.cumulative.di_star, a.cumulative.spd,
          static_cast<unsigned long long>(a.log_records),
          static_cast<unsigned long long>(a.log_failures),
          a.log_last_error.empty() ? "" : "; last error: ",
          a.log_last_error.c_str());
    }
    std::fflush(stdout);
  };
  struct StatusLoop {
    std::atomic<bool> stop{false};
    std::thread thread;
    ~StatusLoop() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } status_loop;
  long status_ms = flags.GetInt("status-ms", 0);
  if (status_ms > 0) {
    status_loop.thread = std::thread([&status_loop, status_ms, print_status] {
      while (!status_loop.stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(status_ms));
        if (status_loop.stop.load()) break;
        print_status();
      }
    });
  }

  // --drive-rows: synthesize labeled two-group traffic through the fleet
  // so the audit tier has something to window. Group g's rows carry code
  // g in the snapshot's group field (when it declares one) AND explicit
  // RequestAuditInfo metadata with a deterministic ground-truth label, so
  // DI/SPD *and* the equalized-odds metrics are all live. --drive-drift
  // shifts group 1's numeric attributes off the training manifold — the
  // drifted-traffic scenario whose skewed predictions trip the alert.
  size_t drive_rows = static_cast<size_t>(flags.GetInt("drive-rows", 0));
  if (drive_rows > 0) {
    double drift = flags.GetDouble("drive-drift", 0.0);
    Rng drive_rng(static_cast<uint64_t>(flags.GetInt("drive-seed", 7)));
    int gf = snapshot.value()->group_field();
    std::vector<ScoreTicket> tickets;
    tickets.reserve(drive_rows);
    size_t shed = 0;
    for (size_t i = 0; i < drive_rows; ++i) {
      int group = static_cast<int>(i % 2);
      std::vector<double> row(schema.num_fields());
      for (size_t j = 0; j < schema.num_fields(); ++j) {
        const FieldSpec& field = schema.field(j);
        row[j] = field.type == ColumnType::kNumeric
                     ? drive_rng.Gaussian() + (group == 1 ? drift : 0.0)
                     : static_cast<double>(
                           drive_rng.UniformInt(0, field.num_categories - 1));
      }
      if (gf >= 0) row[static_cast<size_t>(gf)] = static_cast<double>(group);
      RequestAuditInfo info;
      info.group = group;
      // Deterministic ground truth with a real group gap, so the
      // equalized-odds windows measure something nonzero.
      info.label = drive_rng.Uniform() < (group == 1 ? 0.35 : 0.6) ? 1 : 0;
      Result<ScoreTicket> ticket = fleet.value()->Submit(row, info);
      if (!ticket.ok()) {
        ++shed;
        continue;
      }
      tickets.push_back(std::move(ticket).value());
    }
    for (ScoreTicket& ticket : tickets) (void)ticket.Wait();
    if (fleet.value()->auditor() != nullptr) {
      Status flushed = fleet.value()->auditor()->Flush();
      if (!flushed.ok()) {
        std::fprintf(stderr, "audit flush: %s\n",
                     flushed.ToString().c_str());
      }
    }
    std::printf("drive: scored %zu row(s) (%zu shed, drift %.2f)\n",
                tickets.size(), shed, drift);
    print_status();
  }

  // Hot-reload loop: watch the file and roll every new snapshot through
  // the fleet shard-by-shard.
  std::mutex mu;
  std::condition_variable reloaded_cv;
  uint64_t reloads = 0;
  bool rollout_failed = false;
  SnapshotWatcherOptions watch;
  watch.poll_interval =
      std::chrono::milliseconds(flags.GetInt("poll-ms", 200));
  watch.baseline = signature.value();
  watch.load_mode = load_mode;
  watch.quarantine_after =
      static_cast<size_t>(flags.GetInt("quarantine-after", 3));
  ScoringFleet* fleet_ptr = fleet.value().get();
  Result<std::unique_ptr<SnapshotWatcher>> watcher = SnapshotWatcher::Start(
      path,
      [&](std::shared_ptr<const ModelSnapshot> fresh) {
        Result<RollingUpdateReport> report =
            fleet_ptr->RollingUpdate(std::move(fresh));
        std::lock_guard<std::mutex> lock(mu);
        if (report.ok()) {
          const RollingUpdateReport& r = report.value();
          if (r.state == RolloutState::kCommitted) ++reloads;
          else rollout_failed = true;
          std::printf("rollout %s: %zu/%zu shard(s) updated, "
                      "%zu attempt(s), max stall %.1fms%s%s\n",
                      RolloutStateName(r.state), r.shards_updated,
                      fleet_ptr->num_shards(), r.total_attempts,
                      r.max_stall_ms, r.failure.empty() ? "" : "; ",
                      r.failure.c_str());
        } else {
          rollout_failed = true;
          std::printf("rollout failed: %s\n",
                      report.status().ToString().c_str());
        }
        std::fflush(stdout);
        reloaded_cv.notify_all();
      },
      watch);
  if (Failed(watcher.status())) return 1;

  long wait_secs = flags.GetInt("wait-for-reload", 0);
  if (wait_secs <= 0) {
    FleetStatsView stats = fleet.value()->stats();
    std::printf("scored %llu row(s), fleet p99 %.0fus; no --wait-for-reload, "
                "exiting\n",
                static_cast<unsigned long long>(stats.completed),
                stats.p99_latency_us);
    return 0;
  }

  // CI shape: block until another process saves a new snapshot over
  // `path`, prove the served version advanced, exit 0.
  {
    std::unique_lock<std::mutex> lock(mu);
    bool got = reloaded_cv.wait_for(
        lock, std::chrono::seconds(wait_secs),
        [&] { return reloads > 0 || rollout_failed; });
    if (!got || rollout_failed) {
      SnapshotWatcher::View wv = watcher.value()->stats();
      std::fprintf(stderr,
                   "no reload within %lds (%llu polls, %llu failed loads, "
                   "%llu quarantined, %llu backoff polls%s%s)\n",
                   wait_secs, static_cast<unsigned long long>(wv.polls),
                   static_cast<unsigned long long>(wv.failed_loads),
                   static_cast<unsigned long long>(wv.quarantined_identities),
                   static_cast<unsigned long long>(wv.backoff_polls),
                   wv.last_error.empty() ? "" : ": ",
                   wv.last_error.c_str());
      return 1;
    }
  }
  Result<uint64_t> after = ServeProbeRows(fleet.value().get(), schema,
                                          rows, seed);
  if (Failed(after.status())) return 1;
  FleetStatsView stats = fleet.value()->stats();
  SnapshotWatcher::View wv = watcher.value()->stats();
  std::printf("reloaded: snapshot_version %llu -> %llu (version skew "
              "%llu..%llu, %llu rolling update(s), %llu rollback(s), "
              "%llu failed load(s), %llu quarantined, %llu degraded)\n",
              static_cast<unsigned long long>(served.value()),
              static_cast<unsigned long long>(after.value()),
              static_cast<unsigned long long>(stats.min_snapshot_version),
              static_cast<unsigned long long>(stats.max_snapshot_version),
              static_cast<unsigned long long>(stats.rolling_updates),
              static_cast<unsigned long long>(stats.rollbacks),
              static_cast<unsigned long long>(wv.failed_loads),
              static_cast<unsigned long long>(wv.quarantined_identities),
              static_cast<unsigned long long>(wv.degraded_loads));
  if (!wv.last_degraded_note.empty()) {
    std::printf("degraded: %s\n", wv.last_degraded_note.c_str());
  }
  if (after.value() <= served.value()) {
    std::fprintf(stderr, "served snapshot_version did not advance\n");
    return 1;
  }
  return 0;
}

int CmdSnapshot(const CliFlags& flags) {
  std::string sub =
      flags.positional().size() < 2 ? "" : flags.positional()[1];
  if (sub == "save") return CmdSnapshotSave(flags);
  if (sub == "load-and-score") return CmdSnapshotLoadAndScore(flags);
  std::fprintf(stderr,
               "usage: fairdrift_cli snapshot <save|load-and-score> [flags]\n");
  return 1;
}

// ---------------------------------------------------------------- audit

std::string AuditLogArg(const CliFlags& flags) {
  if (flags.positional().size() >= 3) return flags.positional()[2];
  return flags.GetString("in", "");
}

/// `audit verify <log>`: walk the checksum chain. Exit 0 on an intact
/// log (a torn final record — the crash signature — is tolerated with a
/// warning); on corruption the exit code is the numeric StatusCode
/// (kDataLoss), so scripts can distinguish "damaged evidence" from
/// ordinary failures.
int CmdAuditVerify(const CliFlags& flags) {
  std::string path = AuditLogArg(flags);
  if (path.empty()) {
    std::fprintf(stderr, "usage: fairdrift_cli audit verify <log>\n");
    return 1;
  }
  // Chain-walk rotated segments (path.1 .. path.N) before the active
  // file, so a rotated log verifies as one continuous chain.
  Result<AuditVerifyReport> report = VerifyAuditLogChain(path);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return static_cast<int>(report.status().code());
  }
  const AuditVerifyReport& r = report.value();
  std::printf("verified %s: %llu record(s) across %llu segment(s), "
              "chain %016llx\n",
              path.c_str(), static_cast<unsigned long long>(r.records),
              static_cast<unsigned long long>(r.segments),
              static_cast<unsigned long long>(r.chain));
  if (r.torn_tail) {
    std::printf("warning: torn final record (%llu trailing byte(s), no "
                "newline) — a crash mid-append; every complete record "
                "verified\n",
                static_cast<unsigned long long>(r.torn_bytes));
  }
  return 0;
}

/// `audit replay --snapshot FILE <log>`: re-score every logged window's
/// raw rows against the snapshot and check the recomputed metrics —
/// scores, tallies, DI/DI*/SPD/EOD — are bitwise identical to what the
/// serving fleet logged.
int CmdAuditReplay(const CliFlags& flags) {
  std::string path = AuditLogArg(flags);
  std::string snap_path = flags.GetString("snapshot", "");
  if (path.empty() || snap_path.empty()) {
    std::fprintf(stderr,
                 "usage: fairdrift_cli audit replay --snapshot FILE <log>\n");
    return 1;
  }
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      LoadSnapshot(snap_path);
  if (Failed(snapshot.status())) return 1;
  Result<ReplayReport> replay = ReplayAuditLog(path, *snapshot.value());
  if (!replay.ok()) {
    std::fprintf(stderr, "%s\n", replay.status().ToString().c_str());
    return static_cast<int>(replay.status().code());
  }
  const ReplayReport& r = replay.value();
  for (const ReplayWindowResult& w : r.windows) {
    std::printf("  shard %d window %llu (%zu rows%s): %s%s%s\n", w.shard,
                static_cast<unsigned long long>(w.window_index), w.rows,
                w.breach ? ", FLAGGED" : "",
                w.matched ? "bitwise match" : "MISMATCH",
                w.detail.empty() ? "" : " — ", w.detail.c_str());
  }
  std::printf("replayed %s against %s: %llu record(s), %zu window(s), "
              "%zu matched, %zu flagged%s\n",
              path.c_str(), snap_path.c_str(),
              static_cast<unsigned long long>(r.log_records),
              r.windows_replayed, r.windows_matched, r.flagged_replayed,
              r.torn_tail ? " (torn tail tolerated)" : "");
  if (r.windows_replayed == 0) {
    std::fprintf(stderr,
                 "nothing to replay: the log carries no rows records (was "
                 "the fleet run with --audit-rows none, or did no window "
                 "get flagged?)\n");
    return 1;
  }
  return r.all_matched() ? 0 : 1;
}

int CmdAudit(const CliFlags& flags) {
  std::string sub =
      flags.positional().size() < 2 ? "" : flags.positional()[1];
  if (sub == "verify") return CmdAuditVerify(flags);
  if (sub == "replay") return CmdAuditReplay(flags);
  std::fprintf(stderr, "usage: fairdrift_cli audit <verify|replay> [flags]\n");
  return 1;
}

// -------------------------------------------------------------- network

std::vector<std::string> SplitCommaList(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// Parks a serving command's main thread: for --run-secs seconds, or
/// until the process is killed when it is 0 (the default).
void ParkForRunSecs(const CliFlags& flags) {
  long run_secs = flags.GetInt("run-secs", 0);
  auto started = std::chrono::steady_clock::now();
  while (run_secs <= 0 || std::chrono::steady_clock::now() - started <
                              std::chrono::seconds(run_secs)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// `shard --listen PORT (--in SNAP | --state-dir DIR)`: one ScoringServer
/// behind the wire. With --state-dir, a directory holding a previously
/// pushed chunked snapshot is preferred over --in, so a restarted daemon
/// resumes serving the version it was pushed — the CI readmission smoke
/// leans on exactly this.
int CmdShard(const CliFlags& flags) {
  net::ShardDaemonOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetInt("listen", 0));
  options.state_dir = flags.GetString("state-dir", "");
  SnapshotLoadMode mode = flags.GetBool("allow-partial", false)
                              ? SnapshotLoadMode::kAllowPartial
                              : SnapshotLoadMode::kStrict;
  options.push_load_mode = mode;
  options.trace_log_path = flags.GetString("trace-log", "");
  options.trace_sample_modulus =
      static_cast<uint32_t>(flags.GetInt("trace-modulus", 64));
  options.trace_rotate_bytes =
      static_cast<uint64_t>(flags.GetInt("trace-rotate-bytes", 0));

  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      Status::InvalidArgument("shard needs --in FILE or --state-dir DIR "
                              "holding a pushed MANIFEST");
  std::string origin;
  if (!options.state_dir.empty() &&
      LoadSnapshotManifest(options.state_dir).ok()) {
    origin = options.state_dir;
    snapshot = LoadChunkedSnapshot(options.state_dir, mode, &report);
  } else if (flags.Has("in")) {
    origin = flags.GetString("in", "");
    snapshot = LoadSnapshot(origin, mode, &report);
  }
  if (Failed(snapshot.status())) return 1;
  Result<std::unique_ptr<net::ShardDaemon>> daemon =
      net::ShardDaemon::Start(snapshot.value(), options);
  if (Failed(daemon.status())) return 1;
  // The parent (CI script, router operator) scrapes this line for the
  // resolved ephemeral port; flush so it is visible before we park.
  std::printf("shard listening on %s:%u from %s snapshot_version=%llu%s\n",
              options.host.c_str(), daemon.value()->port(), origin.c_str(),
              static_cast<unsigned long long>(snapshot.value()->version()),
              report.outcome == SnapshotLoadReport::Outcome::kDegraded
                  ? " (degraded: no density monitor)"
                  : "");
  std::fflush(stdout);

  ParkForRunSecs(flags);
  daemon.value()->Stop();
  return 0;
}

/// `route --listen PORT --connect h:p,h:p`: the frontend router process
/// (net::Router). Clients speak the same frame protocol they would speak
/// to a single shard daemon; the router fans score batches out across
/// the fleet by the configured policy, health-probes the daemons (eject
/// -> readmit), merges stats on the wire, and relays snapshot pushes
/// with rolling one-shard-out-at-a-time semantics.
int CmdRoute(const CliFlags& flags) {
  std::vector<std::string> addresses =
      SplitCommaList(flags.GetString("connect", ""));
  if (addresses.empty()) {
    std::fprintf(stderr, "route needs --connect host:port[,host:port...]\n");
    return 1;
  }
  net::RemoteFleetOptions options;
  Result<FleetRoutingPolicy> routing =
      ParseFleetRoutingPolicy(flags.GetString("routing", "hash"));
  if (Failed(routing.status())) return 1;
  options.routing = routing.value();
  options.probe_interval =
      std::chrono::milliseconds(flags.GetInt("probe-ms", 100));
  options.io_timeout =
      std::chrono::milliseconds(flags.GetInt("io-timeout-ms", 5000));
  std::string host = flags.GetString("host", "127.0.0.1");
  Result<std::unique_ptr<net::Router>> router = net::Router::Start(
      addresses, options, host,
      static_cast<uint16_t>(flags.GetInt("listen", 0)));
  if (Failed(router.status())) return 1;
  std::printf("router listening on %s:%u over %zu shard(s), %s routing\n",
              host.c_str(), router.value()->port(), addresses.size(),
              FleetRoutingPolicyName(options.routing));
  std::fflush(stdout);

  ParkForRunSecs(flags);
  router.value()->Stop();
  return 0;
}

/// The client for `--connect HOST:PORT` (a shard daemon or a router);
/// null after printing why the address does not parse.
std::unique_ptr<net::RemoteShardClient> ConnectClient(const CliFlags& flags) {
  std::string host;
  uint16_t port = 0;
  if (Failed(net::ParseHostPort(flags.GetString("connect", ""), &host,
                                &port))) {
    return nullptr;
  }
  return std::make_unique<net::RemoteShardClient>(
      host, port,
      std::chrono::milliseconds(flags.GetInt("io-timeout-ms", 30000)));
}

/// `push --connect HOST:PORT --in SNAP`: incremental snapshot push. The
/// receiver (a shard daemon or a router relaying to its fleet) answers
/// the manifest with the chunk names it actually needs; only those
/// travel.
int CmdNetPush(const CliFlags& flags) {
  std::string address = flags.GetString("connect", "");
  std::string path = flags.GetString("in", "");
  if (address.empty() || path.empty()) {
    std::fprintf(stderr, "push needs --connect HOST:PORT and --in FILE\n");
    return 1;
  }
  std::unique_ptr<net::RemoteShardClient> client = ConnectClient(flags);
  if (client == nullptr) return 1;
  Result<std::shared_ptr<const ModelSnapshot>> snapshot = LoadSnapshot(path);
  if (Failed(snapshot.status())) return 1;
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*snapshot.value());
  if (Failed(chunked.status())) return 1;
  Result<net::RemoteShardClient::PushReply> pushed =
      client->Push(chunked.value());
  if (Failed(pushed.status())) return 1;
  const net::RemoteShardClient::PushReply& reply = pushed.value();
  std::printf("pushed %zu/%zu chunk(s), %llu payload byte(s); remote "
              "snapshot_version=%llu%s%s%s\n",
              reply.chunks_sent, chunked.value().chunks.size(),
              static_cast<unsigned long long>(reply.bytes_sent),
              static_cast<unsigned long long>(reply.snapshot_version),
              reply.degraded ? " (degraded)" : "",
              reply.note.empty() ? "" : " — ", reply.note.c_str());
  return 0;
}

/// `net-score --connect HOST:PORT --in SNAP`: score the same
/// deterministic request rows `snapshot save --scores-out` scores, but
/// through the wire (a daemon or a router). The scores file diffs clean
/// against the in-process one — remote serving is bitwise identical.
int CmdNetScore(const CliFlags& flags) {
  std::string address = flags.GetString("connect", "");
  std::string path = flags.GetString("in", "");
  if (address.empty() || path.empty()) {
    std::fprintf(stderr,
                 "net-score needs --connect HOST:PORT and --in FILE (the "
                 "snapshot whose schema generates the request rows)\n");
    return 1;
  }
  std::unique_ptr<net::RemoteShardClient> client = ConnectClient(flags);
  if (client == nullptr) return 1;
  SnapshotLoadMode mode = flags.GetBool("allow-partial", false)
                              ? SnapshotLoadMode::kAllowPartial
                              : SnapshotLoadMode::kStrict;
  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      LoadSnapshot(path, mode, &report);
  if (Failed(snapshot.status())) return 1;
  size_t n = static_cast<size_t>(flags.GetInt("score-rows", 64));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("score-seed", 99));
  Matrix requests = MakeSchemaRequests(snapshot.value()->schema(), n, seed);

  net::WireScoreRequest request;
  request.width = requests.cols();
  request.rows = requests.data();
  Result<std::vector<net::WireRowOutcome>> outcomes =
      client->ScoreBatch(request);
  if (Failed(outcomes.status())) return 1;
  std::vector<ScoreResult> scores;
  scores.reserve(outcomes.value().size());
  for (size_t i = 0; i < outcomes.value().size(); ++i) {
    const net::WireRowOutcome& outcome = outcomes.value()[i];
    if (outcome.code != StatusCode::kOk) {
      std::fprintf(stderr, "row %zu failed: %s: %s\n", i,
                   StatusCodeToString(outcome.code),
                   outcome.message.c_str());
      return 1;
    }
    scores.push_back(outcome.result);
  }
  std::string scores_path = flags.GetString("scores-out", "");
  if (!scores_path.empty()) {
    if (WriteScoresFile(scores, scores_path) != 0) return 1;
  }
  std::printf("scored %zu row(s) via %s\n", scores.size(), address.c_str());
  return 0;
}

/// `metrics --connect HOST:PORT`: scrape a shard daemon's or router's
/// Prometheus-style exposition (kMetrics frame) and print it verbatim.
int CmdMetrics(const CliFlags& flags) {
  std::string address = flags.GetString("connect", "");
  if (address.empty()) {
    std::fprintf(stderr, "metrics needs --connect HOST:PORT\n");
    return 1;
  }
  std::unique_ptr<net::RemoteShardClient> client = ConnectClient(flags);
  if (client == nullptr) return 1;
  Result<std::string> text = client->Metrics();
  if (Failed(text.status())) return 1;
  std::fputs(text.value().c_str(), stdout);
  return 0;
}

/// `trace verify <log>`: walk the trace log's checksum chain across
/// rotated segments. Same exit-code contract as `audit verify`: 0 on an
/// intact chain, the numeric StatusCode (kDataLoss) on corruption.
int CmdTraceVerify(const CliFlags& flags) {
  std::string path = AuditLogArg(flags);
  if (path.empty()) {
    std::fprintf(stderr, "usage: fairdrift_cli trace verify <log>\n");
    return 1;
  }
  Result<AuditVerifyReport> report = VerifyAuditLogChain(path);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return static_cast<int>(report.status().code());
  }
  const AuditVerifyReport& r = report.value();
  std::printf("verified %s: %llu span record(s) across %llu segment(s), "
              "chain %016llx\n",
              path.c_str(), static_cast<unsigned long long>(r.records),
              static_cast<unsigned long long>(r.segments),
              static_cast<unsigned long long>(r.chain));
  if (r.torn_tail) {
    std::printf("warning: torn final record (%llu trailing byte(s)) — a "
                "crash mid-append; every complete record verified\n",
                static_cast<unsigned long long>(r.torn_bytes));
  }
  return 0;
}

/// `trace show <log>`: chain-verify, then print every whole-span record
/// (one JSON object per line, without the chain envelope).
int CmdTraceShow(const CliFlags& flags) {
  std::string path = AuditLogArg(flags);
  if (path.empty()) {
    std::fprintf(stderr, "usage: fairdrift_cli trace show <log>\n");
    return 1;
  }
  AuditVerifyReport report;
  Result<std::vector<AuditLogEntry>> entries =
      ReadAuditLogChain(path, &report);
  if (!entries.ok()) {
    std::fprintf(stderr, "%s\n", entries.status().ToString().c_str());
    return static_cast<int>(entries.status().code());
  }
  for (const AuditLogEntry& entry : entries.value()) {
    std::printf("%s\n", entry.rec.c_str());
  }
  std::fprintf(stderr, "%llu span record(s) across %llu segment(s)%s\n",
               static_cast<unsigned long long>(report.records),
               static_cast<unsigned long long>(report.segments),
               report.torn_tail ? " (torn tail tolerated)" : "");
  return 0;
}

int CmdTrace(const CliFlags& flags) {
  std::string sub =
      flags.positional().size() < 2 ? "" : flags.positional()[1];
  if (sub == "verify") return CmdTraceVerify(flags);
  if (sub == "show") return CmdTraceShow(flags);
  std::fprintf(stderr, "usage: fairdrift_cli trace <verify|show> <log>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // FAULT_SEED / FAULT_SITES arm deterministic fault injection for CI
  // smoke tests (crash-during-save, forced drain stalls); a malformed
  // spec is an operator error, not something to silently ignore.
  {
    Status armed = FaultInjector::Global().ArmFromEnv();
    if (!armed.ok()) {
      std::fprintf(stderr, "%s\n", armed.ToString().c_str());
      return 2;
    }
  }
  CliFlags flags = CliFlags::Parse(argc, argv);
  std::string cmd =
      flags.positional().empty() ? "help" : flags.positional()[0];
  if (cmd == "list") return CmdList();
  if (cmd == "eval") return CmdEval(flags);
  if (cmd == "constraints") return CmdConstraints(flags);
  if (cmd == "weigh") return CmdWeigh(flags);
  if (cmd == "snapshot") return CmdSnapshot(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "audit") return CmdAudit(flags);
  if (cmd == "shard") return CmdShard(flags);
  if (cmd == "route") return CmdRoute(flags);
  if (cmd == "push") return CmdNetPush(flags);
  if (cmd == "net-score") return CmdNetScore(flags);
  if (cmd == "metrics") return CmdMetrics(flags);
  if (cmd == "trace") return CmdTrace(flags);
  std::printf(
      "usage: fairdrift_cli <list|eval|constraints|weigh|snapshot|serve|"
      "audit|shard|route|push|net-score|metrics|trace> [flags]\n"
      "  list                               available datasets\n"
      "  eval --dataset D --method M        run an intervention pipeline\n"
      "       [--learner lr|xgb|nb] [--trials N] [--scale S] [--alpha A]\n"
      "  constraints --dataset D            print discovered CCs per cell\n"
      "  weigh --dataset D --out FILE       export CONFAIR-weighted data\n"
      "        [--weights-out FILE]         plus a fingerprinted weight file\n"
      "  snapshot save --dataset D --method M --out FILE\n"
      "        [--learner L] [--alpha A] [--no-density]\n"
      "        [--monitor exact|bounded|sampled] [--sample-modulus N]\n"
      "        [--group-field NAME]           persist which categorical\n"
      "                                       field carries the group id\n"
      "        [--scores-out FILE] [--score-rows N]\n"
      "                                     train, freeze, persist (the\n"
      "                                     monitor policy is persisted too)\n"
      "  snapshot load-and-score --in FILE  load + serve in this process\n"
      "        [--scores-out FILE] [--score-rows N]\n"
      "  serve --in FILE                    sharded fleet + hot reload\n"
      "        [--shards N] [--routing rr|least|hash] [--poll-ms M]\n"
      "        [--monitor exact|bounded|sampled] [--sample-modulus N]\n"
      "        [--score-rows N] [--wait-for-reload SECS]\n"
      "        [--allow-partial]            serve even if the snapshot's\n"
      "                                     monitor tail is corrupt\n"
      "        [--health-ms M]              probe/eject/restart wedged\n"
      "                                     shards every M ms\n"
      "        [--quarantine-after N]       stop retrying an identity\n"
      "                                     after N failed loads\n"
      "                                     watches FILE; a snapshot saved\n"
      "                                     over it rolls through the fleet\n"
      "                                     with no restart; failed\n"
      "                                     rollouts retry, then roll back\n"
      "        [--audit-log FILE]           fairness audit tier: window\n"
      "                                     metrics + checksummed JSONL log\n"
      "        [--audit-window N] [--audit-rows flagged|all|none]\n"
      "        [--di-floor X] [--spd-ceiling X] [--eod-ceiling X]\n"
      "        [--alert-after N] [--alert-clear N] [--audit-fsync]\n"
      "        [--status-ms M]              periodic status/audit lines\n"
      "        [--drive-rows N] [--drive-drift D] [--drive-seed K]\n"
      "                                     synthesize two-group labeled\n"
      "                                     traffic (group 1 shifted by D)\n"
      "  audit verify <log>                 walk the checksum chain; exit\n"
      "                                     code = DataLoss on corruption\n"
      "  audit replay --snapshot FILE <log> re-score logged windows, check\n"
      "                                     metrics bitwise\n"
      "  shard --listen PORT --in FILE      serve one snapshot over TCP\n"
      "        [--state-dir DIR]            (prefer DIR's pushed MANIFEST\n"
      "                                     on restart; persist pushes)\n"
      "        [--allow-partial] [--run-secs S]\n"
      "        [--trace-log FILE]           sample requests by content\n"
      "                                     hash into a chained JSONL\n"
      "                                     span log\n"
      "        [--trace-modulus N] [--trace-rotate-bytes B]\n"
      "  route --listen PORT --connect h:p[,h:p...]\n"
      "        [--routing rr|least|hash] [--probe-ms M] [--run-secs S]\n"
      "                                     frontend router: fan scoring\n"
      "                                     out to shard daemons, probe/\n"
      "                                     eject/readmit, relay pushes\n"
      "                                     with rolling semantics\n"
      "  push --connect HOST:PORT --in FILE incremental snapshot push\n"
      "                                     (only changed chunks travel)\n"
      "  net-score --connect HOST:PORT --in FILE\n"
      "        [--score-rows N] [--scores-out FILE]\n"
      "                                     score the deterministic request\n"
      "                                     rows over the wire; diffs clean\n"
      "                                     against in-process scoring\n"
      "  metrics --connect HOST:PORT        scrape a daemon's or router's\n"
      "                                     Prometheus-style exposition\n"
      "  trace verify <log>                 walk the span log's checksum\n"
      "                                     chain across rotated segments\n"
      "  trace show <log>                   print every whole-span record\n");
  return cmd == "help" ? 0 : 1;
}

// The rollout path: Fit -> Freeze -> SaveSnapshot -> LoadSnapshot ->
// swap (UpdateSnapshot in process, PushRolling to the daemons) -> the
// first score that reports the new version. Each rollout trains on a
// fresh MEPS-size draw, so the KDE cache cannot turn Fit into a lookup.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "core/confair.h"
#include "core/diffair.h"
#include "core/profile.h"
#include "kde/kde_cache.h"
#include "serve/snapshot_io.h"
#include "serve/snapshot_manifest.h"
#include "perfbench.h"

namespace perfbench {

namespace fd = fairdrift;

namespace {

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Swaps `loaded` into the in-process server and waits for the first
/// score on it. Returns false with `error` set when the score is wrong.
bool SwapInproc(Fixture* fx, const SnapshotPtr& loaded, size_t probe_row,
                RolloutRecord* rec, std::map<uint64_t, SnapshotPtr>* versions) {
  const size_t width = fx->traffic.width;
  const double* src = fx->traffic.row(probe_row);
  const uint64_t t0 = NowNs();
  fd::Status swapped = fx->server->UpdateSnapshot(loaded);
  const uint64_t t1 = NowNs();
  if (!swapped.ok()) {
    rec->error = "UpdateSnapshot: " + swapped.ToString();
    return false;
  }
  (*versions)[loaded->version()] = loaded;
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto got = fx->server->ScoreSync(std::vector<double>(src, src + width));
    fx->inproc_rows_sent.fetch_add(1);
    if (!got.ok()) {
      rec->error = "first score: " + got.status().ToString();
      return false;
    }
    if (got.value().snapshot_version != loaded->version()) continue;
    const uint64_t t2 = NowNs();
    rec->swap_us = static_cast<double>(t1 - t0) * 1e-3;
    rec->first_score_us = static_cast<double>(t2 - t1) * 1e-3;
    fd::Matrix one(1, width);
    std::copy(src, src + width, one.RowPtr(0));
    auto direct = loaded->ScoreBatch(one);
    if (!direct.ok() || !SameScore(direct.value()[0], got.value())) {
      rec->error = "first score differs from direct scoring";
      return false;
    }
    return true;
  }
  rec->error = "new version never served";
  return false;
}

/// Pushes `loaded` to both daemons and waits for a frame scored wholly
/// on the pushed versions.
bool SwapRemote(Fixture* fx, const SnapshotPtr& loaded, size_t probe_row,
                RolloutRecord* rec, std::map<uint64_t, SnapshotPtr>* versions) {
  const size_t width = fx->traffic.width;
  const size_t frame_rows = fx->plan.rows_per_request;
  fd::net::RemoteFleet* fleet = fx->fleets[0].get();
  const uint64_t t0 = NowNs();
  auto chunked = fd::ChunkSnapshot(*loaded);
  if (!chunked.ok()) {
    rec->error = "ChunkSnapshot: " + chunked.status().ToString();
    return false;
  }
  auto report = fleet->PushRolling(chunked.value());
  const uint64_t t1 = NowNs();
  if (!report.ok() || report.value().state != fd::RolloutState::kCommitted) {
    rec->error = "PushRolling did not commit";
    return false;
  }
  std::set<uint64_t> pushed;
  for (size_t s = 0; s < fleet->num_shards(); ++s) {
    auto probe = fleet->shard_client(s)->Probe();
    if (!probe.ok()) {
      rec->error = "probe: " + probe.status().ToString();
      return false;
    }
    pushed.insert(probe.value().snapshot_version);
    (*versions)[probe.value().snapshot_version] = loaded;
  }
  std::vector<double> frame(frame_rows * width);
  fd::Matrix rows(frame_rows, width);
  for (size_t r = 0; r < frame_rows; ++r) {
    const double* src = fx->traffic.row((probe_row + r) % fx->traffic.count);
    std::copy(src, src + width, frame.begin() + r * width);
    std::copy(src, src + width, rows.RowPtr(r));
  }
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto got = fleet->ScoreBatch(frame, width);
    fx->remote_rows_sent.fetch_add(frame_rows);
    if (!got.ok()) {
      rec->error = "first frame: " + got.status().ToString();
      return false;
    }
    bool all_new = true;
    for (const auto& outcome : got.value()) {
      all_new = all_new && outcome.code == fd::StatusCode::kOk &&
                pushed.count(outcome.result.snapshot_version) > 0;
    }
    if (!all_new) continue;
    const uint64_t t2 = NowNs();
    rec->swap_us = static_cast<double>(t1 - t0) * 1e-3;
    rec->first_score_us = static_cast<double>(t2 - t1) * 1e-3;
    auto direct = loaded->ScoreBatch(rows);
    if (!direct.ok()) {
      rec->error = "direct scoring failed";
      return false;
    }
    for (size_t r = 0; r < frame_rows; ++r) {
      if (!SameScore(direct.value()[r], got.value()[r].result)) {
        rec->error = "first frame differs from direct scoring";
        return false;
      }
    }
    return true;
  }
  rec->error = "pushed version never served";
  return false;
}

RolloutRecord OneRollout(Fixture* fx, fd::Method method, uint64_t index,
                         std::map<uint64_t, SnapshotPtr>* versions) {
  RolloutRecord rec;
  rec.method = method;
  // Rollout k trains on draw k whatever the seed: the seed varies the
  // traffic, not the training work.
  Dataset train = FreshTrainingSet(fx->pool, index + 1);
  const std::string path = fx->options.workdir + "/rollout_" +
                           std::to_string(fx->options.seed) + "_" +
                           std::to_string(index) + ".snap";
  const uint64_t t0 = NowNs();
  auto artifacts = fd::Fit(train, Dataset(), RolloutSpec(method));
  const uint64_t t1 = NowNs();
  if (!artifacts.ok()) {
    rec.error = "Fit: " + artifacts.status().ToString();
    return rec;
  }
  auto frozen = fd::Freeze(std::move(artifacts).value());
  const uint64_t t2 = NowNs();
  if (!frozen.ok()) {
    rec.error = "Freeze: " + frozen.status().ToString();
    return rec;
  }
  fd::Status saved = fd::SaveSnapshot(*frozen.value(), path);
  const uint64_t t3 = NowNs();
  if (!saved.ok()) {
    rec.error = "SaveSnapshot: " + saved.ToString();
    return rec;
  }
  auto loaded = fd::LoadSnapshot(path);
  const uint64_t t4 = NowNs();
  struct stat st;
  if (stat(path.c_str(), &st) == 0) {
    rec.snapshot_bytes = static_cast<uint64_t>(st.st_size);
  }
  std::remove(path.c_str());
  if (!loaded.ok()) {
    rec.error = "LoadSnapshot: " + loaded.status().ToString();
    return rec;
  }
  const size_t probe_row = static_cast<size_t>(index) % fx->traffic.count;
  const bool swapped =
      fx->options.workload == Workload::kServeRemote
          ? SwapRemote(fx, loaded.value(), probe_row, &rec, versions)
          : SwapInproc(fx, loaded.value(), probe_row, &rec, versions);
  const uint64_t t5 = NowNs();
  if (!swapped) return rec;
  rec.fit_s = Seconds(t0, t1);
  rec.freeze_s = Seconds(t1, t2);
  rec.save_s = Seconds(t2, t3);
  rec.load_s = Seconds(t3, t4);
  rec.total_s = Seconds(t0, t5);
  rec.ok = true;
  if (fx->spans != nullptr) {
    const uint64_t swap_end = t4 + static_cast<uint64_t>(rec.swap_us * 1e3);
    fx->spans->AddAll({{"rollout", "", t0, t5, index},
                       {"rollout.fit", "rollout", t0, t1, index},
                       {"rollout.freeze", "rollout", t1, t2, index},
                       {"rollout.save", "rollout", t2, t3, index},
                       {"rollout.load", "rollout", t3, t4, index},
                       {"rollout.swap", "rollout", t4, swap_end, index},
                       {"rollout.first_score", "rollout", swap_end, t5, index}});
  }
  return rec;
}

}  // namespace

void RunRollouts(Fixture* fx, size_t pairs, RolloutOutcome* out) {
  const fd::KdeCache::Stats before = fd::GlobalKdeCache().stats();
  for (uint64_t r = 0; r < 2 * pairs; ++r) {
    const fd::Method method =
        r % 2 == 0 ? fd::Method::kConfair : fd::Method::kDiffair;
    RolloutRecord rec = OneRollout(fx, method, r, &out->versions);
    if (!rec.ok) {
      out->ok = false;
      out->error = std::string(fd::MethodName(method)) + " rollout: " +
                   rec.error;
      return;
    }
    out->records.push_back(rec);
  }
  const fd::KdeCache::Stats after = fd::GlobalKdeCache().stats();
  out->kde_hits = after.hits - before.hits;
  out->kde_misses = after.misses - before.misses;
  if (fx->options.trace) {
    const uint64_t base = 1000000;
    out->ledgers.push_back(DecomposeFit(
        FreshTrainingSet(fx->pool, base), fd::Method::kConfair));
    out->ledgers.push_back(DecomposeFit(
        FreshTrainingSet(fx->pool, base + 1), fd::Method::kDiffair));
  }
}

FitLedger DecomposeFit(const Dataset& train, fd::Method method) {
  // Mirrors Fit's call sequence for the two methods, timing each public
  // function from outside.
  FitLedger ledger;
  const fd::TrainSpec spec = RolloutSpec(method);
  uint64_t t = NowNs();
  auto encoder = fd::FeatureEncoder::Fit(train);
  ledger.encoder_s = Seconds(t, NowNs());
  if (!encoder.ok()) return ledger;
  std::unique_ptr<fd::Classifier> learner =
      fd::MakeLearner(spec.learner, spec.learner_seed);
  if (method == fd::Method::kConfair) {
    t = NowNs();
    auto weights = fd::ComputeConfairWeights(train, spec.confair);
    ledger.confair_weights_s = Seconds(t, NowNs());
    if (!weights.ok()) return ledger;
    t = NowNs();
    auto x = encoder.value().Transform(train);
    if (x.ok()) {
      (void)learner->Fit(x.value(), train.labels(), weights.value().weights);
    }
    ledger.learner_s = Seconds(t, NowNs());
    t = NowNs();
    (void)fd::GroupLabelProfile::Profile(train, spec.confair.profile);
    ledger.profile_s = Seconds(t, NowNs());
  } else {
    t = NowNs();
    (void)fd::GroupLabelProfile::Profile(train, spec.diffair.profile);
    ledger.profile_s = Seconds(t, NowNs());
    t = NowNs();
    (void)fd::TrainGroupModels(train, Dataset(), *learner, encoder.value(),
                               spec.diffair.tune_thresholds, "DIFFAIR");
    ledger.group_models_s = Seconds(t, NowNs());
  }
  t = NowNs();
  fd::Matrix numeric = train.NumericMatrix();
  auto kde = fd::KernelDensity::Fit(numeric, spec.density_kde);
  if (kde.ok()) {
    std::vector<double> logd = kde.value().LeaveOneOutLogDensityAll(numeric);
    std::sort(logd.begin(), logd.end());
  }
  ledger.monitor_kde_s = Seconds(t, NowNs());
  return ledger;
}

uint64_t CheckDeferred(const Fixture& fx,
                       const std::vector<DeferredCheck>& deferred,
                       const std::map<uint64_t, SnapshotPtr>& versions,
                       uint64_t* unknown_versions) {
  std::map<uint64_t, std::vector<const DeferredCheck*>> by_version;
  for (const DeferredCheck& d : deferred) by_version[d.version].push_back(&d);
  uint64_t mismatches = 0;
  *unknown_versions = 0;
  const size_t width = fx.traffic.width;
  for (const auto& entry : by_version) {
    auto it = versions.find(entry.first);
    if (it == versions.end()) {
      *unknown_versions += entry.second.size();
      continue;
    }
    fd::Matrix rows(entry.second.size(), width);
    for (size_t i = 0; i < entry.second.size(); ++i) {
      const double* src = fx.traffic.row(entry.second[i]->row);
      std::copy(src, src + width, rows.RowPtr(i));
    }
    auto direct = it->second->ScoreBatch(rows);
    if (!direct.ok()) {
      mismatches += entry.second.size();
      continue;
    }
    for (size_t i = 0; i < entry.second.size(); ++i) {
      if (!SameScore(direct.value()[i], entry.second[i]->result)) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench

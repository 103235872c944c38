// Traced-run layer ledger: work re-issued from outside through each
// layer's public function, with batches of the size the server actually
// formed, so each layer's cost is measured in isolation and the residue
// shows what the layers do not explain.

#include <algorithm>
#include <thread>

#include "core/diffair.h"
#include "net/frame.h"
#include "net/socket.h"
#include "perfbench.h"
#include "serve/net/wire.h"

namespace perfbench {

namespace fd = fairdrift;

namespace {

constexpr double kLayerSeconds = 0.25;  // re-issue time per function

/// Calls `fn(batch_index)` round-robin over `batches` for kLayerSeconds
/// (at least 20 calls) and returns the median call time in ns.
template <typename Fn>
double MedianCallNs(size_t batches, Fn fn) {
  std::vector<double> calls;
  const uint64_t start = NowNs();
  for (size_t i = 0;
       calls.size() < 20 ||
       static_cast<double>(NowNs() - start) * 1e-9 < kLayerSeconds;
       ++i) {
    const uint64_t t = NowNs();
    fn(i % batches);
    calls.push_back(static_cast<double>(NowNs() - t));
  }
  return Quantile(calls, 0.5);
}

}  // namespace

void ScoringLedger(Fixture* fx, double mean_batch, std::vector<Metric>* out) {
  const ModelSnapshot& snap = *fx->snapshot;
  const size_t width = fx->traffic.width;
  const size_t b = std::max<size_t>(1, static_cast<size_t>(mean_batch + 0.5));
  const size_t num_batches = 64;

  struct Batch {
    fd::Matrix rows, encoded, numeric;
    std::vector<int> groups, labels;
  };
  std::vector<Batch> batches(num_batches);
  for (size_t k = 0; k < num_batches; ++k) {
    Batch& batch = batches[k];
    batch.rows = fd::Matrix(b, width);
    for (size_t i = 0; i < b; ++i) {
      const size_t r = (k * b + i) % fx->traffic.count;
      std::copy(fx->traffic.row(r), fx->traffic.row(r) + width,
                batch.rows.RowPtr(i));
      batch.groups.push_back(fx->traffic.groups[r]);
      batch.labels.push_back(fx->traffic.labels[r]);
    }
    (void)snap.encoder().TransformRows(batch.rows, &batch.encoded);
    (void)snap.encoder().NumericRows(batch.rows, &batch.numeric);
  }

  fd::ScoreScratch scratch;
  const double score_ns = MedianCallNs(num_batches, [&](size_t k) {
    (void)snap.ScoreBatchInto(batches[k].rows, &scratch);
  });

  fd::Matrix encoded, numeric;
  const double encode_ns = MedianCallNs(num_batches, [&](size_t k) {
    (void)snap.encoder().TransformRows(batches[k].rows, &encoded);
    (void)snap.encoder().NumericRows(batches[k].rows, &numeric);
  });

  std::vector<double> proba(b);
  const double predict_ns = MedianCallNs(num_batches, [&](size_t k) {
    for (int g = 0; g < snap.num_groups(); ++g) {
      const fd::Classifier* model = snap.group_model(g);
      if (model != nullptr) {
        (void)model->PredictProbaInto(batches[k].encoded, proba.data());
      }
    }
  });

  // ConformanceRouteInto reads only which groups carry a model; unfitted
  // placeholders stand in for the snapshot's models.
  std::vector<std::unique_ptr<fd::Classifier>> has_model;
  for (int g = 0; g < snap.num_groups(); ++g) {
    has_model.push_back(snap.group_model(g) != nullptr
                            ? fd::MakeLearner(fd::LearnerKind::kLogisticRegression)
                            : nullptr);
  }
  std::vector<int> route;
  std::vector<double> margins;
  const double route_ns = MedianCallNs(num_batches, [&](size_t k) {
    fd::ConformanceRouteInto(snap.profile(), has_model, batches[k].numeric,
                             snap.routing(), snap.fallback_group(), &route,
                             &margins);
  });

  std::vector<uint8_t> below(b);
  const double monitor_ns = MedianCallNs(num_batches, [&](size_t k) {
    snap.density()->ClassifyBelowAllInto(batches[k].numeric,
                                         snap.density_floor(), below.data());
  });

  // Shares over every re-issued row.
  uint64_t minority = 0, outliers = 0, rows = 0;
  for (Batch& batch : batches) {
    fd::ConformanceRouteInto(snap.profile(), has_model, batch.numeric,
                             snap.routing(), snap.fallback_group(), &route,
                             &margins);
    snap.density()->ClassifyBelowAllInto(batch.numeric, snap.density_floor(),
                                         below.data());
    for (size_t i = 0; i < b; ++i) {
      minority += route[i] == fd::kMinorityGroup ? 1 : 0;
      outliers += below[i];
    }
    rows += b;
  }

  fd::AuditOptions audit;
  audit.enabled = true;
  audit.row_logging = fd::AuditRowLogging::kNone;
  auto auditor = fd::FleetAuditor::Create(audit, 1, width);
  double fold_ns = 0.0;
  if (auditor.ok()) {
    std::vector<std::vector<ScoreResult>> results(num_batches);
    for (size_t k = 0; k < num_batches; ++k) {
      auto scored = snap.ScoreBatch(batches[k].rows);
      if (scored.ok()) results[k] = std::move(scored).value();
    }
    fd::ShardAuditor* shard = auditor.value()->shard(0);
    fold_ns = MedianCallNs(num_batches, [&](size_t k) {
      fd::AuditFoldOutcome outcome;
      shard->FoldBatch(batches[k].rows, results[k].data(),
                       batches[k].groups.data(), batches[k].labels.data(), b,
                       &outcome);
    });
  }

  const double per_row = 1.0 / static_cast<double>(b);
  const double share = 1.0 / static_cast<double>(std::max<uint64_t>(rows, 1));
  out->push_back({"snapshot.score_ns_per_row", score_ns * per_row, "ns"});
  out->push_back({"encode.ns_per_row", encode_ns * per_row, "ns"});
  out->push_back({"ml.predict_ns_per_row", predict_ns * per_row, "ns"});
  out->push_back({"route.ns_per_row", route_ns * per_row, "ns"});
  out->push_back({"route.minority_share", minority * share, "share"});
  out->push_back({"kde.monitor_ns_per_row", monitor_ns * per_row, "ns"});
  out->push_back({"kde.outlier_share", outliers * share, "share"});
  out->push_back({"audit.fold_ns_per_row", fold_ns * per_row, "ns"});
  out->push_back({"snapshot.residue_ns_per_row",
                  (score_ns - encode_ns - predict_ns - route_ns - monitor_ns) *
                      per_row,
                  "ns"});
}

void WireLedger(Fixture* fx, std::vector<Metric>* out) {
  namespace net = fd::net;
  const size_t width = fx->traffic.width;
  const size_t frame_rows = 64;

  // Codec: one 64-row request and its 64 outcomes, both directions.
  net::WireScoreRequest request;
  request.width = width;
  request.rows.assign(fx->traffic.rows.begin(),
                      fx->traffic.rows.begin() + frame_rows * width);
  std::vector<net::WireRowOutcome> outcomes(frame_rows);
  for (size_t r = 0; r < frame_rows; ++r) {
    outcomes[r].result = fx->traffic.reference[r];
  }
  const double codec_ns = MedianCallNs(1, [&](size_t) {
    fd::BinaryWriter w1;
    net::SerializeScoreRequest(request, &w1);
    fd::BinaryReader r1(w1.buffer());
    (void)net::DeserializeScoreRequest(&r1);
    fd::BinaryWriter w2;
    net::SerializeRowOutcomes(outcomes, &w2);
    fd::BinaryReader r2(w2.buffer());
    (void)net::DeserializeRowOutcomes(&r2);
  });
  out->push_back({"wire.codec_us_per_frame", codec_ns * 1e-3, "us"});

  // Loopback frame echo with a 64-row payload.
  const std::chrono::milliseconds io(2000);
  double rtt_ns = 0.0;
  auto listener = net::TcpListener::Listen("127.0.0.1", 0);
  if (listener.ok()) {
    std::atomic<bool> done{false};
    std::thread echo([&] {
      auto conn = listener.value().Accept(io);
      if (!conn.ok()) return;
      while (!done.load()) {
        auto frame = net::ReadFrame(conn.value(), io);
        if (!frame.ok()) return;
        if (!net::WriteFrame(conn.value(), frame.value().type,
                             frame.value().payload, io)
                 .ok()) {
          return;
        }
      }
    });
    auto conn = net::TcpConnection::Connect("127.0.0.1",
                                            listener.value().port(), io);
    if (conn.ok()) {
      const std::string payload(frame_rows * width * sizeof(double), 'x');
      rtt_ns = MedianCallNs(1, [&](size_t) {
        (void)net::WriteFrame(conn.value(), net::FrameType::kScoreBatch,
                              payload, io);
        (void)net::ReadFrame(conn.value(), io);
      });
      done.store(true);
      conn.value().Close();
    } else {
      done.store(true);
    }
    echo.join();
  }
  out->push_back({"net.frame_rtt_us", rtt_ns * 1e-3, "us"});

  // Per-RPC split: a hash-routed 64-row frame becomes one sub-batch per
  // daemon, sent one after the other; the daemon's own latency comes
  // from its histogram delta over the re-issue.
  double rpc_us = 0.0, daemon_us = 0.0;
  if (!fx->fleets.empty()) {
    net::RemoteFleet* fleet = fx->fleets[0].get();
    const size_t shards = fleet->num_shards();
    std::vector<fd::ServerStats::View> before(shards);
    for (size_t s = 0; s < shards; ++s) {
      auto v = fleet->shard_client(s)->Stats();
      if (v.ok()) before[s] = v.value();
    }
    std::vector<net::WireScoreRequest> halves(shards);
    const size_t per_shard = frame_rows / shards;
    for (size_t s = 0; s < shards; ++s) {
      halves[s].width = width;
      halves[s].rows.assign(
          fx->traffic.rows.begin() + s * per_shard * width,
          fx->traffic.rows.begin() + (s + 1) * per_shard * width);
    }
    rpc_us = 1e-3 * MedianCallNs(1, [&](size_t) {
      for (size_t s = 0; s < shards; ++s) {
        (void)fleet->shard_client(s)->ScoreBatch(halves[s]);
        fx->remote_rows_sent.fetch_add(per_shard);
      }
    });
    for (size_t s = 0; s < shards; ++s) {
      auto after = fleet->shard_client(s)->Stats();
      if (!after.ok()) continue;
      std::vector<uint64_t> delta = after.value().latency_hist;
      for (size_t i = 0; i < delta.size() && i < before[s].latency_hist.size();
           ++i) {
        delta[i] -= before[s].latency_hist[i];
      }
      daemon_us += fd::ServerStats::PercentileUsFromHist(delta, 0.5);
    }
  }
  out->push_back({"remote.rpc_us", rpc_us, "us"});
  out->push_back({"remote.daemon_us", daemon_us, "us"});
  out->push_back({"remote.residue_us",
                  fx->fleets.empty()
                      ? 0.0
                      : rpc_us - daemon_us - codec_ns * 1e-3 - rtt_ns * 1e-3,
                  "us"});
}

}  // namespace perfbench

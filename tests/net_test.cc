// Tests for the network serving tier: framing (net/frame.h), wire
// codecs (serve/net/wire.h), chunked snapshot persistence
// (serve/snapshot_manifest.h), and the shard-daemon / remote-fleet pair
// (serve/net/).
//
// The load-bearing contracts:
//   - Cross-process score identity: a row scored through a shard daemon
//     over the wire is BITWISE identical to scoring it in process.
//   - Typed failure: every transport-level fault (bad magic, checksum
//     mismatch, truncation, timeout, injected partial read/write)
//     surfaces as kUnavailable / kDeadlineExceeded / kDataLoss — never
//     a hang, never a mis-parse.
//   - Incremental push: only changed-checksum chunks travel or are
//     rewritten; a committed push advances the served version with the
//     old snapshot still finishing its in-flight work.
//   - The router (net::Router) answers like one daemon: scores bitwise,
//     relayed pushes commit on every daemon, its stats are the fold of
//     the daemons' views, and a bad request gets a typed error.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/artifacts.h"
#include "core/deployment.h"
#include "net/frame.h"
#include "net/socket.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/router.h"
#include "serve/net/shard_daemon.h"
#include "serve/audit/audit_log.h"
#include "serve/net/wire.h"
#include "serve/server_stats.h"
#include "serve/snapshot_io.h"
#include "serve/snapshot_manifest.h"
#include "serve/trace/trace_context.h"
#include "util/binary_io.h"
#include "util/fault.h"
#include "util/rng.h"
#include "test_tmp.h"

namespace fairdrift {
namespace {

using net::Frame;
using net::FrameType;
using net::ReadFrame;
using net::RemoteFleet;
using net::RemoteFleetOptions;
using net::RemoteShardClient;
using net::ShardDaemon;
using net::ShardDaemonOptions;
using net::TcpConnection;
using net::TcpListener;
using net::WireHealthProbe;
using net::WireRowOutcome;
using net::WireScoreRequest;
using net::WriteFrame;

constexpr std::chrono::milliseconds kIo{2000};

Dataset MakeTrainingData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0(n);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<int> cat(n);
  std::vector<int> labels(n);
  std::vector<int> groups(n);
  for (size_t i = 0; i < n; ++i) {
    int g = rng.Bernoulli(0.35) ? 1 : 0;
    double shift = g == 1 ? 0.7 : -0.7;
    x0[i] = rng.Gaussian(shift, 1.0);
    x1[i] = rng.Gaussian(-shift, 1.2);
    x2[i] = rng.Gaussian(0.0, 0.8);
    cat[i] = static_cast<int>(rng.UniformInt(0, 2));
    labels[i] = x0[i] - 0.5 * x1[i] + rng.Gaussian(0.0, 0.6) > 0.0 ? 1 : 0;
    groups[i] = g;
  }
  Dataset data;
  EXPECT_TRUE(data.AddNumericColumn("x0", std::move(x0)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x1", std::move(x1)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x2", std::move(x2)).ok());
  EXPECT_TRUE(data.AddCategoricalColumn("cat", std::move(cat), 3).ok());
  EXPECT_TRUE(data.SetLabels(std::move(labels), 2).ok());
  EXPECT_TRUE(data.SetGroups(std::move(groups)).ok());
  return data;
}

/// Deterministic snapshot: same seed + same flags => identical chunks,
/// which is what makes the incremental-push assertions exact.
std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t seed,
                                                  bool with_density) {
  Dataset train = MakeTrainingData(400, seed);
  TrainSpec spec = ServingSpec(Method::kConfair);
  spec.learner = LearnerKind::kLogisticRegression;
  spec.include_density = with_density;
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      BuildSnapshot(train, spec);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? snapshot.value() : nullptr;
}

Matrix MakeRequests(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, 4);
  for (size_t i = 0; i < n; ++i) {
    rows.At(i, 0) = rng.Gaussian();
    rows.At(i, 1) = rng.Gaussian();
    rows.At(i, 2) = rng.Gaussian();
    rows.At(i, 3) = static_cast<double>(rng.UniformInt(0, 2));
  }
  return rows;
}

std::vector<double> Flatten(const Matrix& m) {
  std::vector<double> flat;
  flat.reserve(m.rows() * m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) flat.push_back(m.At(r, c));
  }
  return flat;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameBits(double a, double b, size_t row, const char* what) {
  EXPECT_EQ(Bits(a), Bits(b))
      << what << " differs at row " << row << ": " << a << " vs " << b;
}

/// The wire outcome must carry the in-process ScoreResult bit for bit
/// (snapshot_version is excluded: each process stamps its own).
void ExpectOutcomeMatches(const WireRowOutcome& outcome,
                          const ScoreResult& want, size_t row) {
  ASSERT_EQ(outcome.code, StatusCode::kOk)
      << "row " << row << ": " << outcome.message;
  ExpectSameBits(outcome.result.probability, want.probability, row,
                 "probability");
  EXPECT_EQ(outcome.result.label, want.label) << "row " << row;
  EXPECT_EQ(outcome.result.routed_group, want.routed_group) << "row " << row;
  ExpectSameBits(outcome.result.margin, want.margin, row, "margin");
  ExpectSameBits(outcome.result.log_density, want.log_density, row,
                 "log_density");
  EXPECT_EQ(outcome.result.density_outlier, want.density_outlier)
      << "row " << row;
}

void ExpectOutcomesMatch(const std::vector<WireRowOutcome>& outcomes,
                         const std::vector<ScoreResult>& want) {
  ASSERT_EQ(outcomes.size(), want.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ExpectOutcomeMatches(outcomes[i], want[i], i);
  }
}

/// A connected loopback socket pair (no threads: the kernel completes
/// the handshake against the listen backlog before Accept runs).
struct SocketPair {
  TcpListener listener;
  TcpConnection client;
  TcpConnection server;
};

SocketPair MakeSocketPair() {
  SocketPair pair;
  Result<TcpListener> listener = TcpListener::Listen("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  pair.listener = std::move(listener).value();
  Result<TcpConnection> client =
      TcpConnection::Connect("127.0.0.1", pair.listener.port(), kIo);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  pair.client = std::move(client).value();
  Result<TcpConnection> server = pair.listener.Accept(kIo);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  pair.server = std::move(server).value();
  return pair;
}

/// Hand-built frame bytes (the ReadFrame corruption tests need control
/// over every byte; WriteFrame would fix what we break). The trailer is
/// the real wire checksum, so the unflipped frame reads OK.
std::string RawFrame(const std::string& magic, uint8_t version, uint8_t type,
                     const std::string& payload) {
  BinaryWriter w;
  for (char c : magic) w.WriteU8(static_cast<uint8_t>(c));
  w.WriteU8(version);
  w.WriteU8(type);
  w.WriteU8(0);
  w.WriteU8(0);
  w.WriteU64(payload.size());
  std::string buf = std::move(w).TakeBuffer();
  buf.append(payload);
  BinaryWriter trailer;
  trailer.WriteU64(
      net::FrameChecksum(nullptr, 0, payload.data(), payload.size()));
  buf.append(std::move(trailer).TakeBuffer());
  return buf;
}

/// Sends `raw` and reads it back as one frame.
Result<Frame> SendAndRead(SocketPair& pair, const std::string& raw) {
  Status sent = pair.client.SendAll(raw.data(), raw.size(), kIo);
  if (!sent.ok()) return sent;
  return ReadFrame(pair.server, kIo);
}

// ---------------------------------------------------------------- framing

TEST(FrameTest, RoundTripOverLoopback) {
  SocketPair pair = MakeSocketPair();
  std::string payload = "hello over the wire";
  ASSERT_TRUE(
      WriteFrame(pair.client, FrameType::kScoreBatch, payload, kIo).ok());
  Result<Frame> frame = ReadFrame(pair.server, kIo);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, FrameType::kScoreBatch);
  EXPECT_EQ(frame.value().payload, payload);

  // Empty payloads frame fine too (kHealthProbe has none).
  ASSERT_TRUE(WriteFrame(pair.server, FrameType::kHealthProbe, "", kIo).ok());
  Result<Frame> probe = ReadFrame(pair.client, kIo);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe.value().type, FrameType::kHealthProbe);
  EXPECT_TRUE(probe.value().payload.empty());
}

TEST(FrameTest, ErrorFrameRoundTripsTypedStatus) {
  SocketPair pair = MakeSocketPair();
  Status remote = Status::DeadlineExceeded("batch missed its deadline");
  ASSERT_TRUE(net::WriteErrorFrame(pair.server, remote, kIo).ok());
  Result<Frame> frame = ReadFrame(pair.client, kIo);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame.value().type, FrameType::kError);
  Status decoded = net::ExpectFrame(frame.value(), FrameType::kScoreBatchReply);
  EXPECT_EQ(decoded.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(decoded.message().find("batch missed its deadline"),
            std::string::npos);
}

TEST(FrameTest, UnexpectedReplyTypeIsDataLoss) {
  Frame frame;
  frame.type = FrameType::kHealthProbeReply;
  EXPECT_EQ(net::ExpectFrame(frame, FrameType::kScoreBatchReply).code(),
            StatusCode::kDataLoss);
  frame.type = FrameType::kScoreBatchReply;
  EXPECT_TRUE(net::ExpectFrame(frame, FrameType::kScoreBatchReply).ok());
}

TEST(FrameTest, BadMagicIsUnavailable) {
  SocketPair pair = MakeSocketPair();
  std::string raw = RawFrame("XXXX", net::kFrameProtocolVersion, 1, "p");
  Result<Frame> frame = SendAndRead(pair, raw);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, FutureProtocolVersionIsUnavailable) {
  SocketPair pair = MakeSocketPair();
  std::string raw = RawFrame("FDRP", net::kFrameProtocolVersion + 1, 1, "p");
  Result<Frame> frame = SendAndRead(pair, raw);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, VersionOneFrameIsUnavailableNotDataLoss) {
  // A v1 peer's frame exactly as it wrote it: version byte 1 and an
  // FNV-1a trailer over the payload. It must be refused on its version,
  // not reported as corruption.
  SocketPair pair = MakeSocketPair();
  std::string payload = "from an old peer";
  std::string raw = RawFrame("FDRP", 1, 1, payload);
  BinaryWriter fnv;
  fnv.WriteU64(Fnv1aHash(payload.data(), payload.size()));
  raw.replace(raw.size() - 8, 8, fnv.buffer());
  Result<Frame> frame = SendAndRead(pair, raw);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable)
      << frame.status().ToString();
}

TEST(FrameTest, ChecksumMismatchIsDataLoss) {
  SocketPair pair = MakeSocketPair();
  std::string payload = "precious payload bytes";
  std::string raw = RawFrame("FDRP", net::kFrameProtocolVersion, 1, payload);
  // Positive control: the forged frame is valid before the flip.
  Result<Frame> intact = SendAndRead(pair, raw);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(intact.value().payload, payload);

  raw[20] ^= 0x40;  // flip a payload bit; the trailer checksum now lies
  Result<Frame> frame = SendAndRead(pair, raw);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, TraceExtensionRoundTripsOverLoopback) {
  SocketPair pair = MakeSocketPair();
  std::string payload = "traced score batch";
  net::FrameTraceContext trace;
  trace.trace_id = 0;  // batch frames carry tier linkage, not a row id
  trace.parent_span_id = 0xDEADBEEFCAFEF00Dull;
  ASSERT_TRUE(net::WriteTracedFrame(pair.client, FrameType::kScoreBatch,
                                    payload, trace, kIo)
                  .ok());
  Result<Frame> frame = ReadFrame(pair.server, kIo);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, FrameType::kScoreBatch);
  EXPECT_EQ(frame.value().payload, payload);
  EXPECT_TRUE(frame.value().has_trace);
  EXPECT_EQ(frame.value().trace.trace_id, trace.trace_id);
  EXPECT_EQ(frame.value().trace.parent_span_id, trace.parent_span_id);

  // A plain frame on the same connection stays flagless.
  ASSERT_TRUE(
      WriteFrame(pair.server, FrameType::kHealthProbe, "", kIo).ok());
  Result<Frame> probe = ReadFrame(pair.client, kIo);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_FALSE(probe.value().has_trace);
}

/// Hand-built traced frame so the corruption tests can flip extension
/// bytes that WriteTracedFrame would checksum correctly. The trailer is
/// the real wire checksum, so the unflipped frame reads OK.
std::string RawTracedFrame(uint16_t flags, uint64_t trace_id,
                           uint64_t parent_span_id,
                           const std::string& payload) {
  BinaryWriter w;
  for (char c : {'F', 'D', 'R', 'P'}) w.WriteU8(static_cast<uint8_t>(c));
  w.WriteU8(net::kFrameProtocolVersion);
  w.WriteU8(1);  // kScoreBatch
  w.WriteU8(static_cast<uint8_t>(flags & 0xFF));
  w.WriteU8(static_cast<uint8_t>(flags >> 8));
  w.WriteU64(payload.size());
  std::string buf = std::move(w).TakeBuffer();
  if ((flags & net::kFrameFlagTrace) != 0) {
    BinaryWriter ext;
    ext.WriteU64(trace_id);
    ext.WriteU64(parent_span_id);
    buf.append(std::move(ext).TakeBuffer());
  }
  const size_t ext_size = buf.size() - 16;
  BinaryWriter trailer;
  trailer.WriteU64(net::FrameChecksum(buf.data() + 16, ext_size,
                                      payload.data(), payload.size()));
  buf.append(payload);
  buf.append(std::move(trailer).TakeBuffer());
  return buf;
}

TEST(FrameTest, CorruptedTraceExtensionIsDataLoss) {
  SocketPair pair = MakeSocketPair();
  std::string raw =
      RawTracedFrame(net::kFrameFlagTrace, 0x1234, 0x5678, "payload");
  // Positive control: the forged frame is valid before the flip.
  Result<Frame> intact = SendAndRead(pair, raw);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(intact.value().trace.trace_id, 0x1234u);

  raw[18] ^= 0x20;  // flip a byte inside the 16-byte trace extension
  Result<Frame> frame = SendAndRead(pair, raw);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss)
      << "the trailer checksum must cover the extension bytes";
}

TEST(FrameTest, EverySingleBitFlipAfterTheHeaderIsDataLoss) {
  SocketPair pair = MakeSocketPair();
  const std::string raw = RawTracedFrame(
      net::kFrameFlagTrace, 0x0123456789ABCDEFull, 0xFEDCBA9876543210ull,
      "a payload that spans more than one 32-byte hash stripe");
  Result<Frame> intact = SendAndRead(pair, raw);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();

  // Extension, payload and trailer: every byte after the 16-byte header.
  for (size_t byte = 16; byte < raw.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = raw;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      Result<Frame> frame = SendAndRead(pair, flipped);
      ASSERT_FALSE(frame.ok()) << "byte " << byte << " bit " << bit;
      ASSERT_EQ(frame.status().code(), StatusCode::kDataLoss)
          << "byte " << byte << " bit " << bit << ": "
          << frame.status().ToString();
    }
  }
}

TEST(FrameTest, UnknownFlagBitsAreRejectedNotDesynced) {
  SocketPair pair = MakeSocketPair();
  std::string raw = RawTracedFrame(/*flags=*/0x2, 0, 0, "payload");
  Result<Frame> frame = SendAndRead(pair, raw);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, OversizePayloadIsDataLoss) {
  SocketPair pair = MakeSocketPair();
  std::string raw =
      RawFrame("FDRP", net::kFrameProtocolVersion, 1, std::string(64, 'x'));
  ASSERT_TRUE(pair.client.SendAll(raw.data(), raw.size(), kIo).ok());
  Result<Frame> frame = ReadFrame(pair.server, kIo, /*max_payload=*/16);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, PeerClosingMidFrameIsUnavailable) {
  SocketPair pair = MakeSocketPair();
  // Header promises 64 payload bytes; the peer hangs up after 4.
  std::string raw = RawFrame("FDRP", net::kFrameProtocolVersion, 1,
                             std::string(64, 'x'));
  ASSERT_TRUE(pair.client.SendAll(raw.data(), 20, kIo).ok());
  pair.client.Close();
  Result<Frame> frame = ReadFrame(pair.server, kIo);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameTest, SilentPeerIsDeadlineExceeded) {
  SocketPair pair = MakeSocketPair();
  Result<Frame> frame = ReadFrame(pair.server, std::chrono::milliseconds(50));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FrameTest, FrameWrittenOneByteAtATimeIsReadWhole) {
  SocketPair pair = MakeSocketPair();
  const std::string payload = "trickled over the wire one byte at a time";
  const std::string raw =
      RawTracedFrame(net::kFrameFlagTrace, 0x1111, 0x2222, payload);
  // Every byte goes out alone after a pause, so each read of the header,
  // extension, payload and trailer finds the socket drained and has to
  // wait for the next byte.
  std::thread writer([&] {
    for (char c : raw) {
      std::this_thread::sleep_for(std::chrono::microseconds{200});
      EXPECT_TRUE(pair.client.SendAll(&c, 1, kIo).ok());
    }
  });
  Result<Frame> frame = ReadFrame(pair.server, kIo);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, FrameType::kScoreBatch);
  EXPECT_EQ(frame.value().payload, payload);
  EXPECT_TRUE(frame.value().has_trace);
  EXPECT_EQ(frame.value().trace.trace_id, 0x1111u);
  EXPECT_EQ(frame.value().trace.parent_span_id, 0x2222u);
}

TEST(SocketTest, SendResumesWhenAStalledReceiverDrains) {
  SocketPair pair = MakeSocketPair();
  // 8 MiB outgrows both kernel buffers, so SendAll waits for room until
  // the receiver starts reading, then finishes well inside its deadline.
  std::string sent(8 << 20, '\0');
  for (size_t i = 0; i < sent.size(); ++i) sent[i] = static_cast<char>(i * 131);
  std::string got(sent.size(), '\0');
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
    EXPECT_TRUE(pair.server.RecvAll(&got[0], got.size(), kIo).ok());
  });
  Status st = pair.client.SendAll(sent.data(), sent.size(), kIo);
  reader.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(got == sent);
}

TEST(SocketTest, StalledReceiverBoundsSendAtDeadline) {
  SocketPair pair = MakeSocketPair();
  // Nobody ever drains the server side, so the kernel buffers on both
  // ends fill and stay full well before 64 MiB is queued. A blocking
  // send() would wedge here forever; the non-blocking loop must surface
  // kDeadlineExceeded at roughly the deadline instead.
  std::string big(64 << 20, 'x');
  auto start = std::chrono::steady_clock::now();
  Status st = pair.client.SendAll(big.data(), big.size(),
                                  std::chrono::milliseconds(200));
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// ------------------------------------------------------------- wire codecs

TEST(WireTest, ScoreRequestRoundTripsBitwise) {
  WireScoreRequest request;
  request.width = 3;
  request.rows = {1.5, -0.0, 2.25, std::numeric_limits<double>::quiet_NaN(),
                  -1e300, 0.1};
  request.deadline_ns = 123456789;
  BinaryWriter w;
  net::SerializeScoreRequest(request, &w);
  std::string bytes = std::move(w).TakeBuffer();
  BinaryReader r(bytes);
  Result<WireScoreRequest> back = net::DeserializeScoreRequest(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().width, request.width);
  EXPECT_EQ(back.value().deadline_ns, request.deadline_ns);
  ASSERT_EQ(back.value().rows.size(), request.rows.size());
  for (size_t i = 0; i < request.rows.size(); ++i) {
    ExpectSameBits(back.value().rows[i], request.rows[i], i, "row value");
  }
  EXPECT_EQ(back.value().count(), 2u);
}

TEST(WireTest, RowOutcomesRoundTripBitwiseIncludingSentinels) {
  std::vector<WireRowOutcome> outcomes(2);
  outcomes[0].code = StatusCode::kOk;
  outcomes[0].result.probability = -0.0;  // signed zero must survive
  outcomes[0].result.label = 1;
  outcomes[0].result.routed_group = 2;
  outcomes[0].result.margin = std::numeric_limits<double>::infinity();
  outcomes[0].result.log_density =
      std::numeric_limits<double>::quiet_NaN();  // no-monitor sentinel
  outcomes[0].result.density_outlier = true;
  outcomes[0].result.snapshot_version = 7;
  outcomes[1].code = StatusCode::kUnavailable;
  outcomes[1].message = "queue full";

  BinaryWriter w;
  net::SerializeRowOutcomes(outcomes, &w);
  std::string bytes = std::move(w).TakeBuffer();
  BinaryReader r(bytes);
  Result<std::vector<WireRowOutcome>> back = net::DeserializeRowOutcomes(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(back.value()[0].code, StatusCode::kOk);
  ExpectSameBits(back.value()[0].result.probability, -0.0, 0, "probability");
  ExpectSameBits(back.value()[0].result.log_density,
                 outcomes[0].result.log_density, 0, "log_density");
  EXPECT_EQ(back.value()[0].result.snapshot_version, 7u);
  EXPECT_EQ(back.value()[1].code, StatusCode::kUnavailable);
  EXPECT_EQ(back.value()[1].message, "queue full");
}

TEST(WireTest, TruncatedPayloadIsTypedErrorNotMisparse) {
  std::vector<WireRowOutcome> outcomes(3);
  BinaryWriter w;
  net::SerializeRowOutcomes(outcomes, &w);
  std::string bytes = std::move(w).TakeBuffer();
  for (size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                     bytes.size() - 1}) {
    BinaryReader r(bytes.data(), cut);
    Result<std::vector<WireRowOutcome>> back = net::DeserializeRowOutcomes(&r);
    EXPECT_FALSE(back.ok()) << "cut at " << cut;
  }
}

// A reply whose row count its bytes cannot hold fails before the
// decoder reserves anything (a WireRowOutcome is ~100 bytes in memory,
// so an 8-byte payload claiming 2^20 rows would otherwise allocate
// ~100 MB first).
TEST(WireTest, TruncatedReplyCountIsDataLossBeforeAllocating) {
  for (uint64_t claimed : {uint64_t{1}, uint64_t{2}, uint64_t{1} << 20}) {
    std::vector<WireRowOutcome> one(1);
    BinaryWriter w;
    net::SerializeRowOutcomes(one, &w);
    std::string bytes = std::move(w).TakeBuffer();
    BinaryWriter count;
    count.WriteU64(claimed);
    std::string header = std::move(count).TakeBuffer();
    // Keep one outcome's bytes (a 63-byte minimum): enough for 1 row.
    bytes.replace(0, header.size(), header);
    BinaryReader r(bytes);
    Result<std::vector<WireRowOutcome>> back =
        net::DeserializeRowOutcomes(&r);
    if (claimed == 1) {
      EXPECT_TRUE(back.ok()) << back.status().ToString();
      continue;
    }
    ASSERT_FALSE(back.ok()) << "claimed " << claimed;
    EXPECT_EQ(back.status().code(), StatusCode::kDataLoss);
  }
  BinaryWriter count_only;
  count_only.WriteU64(uint64_t{1} << 20);
  std::string bytes = std::move(count_only).TakeBuffer();
  BinaryReader r(bytes);
  EXPECT_EQ(net::DeserializeRowOutcomes(&r).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireTest, FarDeadlineSaturatesInsteadOfWrapping) {
  WireScoreRequest request;
  request.deadline_ns = 0;
  EXPECT_EQ(request.deadline(), std::chrono::nanoseconds{0});
  request.deadline_ns = 5000;
  EXPECT_EQ(request.deadline(), std::chrono::nanoseconds{5000});
  request.deadline_ns =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(request.deadline(), std::chrono::nanoseconds::max());
  request.deadline_ns = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(request.deadline(), std::chrono::nanoseconds::max());
}

TEST(WireTest, StatsViewRoundTripsBitwise) {
  // Drive a real ServerStats so every field (EWMAs, audit sentinels,
  // both histograms) holds a lived-in value, then round-trip its View.
  ServerStats stats;
  for (int i = 0; i < 37; ++i) {
    stats.RecordSubmitted();
    stats.RecordCompletion(std::chrono::microseconds(120 + 13 * i));
  }
  stats.RecordAdmissionShed();
  stats.RecordDeadlineShed();
  stats.RecordInvalidRequest();
  stats.RecordSnapshotSwap();
  stats.RecordBatch(8, std::chrono::microseconds(900));
  stats.RecordBatch(16, std::chrono::microseconds(1700));
  stats.RecordDensity(24, 3);
  stats.RecordTraceSampled();
  stats.RecordTraceSampled();
  stats.RecordTraceAppendFailure();
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    stats.RecordStageLatency(s, std::chrono::nanoseconds(1000 * (s + 1)));
    stats.RecordStageLatency(s, std::chrono::nanoseconds(9000 * (s + 1)));
  }
  ServerStats::View view = stats.Snapshot();

  BinaryWriter w;
  net::SerializeStatsView(view, &w);
  std::string bytes = std::move(w).TakeBuffer();
  BinaryReader r(bytes);
  Result<ServerStats::View> back = net::DeserializeStatsView(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const ServerStats::View& v = back.value();
  EXPECT_EQ(v.submitted, view.submitted);
  EXPECT_EQ(v.completed, view.completed);
  EXPECT_EQ(v.shed_admission, view.shed_admission);
  EXPECT_EQ(v.shed_deadline, view.shed_deadline);
  EXPECT_EQ(v.invalid, view.invalid);
  EXPECT_EQ(v.batches, view.batches);
  EXPECT_EQ(v.snapshot_swaps, view.snapshot_swaps);
  ExpectSameBits(v.mean_batch_size, view.mean_batch_size, 0, "mean_batch");
  ExpectSameBits(v.p50_latency_us, view.p50_latency_us, 0, "p50");
  ExpectSameBits(v.p95_latency_us, view.p95_latency_us, 0, "p95");
  ExpectSameBits(v.p99_latency_us, view.p99_latency_us, 0, "p99");
  ExpectSameBits(v.ewma_batch_latency_us, view.ewma_batch_latency_us, 0,
                 "ewma_batch");
  EXPECT_EQ(v.density_checked, view.density_checked);
  EXPECT_EQ(v.density_outliers, view.density_outliers);
  ExpectSameBits(v.ewma_outlier_rate, view.ewma_outlier_rate, 0,
                 "ewma_outlier");
  EXPECT_EQ(v.audit_windows, view.audit_windows);
  EXPECT_EQ(v.audit_breaches, view.audit_breaches);
  EXPECT_EQ(v.audit_alerts_raised, view.audit_alerts_raised);
  EXPECT_EQ(v.audit_alert_active, view.audit_alert_active);
  EXPECT_EQ(v.audit_has_metrics, view.audit_has_metrics);
  ExpectSameBits(v.audit_last_di_star, view.audit_last_di_star, 0, "di_star");
  ExpectSameBits(v.audit_last_spd, view.audit_last_spd, 0, "spd");
  EXPECT_EQ(v.batch_size_hist, view.batch_size_hist);
  EXPECT_EQ(v.latency_hist, view.latency_hist);
  EXPECT_EQ(v.trace_sampled, view.trace_sampled);
  EXPECT_EQ(v.trace_sampled, 2u);
  EXPECT_EQ(v.trace_append_failures, 1u);
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    EXPECT_EQ(v.stage_hist[s], view.stage_hist[s]) << "stage " << s;
    ExpectSameBits(v.stage_p99_us[s], view.stage_p99_us[s], 0, "stage_p99");
    uint64_t total = 0;
    for (uint64_t c : v.stage_hist[s]) total += c;
    EXPECT_EQ(total, 2u) << "stage " << s;
  }
}

std::string StatsBytes(const ServerStats::View& view) {
  BinaryWriter w;
  net::SerializeStatsView(view, &w);
  return std::move(w).TakeBuffer();
}

TEST(WireTest, EveryStrictPrefixOfAStatsViewIsDataLoss) {
  ServerStats stats;
  stats.RecordSubmitted(3);
  stats.RecordCompletion(std::chrono::microseconds(250));
  stats.RecordBatch(3, std::chrono::microseconds(400));
  stats.RecordStageLatency(2, std::chrono::microseconds(90));
  std::string bytes = StatsBytes(stats.Snapshot());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryReader r(bytes.data(), cut);
    Result<ServerStats::View> back = net::DeserializeStatsView(&r);
    ASSERT_FALSE(back.ok()) << "cut at " << cut;
    ASSERT_EQ(back.status().code(), StatusCode::kDataLoss) << "cut at " << cut;
  }
  BinaryReader whole(bytes);
  EXPECT_TRUE(net::DeserializeStatsView(&whole).ok());
}

// A histogram whose bucket count its bytes cannot hold fails before the
// decoder reserves anything (2^16 buckets would reserve 512 KiB first,
// and a stats reply carries six histograms).
TEST(WireTest, HistogramCountPastThePayloadIsDataLossBeforeAllocating) {
  // A view with empty histograms ends in the last stage histogram's
  // count; claim 2^16 buckets there, with no bucket bytes after it.
  std::string bytes = StatsBytes(ServerStats::View{});
  BinaryWriter count;
  count.WriteU64(uint64_t{1} << 16);
  std::string claimed = std::move(count).TakeBuffer();
  bytes.replace(bytes.size() - claimed.size(), claimed.size(), claimed);
  BinaryReader r(bytes);
  Result<ServerStats::View> back = net::DeserializeStatsView(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(back.status().message().find("exceeds the payload"),
            std::string::npos)
      << back.status().ToString();
}

TEST(WireTest, HistogramMergeValidatesBucketCompatibility) {
  std::vector<uint64_t> dst = {1, 2, 3};
  std::vector<uint64_t> src = {10, 20, 30};
  ASSERT_TRUE(ServerStats::MergeHistogramInto(&dst, src).ok());
  EXPECT_EQ(dst, (std::vector<uint64_t>{11, 22, 33}));

  // A view from a mismatched build (different bucket count) must be
  // rejected, not walked out of bounds or silently misaligned.
  std::vector<uint64_t> alien = {1, 2, 3, 4};
  Status merged = ServerStats::MergeHistogramInto(&dst, alien);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dst, (std::vector<uint64_t>{11, 22, 33})) << "dst must be intact";
}

// -------------------------------------------------------- chunked snapshots

TEST(ManifestTest, ChunkedLoadBitwiseEqualsMonolithic) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(17, true);
  ASSERT_NE(snapshot, nullptr);

  // The chunks are byte-exact slices: reassembling them must reproduce
  // the manifest's whole-payload checksum.
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*snapshot);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  Result<std::string> payload =
      AssemblePayload(chunked.value().manifest, chunked.value().chunks);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(Fnv1aHash(payload.value().data(), payload.value().size()),
            chunked.value().manifest.payload_checksum);

  std::string mono = TestTempPath("net_mono.bin");
  std::string dir = TestTempPath("net_chunked_eq");
  ASSERT_TRUE(SaveSnapshot(*snapshot, mono).ok());
  ASSERT_TRUE(SaveChunkedSnapshot(*snapshot, dir).ok());

  Result<std::shared_ptr<const ModelSnapshot>> from_mono = LoadSnapshot(mono);
  ASSERT_TRUE(from_mono.ok()) << from_mono.status().ToString();
  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> from_chunks =
      LoadChunkedSnapshot(dir, SnapshotLoadMode::kStrict, &report);
  ASSERT_TRUE(from_chunks.ok()) << from_chunks.status().ToString();
  EXPECT_EQ(report.outcome, SnapshotLoadReport::Outcome::kComplete);
  EXPECT_TRUE(from_chunks.value()->has_density());

  Matrix requests = MakeRequests(96, 23);
  Result<std::vector<ScoreResult>> a = from_mono.value()->ScoreBatch(requests);
  Result<std::vector<ScoreResult>> b =
      from_chunks.value()->ScoreBatch(requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    ExpectSameBits(a.value()[i].probability, b.value()[i].probability, i,
                   "probability");
    ExpectSameBits(a.value()[i].log_density, b.value()[i].log_density, i,
                   "log_density");
    EXPECT_EQ(a.value()[i].label, b.value()[i].label) << "row " << i;
  }
}

TEST(ManifestTest, IncrementalSaveRewritesOnlyChangedChunks) {
  // Same training data, density monitor toggled: only the "density"
  // artifact differs between the two snapshots.
  std::shared_ptr<const ModelSnapshot> with = MakeSnapshot(29, true);
  std::shared_ptr<const ModelSnapshot> without = MakeSnapshot(29, false);
  ASSERT_NE(with, nullptr);
  ASSERT_NE(without, nullptr);

  std::string dir = TestTempPath("net_chunked_incr");
  std::vector<std::string> written;
  ASSERT_TRUE(SaveChunkedSnapshot(*with, dir, &written).ok());
  EXPECT_EQ(written.size(), 5u) << "first save writes every chunk";

  written.clear();
  ASSERT_TRUE(SaveChunkedSnapshot(*without, dir, &written).ok());
  ASSERT_EQ(written.size(), 1u)
      << "a density-only change must rewrite exactly one chunk";
  EXPECT_EQ(written[0], "density");

  // Idempotent re-save touches nothing.
  written.clear();
  ASSERT_TRUE(SaveChunkedSnapshot(*without, dir, &written).ok());
  EXPECT_TRUE(written.empty());

  // And the directory still loads as the latest save, strictly.
  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> loaded =
      LoadChunkedSnapshot(dir, SnapshotLoadMode::kStrict, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value()->has_density());
}

void FlipByteInFile(const std::string& path, long offset) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
  int c = fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
  fputc(c ^ 0x20, f);
  fclose(f);
}

TEST(ManifestTest, CorruptOptionalChunkDegradesOnlyUnderAllowPartial) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(31, true);
  ASSERT_NE(snapshot, nullptr);
  std::string dir = TestTempPath("net_chunked_corrupt");
  ASSERT_TRUE(SaveChunkedSnapshot(*snapshot, dir).ok());
  FlipByteInFile(dir + "/density.chunk", 12);

  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> strict =
      LoadChunkedSnapshot(dir, SnapshotLoadMode::kStrict, &report);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);

  Result<std::shared_ptr<const ModelSnapshot>> partial =
      LoadChunkedSnapshot(dir, SnapshotLoadMode::kAllowPartial, &report);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(report.outcome, SnapshotLoadReport::Outcome::kDegraded);
  EXPECT_FALSE(partial.value()->has_density())
      << "degraded load serves without the damaged monitor";
  EXPECT_TRUE(partial.value()->ScoreBatch(MakeRequests(8, 5)).ok());
}

TEST(ManifestTest, CorruptCoreChunkFailsEvenAllowPartial) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(37, true);
  ASSERT_NE(snapshot, nullptr);
  std::string dir = TestTempPath("net_chunked_core_corrupt");
  ASSERT_TRUE(SaveChunkedSnapshot(*snapshot, dir).ok());
  FlipByteInFile(dir + "/models.chunk", 16);

  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> loaded =
      LoadChunkedSnapshot(dir, SnapshotLoadMode::kAllowPartial, &report);
  ASSERT_FALSE(loaded.ok())
      << "a damaged model chunk must never serve, partial mode or not";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

// A pushed or on-disk manifest's sizes are claims: each is checked
// against the bytes in hand before anything is reserved, so 2^44 bytes
// claimed for a chunk of a few hundred is kDataLoss, not a 16 TiB
// allocation.
constexpr uint64_t kForgedChunkSize = uint64_t{1} << 44;

SnapshotManifest WithForgedFirstChunkSize(SnapshotManifest manifest) {
  manifest.payload_size += kForgedChunkSize - manifest.chunks[0].size;
  manifest.chunks[0].size = kForgedChunkSize;
  return manifest;
}

TEST(ManifestTest, AssemblyChecksSizeClaimsBeforeReserving) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(41, true);
  ASSERT_NE(snapshot, nullptr);
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*snapshot);
  ASSERT_TRUE(chunked.ok());
  Result<std::string> payload = AssemblePayload(
      WithForgedFirstChunkSize(chunked.value().manifest),
      chunked.value().chunks);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kDataLoss)
      << payload.status().ToString();
}

TEST(ManifestTest, LoadChecksSizeClaimsBeforeReserving) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(43, true);
  ASSERT_NE(snapshot, nullptr);
  std::string dir = TestTempPath("net_chunked_forged_size");
  ASSERT_TRUE(SaveChunkedSnapshot(*snapshot, dir).ok());
  Result<SnapshotManifest> manifest = LoadSnapshotManifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  // Rewrite MANIFEST around the forged body, framed as SaveChunkedSnapshot
  // frames it: magic, version, body size, body, FNV-1a(body).
  BinaryWriter body;
  SerializeManifest(WithForgedFirstChunkSize(manifest.value()), &body);
  BinaryWriter file;
  for (char c : std::string("FDSNMANI")) file.WriteU8(static_cast<uint8_t>(c));
  file.WriteU32(kSnapshotManifestVersion);
  file.WriteU64(body.buffer().size());
  std::string bytes = file.buffer() + body.buffer();
  BinaryWriter trailer;
  trailer.WriteU64(Fnv1aHash(body.buffer().data(), body.buffer().size()));
  bytes += trailer.buffer();
  ASSERT_TRUE(WriteFileBytesAtomic(dir + "/" + kSnapshotManifestFileName,
                                   bytes)
                  .ok());
  ASSERT_TRUE(LoadSnapshotManifest(dir).ok()) << "the forgery must parse";

  for (SnapshotLoadMode mode :
       {SnapshotLoadMode::kStrict, SnapshotLoadMode::kAllowPartial}) {
    SnapshotLoadReport report;
    Result<std::shared_ptr<const ModelSnapshot>> loaded =
        LoadChunkedSnapshot(dir, mode, &report);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();
  }
}

// Sizes 2^63 and 2^63 + 5 sum to 5 modulo 2^64, the claimed payload.
TEST(ManifestTest, ChunkSizesThatWrapAreRejected) {
  SnapshotManifest manifest;
  manifest.snapshot_format_version = kSnapshotFormatVersion;
  manifest.payload_size = 5;
  manifest.chunks.push_back({"schema", uint64_t{1} << 63, 0});
  manifest.chunks.push_back({"models", (uint64_t{1} << 63) + 5, 0});
  BinaryWriter w;
  SerializeManifest(manifest, &w);
  BinaryReader r(w.buffer());
  Result<SnapshotManifest> parsed = DeserializeManifest(&r);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
      << parsed.status().ToString();
}

// --------------------------------------------- daemon + remote fleet, E2E

struct TestFleet {
  std::vector<std::unique_ptr<ShardDaemon>> daemons;
  std::unique_ptr<RemoteFleet> fleet;
};

TestFleet StartFleet(std::shared_ptr<const ModelSnapshot> snapshot,
                     size_t num_daemons) {
  TestFleet tf;
  std::vector<std::string> addresses;
  for (size_t i = 0; i < num_daemons; ++i) {
    ShardDaemonOptions options;
    options.io_timeout = kIo;
    Result<std::unique_ptr<ShardDaemon>> daemon =
        ShardDaemon::Start(snapshot, options);
    EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
    if (!daemon.ok()) return tf;
    addresses.push_back("127.0.0.1:" +
                        std::to_string(daemon.value()->port()));
    tf.daemons.push_back(std::move(daemon).value());
  }
  RemoteFleetOptions options;
  options.routing = FleetRoutingPolicy::kHashRow;
  options.io_timeout = kIo;
  options.start_prober = false;  // tests step ProbeOnce() deterministically
  Result<std::unique_ptr<RemoteFleet>> fleet =
      RemoteFleet::Connect(addresses, options);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  if (fleet.ok()) tf.fleet = std::move(fleet).value();
  return tf;
}

TEST(RemoteFleetTest, RemoteScoringBitwiseEqualsInProcess) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(41, true);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 2);
  ASSERT_NE(tf.fleet, nullptr);

  Matrix requests = MakeRequests(64, 47);
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());

  // Both daemons took traffic (hash routing spreads 64 distinct rows).
  EXPECT_GT(tf.daemons[0]->server()->stats().completed, 0u);
  EXPECT_GT(tf.daemons[1]->server()->stats().completed, 0u);

  // Merged fleet stats see every completion.
  tf.fleet->ProbeOnce();
  FleetStatsView stats = tf.fleet->stats();
  EXPECT_EQ(stats.num_shards, 2u);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.min_snapshot_version, stats.max_snapshot_version);
}

TEST(RemoteFleetTest, StatsEqualTheFoldOfEveryDaemonsView) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(43, true);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 2);
  ASSERT_NE(tf.fleet, nullptr);
  // Hash-routed frames of several sizes, so the daemons' batch-size and
  // latency histograms differ.
  size_t total = 0;
  for (size_t rows : {64, 17, 5, 33}) {
    Matrix requests = MakeRequests(rows, 200 + rows);
    Result<std::vector<WireRowOutcome>> got =
        tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    total += rows;
  }
  ServerStats::View folded;
  for (const auto& daemon : tf.daemons) {
    ServerStats::View own = daemon->server()->stats();
    EXPECT_GT(own.completed, 0u);
    folded.MergeFrom(own);
  }
  FleetStatsView stats = tf.fleet->stats();
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.submitted, folded.submitted);
  EXPECT_EQ(stats.completed, folded.completed);
  EXPECT_EQ(stats.shed_admission, folded.shed_admission);
  EXPECT_EQ(stats.shed_deadline, folded.shed_deadline);
  EXPECT_EQ(stats.invalid, folded.invalid);
  EXPECT_EQ(stats.batches, folded.batches);
  EXPECT_EQ(stats.snapshot_swaps, folded.snapshot_swaps);
  EXPECT_EQ(stats.density_checked, folded.density_checked);
  EXPECT_EQ(stats.density_outliers, folded.density_outliers);
  EXPECT_EQ(stats.audit_windows, folded.audit_windows);
  EXPECT_EQ(stats.audit_breaches, folded.audit_breaches);
  EXPECT_EQ(stats.audit_alerts_raised, folded.audit_alerts_raised);
  EXPECT_EQ(stats.trace_sampled, folded.trace_sampled);
  EXPECT_EQ(stats.trace_append_failures, folded.trace_append_failures);
  EXPECT_EQ(stats.batch_size_hist, folded.batch_size_hist);
  EXPECT_EQ(stats.latency_hist, folded.latency_hist);
  // Every remaining field too: the wire bytes of both views agree.
  EXPECT_EQ(StatsBytes(stats), StatsBytes(folded));
}

TEST(ShardDaemonTest, MetricsScrapeExposesServerAndTraceFamilies) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(61, true);
  ASSERT_NE(snapshot, nullptr);
  ShardDaemonOptions options;
  options.io_timeout = kIo;
  options.trace_log_path = TestTempPath("metrics_scrape_trace") + ".jsonl";
  options.trace_sample_modulus = 1;  // sample every row
  Result<std::unique_ptr<ShardDaemon>> daemon =
      ShardDaemon::Start(snapshot, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  RemoteShardClient client("127.0.0.1", daemon.value()->port(), kIo);
  Matrix requests = MakeRequests(8, 19);
  WireScoreRequest request;
  request.width = requests.cols();
  request.rows = Flatten(requests);
  net::FrameTraceContext trace;
  trace.parent_span_id = 0x1111222233334444ull;
  Result<std::vector<WireRowOutcome>> got =
      client.ScoreBatch(request, &trace);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), 8u);
  for (size_t i = 0; i < got.value().size(); ++i) {
    ASSERT_EQ(got.value()[i].code, StatusCode::kOk)
        << got.value()[i].message;
    EXPECT_NE(got.value()[i].result.trace_id, 0u)
        << "modulus 1 samples every row, so every outcome carries its id";
  }

  Result<std::string> text = client.Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string& body = text.value();
  EXPECT_NE(body.find("fairdrift_completed_total 8\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("fairdrift_trace_sampled_total 8\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("fairdrift_trace_log_records_total 8\n"),
            std::string::npos)
      << "deferred trace emission must land before the reply frame: "
      << body;
  EXPECT_NE(body.find("# TYPE fairdrift_completed_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("fairdrift_stage_latency_us{stage=\"score\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("fairdrift_net_frames_served_total"),
            std::string::npos);
  EXPECT_NE(body.find("fairdrift_snapshot_version"), std::string::npos);

  // A scrape through a daemon without a trace log still renders the
  // shared family set (trace counters read zero).
  ShardDaemonOptions bare;
  bare.io_timeout = kIo;
  Result<std::unique_ptr<ShardDaemon>> plain =
      ShardDaemon::Start(snapshot, bare);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  RemoteShardClient plain_client("127.0.0.1", plain.value()->port(), kIo);
  Result<std::string> plain_text = plain_client.Metrics();
  ASSERT_TRUE(plain_text.ok()) << plain_text.status().ToString();
  EXPECT_NE(plain_text.value().find("fairdrift_trace_sampled_total 0\n"),
            std::string::npos);
  EXPECT_EQ(plain_text.value().find("fairdrift_trace_log_records_total"),
            std::string::npos)
      << "no trace log, no trace-log family";
}

// ------------------------------------------------------ one frame, one unit

/// One daemon with `options` (io timeout preset) plus a client to it.
struct TestDaemon {
  std::unique_ptr<ShardDaemon> daemon;
  std::unique_ptr<RemoteShardClient> client;
};

TestDaemon StartDaemon(std::shared_ptr<const ModelSnapshot> snapshot,
                       ShardDaemonOptions options = {}) {
  TestDaemon td;
  options.io_timeout = kIo;
  Result<std::unique_ptr<ShardDaemon>> daemon =
      ShardDaemon::Start(std::move(snapshot), options);
  EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
  if (!daemon.ok()) return td;
  td.daemon = std::move(daemon).value();
  td.client = std::make_unique<RemoteShardClient>(
      "127.0.0.1", td.daemon->port(), kIo);
  return td;
}

WireScoreRequest MakeWireRequest(const Matrix& rows, uint64_t deadline_ns = 0) {
  WireScoreRequest request;
  request.width = rows.cols();
  request.rows = Flatten(rows);
  request.deadline_ns = deadline_ns;
  return request;
}

TEST(ShardDaemonTest, FrameScoresAsOneUnitInOneBatch) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(71, true);
  ASSERT_NE(snapshot, nullptr);
  TestDaemon td = StartDaemon(snapshot);  // default batching: cap 64
  ASSERT_NE(td.daemon, nullptr);
  Matrix requests = MakeRequests(64, 72);
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());

  ServerStats::View before = td.daemon->server()->stats();
  Result<std::vector<WireRowOutcome>> got =
      td.client->ScoreBatch(MakeWireRequest(requests));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
  ServerStats::View after = td.daemon->server()->stats();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.submitted - before.submitted, 64u);
  EXPECT_EQ(after.completed - before.completed, 64u);
}

// Frames whose deadline is past the clock's range score as if they had
// none (the ASan+UBSan job catches the overflow this used to be).
TEST(ShardDaemonTest, FarWireDeadlinesScoreNormally) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(73, false);
  ASSERT_NE(snapshot, nullptr);
  TestDaemon td = StartDaemon(snapshot);
  ASSERT_NE(td.daemon, nullptr);
  Matrix requests = MakeRequests(8, 74);
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  for (uint64_t deadline_ns :
       {static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
        std::numeric_limits<uint64_t>::max()}) {
    Result<std::vector<WireRowOutcome>> got =
        td.client->ScoreBatch(MakeWireRequest(requests, deadline_ns));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectOutcomesMatch(got.value(), want.value());
  }
}

TEST(ShardDaemonTest, FrameOverTheDepthBoundIsShedWhole) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(75, false);
  ASSERT_NE(snapshot, nullptr);
  ShardDaemonOptions options;
  options.server.admission.max_queue_depth = 40;
  TestDaemon td = StartDaemon(snapshot, options);
  ASSERT_NE(td.daemon, nullptr);
  Result<std::vector<WireRowOutcome>> got =
      td.client->ScoreBatch(MakeWireRequest(MakeRequests(64, 76)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), 64u);
  for (const WireRowOutcome& outcome : got.value()) {
    EXPECT_EQ(outcome.code, StatusCode::kUnavailable) << outcome.message;
  }
  ServerStats::View stats = td.daemon->server()->stats();
  EXPECT_EQ(stats.shed_admission, 64u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.completed + stats.shed_deadline + stats.invalid,
            stats.submitted);
}

TEST(ShardDaemonTest, BadRowInAFrameFailsOnlyItsOwnOutcome) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(77, true);
  ASSERT_NE(snapshot, nullptr);
  TestDaemon td = StartDaemon(snapshot);
  ASSERT_NE(td.daemon, nullptr);
  Matrix requests = MakeRequests(16, 78);
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  requests.At(3, 3) = 9.0;  // category code outside [0, 3)
  Result<std::vector<WireRowOutcome>> got =
      td.client->ScoreBatch(MakeWireRequest(requests));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    if (i == 3) {
      EXPECT_EQ(got.value()[i].code, StatusCode::kInvalidArgument);
      continue;
    }
    ExpectOutcomeMatches(got.value()[i], want.value()[i], i);
  }
  ServerStats::View stats = td.daemon->server()->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.completed, 15u);
}

/// The stamp of `stage` in a span record's JSON, 0 when absent.
// A forged push names the chunk the daemon already holds with a 2^44-byte
// size and commits without sending it. The commit is kDataLoss instead
// of an allocation failure that aborts the daemon, and the daemon keeps
// serving its snapshot.
TEST(ShardDaemonTest, ForgedPushSizeIsDataLossAndTheDaemonKeepsServing) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(75, true);
  ASSERT_NE(snapshot, nullptr);
  TestDaemon td = StartDaemon(snapshot);
  ASSERT_NE(td.daemon, nullptr);
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*snapshot);
  ASSERT_TRUE(chunked.ok());
  const SnapshotManifest& held = chunked.value().manifest;
  size_t schema = held.FindChunk("schema");
  ASSERT_NE(schema, static_cast<size_t>(-1));

  SnapshotManifest forged;
  forged.snapshot_format_version = held.snapshot_format_version;
  forged.payload_size = held.chunks[schema].size;
  forged.chunks.push_back(held.chunks[schema]);
  forged = WithForgedFirstChunkSize(forged);
  Result<std::vector<std::string>> needed = td.client->PushManifest(forged);
  ASSERT_TRUE(needed.ok()) << needed.status().ToString();
  Result<RemoteShardClient::CommitReply> commit = td.client->PushCommit();
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.status().code(), StatusCode::kDataLoss)
      << commit.status().ToString();
  EXPECT_EQ(td.daemon->counters().push_commits, 0u);

  Matrix requests = MakeRequests(16, 76);
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      td.client->ScoreBatch(MakeWireRequest(requests));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
}

uint64_t SpanStamp(const std::string& rec, TraceStage stage) {
  const std::string key = std::string("\"") + TraceStageName(stage) + "\":";
  size_t at = rec.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(rec.substr(at + key.size()));
}

TEST(ShardDaemonTest, TracedFrameWritesOneOrderedSpanPerSampledRow) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(79, true);
  ASSERT_NE(snapshot, nullptr);
  const uint32_t kModulus = 3;
  ShardDaemonOptions options;
  const std::string path = TestTempPath("unit_frame_trace") + ".jsonl";
  options.trace_log_path = path;
  options.trace_sample_modulus = kModulus;
  TestDaemon td = StartDaemon(snapshot, options);
  ASSERT_NE(td.daemon, nullptr);

  Matrix requests = MakeRequests(48, 80);
  size_t sampled = 0;
  for (size_t i = 0; i < requests.rows(); ++i) {
    sampled += MintTraceContext(requests.RowPtr(i), requests.cols(), kModulus)
                       .sampled()
                   ? 1
                   : 0;
  }
  ASSERT_GT(sampled, 0u);
  Result<std::vector<WireRowOutcome>> got =
      td.client->ScoreBatch(MakeWireRequest(requests));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Deferred emission lands before the reply frame.
  EXPECT_EQ(td.daemon->trace_log()->records(), sampled);

  td.daemon.reset();  // flush and close the log
  AuditVerifyReport report;
  Result<std::vector<AuditLogEntry>> entries =
      ReadAuditLogChain(path, &report);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries.value().size(), sampled);
  for (const AuditLogEntry& entry : entries.value()) {
    uint64_t prev = 0;
    for (size_t s = 0; s < kTraceStageCount; ++s) {
      uint64_t ns = SpanStamp(entry.rec, static_cast<TraceStage>(s));
      EXPECT_NE(ns, 0u) << TraceStageName(static_cast<TraceStage>(s))
                        << " missing: " << entry.rec;
      EXPECT_GE(ns, prev) << TraceStageName(static_cast<TraceStage>(s))
                          << " regressed: " << entry.rec;
      prev = ns;
    }
  }
}

TEST(RemoteFleetTest, MalformedRowWidthIsInvalidArgument) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(41, false);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 1);
  ASSERT_NE(tf.fleet, nullptr);
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch({1.0, 2.0, 3.0}, 2);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(RemoteFleetTest, PushRollingMovesOnlyChangedChunkAndAdvancesVersion) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(53, true);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(53, false);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  TestFleet tf = StartFleet(before, 2);
  ASSERT_NE(tf.fleet, nullptr);

  std::vector<uint64_t> old_versions;
  for (size_t s = 0; s < 2; ++s) {
    Result<net::WireHealthProbe> probe = tf.fleet->shard_client(s)->Probe();
    ASSERT_TRUE(probe.ok());
    old_versions.push_back(probe.value().snapshot_version);
  }

  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after);
  ASSERT_TRUE(chunked.ok());
  Result<RollingUpdateReport> report = tf.fleet->PushRolling(chunked.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().state, RolloutState::kCommitted);
  EXPECT_EQ(report.value().shards_updated, 2u);

  for (size_t s = 0; s < 2; ++s) {
    // The daemon diffed the manifest against what it already serves:
    // only the changed density chunk traveled.
    ShardDaemon::Counters counters = tf.daemons[s]->counters();
    EXPECT_EQ(counters.push_chunks_received, 1u) << "shard " << s;
    EXPECT_EQ(counters.push_commits, 1u) << "shard " << s;
    EXPECT_EQ(counters.push_reverts, 0u) << "shard " << s;
    Result<net::WireHealthProbe> probe = tf.fleet->shard_client(s)->Probe();
    ASSERT_TRUE(probe.ok());
    EXPECT_NE(probe.value().snapshot_version, old_versions[s])
        << "shard " << s << " still serves the pre-push version";
  }

  // The fleet serves the pushed snapshot bitwise.
  Matrix requests = MakeRequests(48, 59);
  Result<std::vector<ScoreResult>> want = after->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());

  // Version stamps are process-local counters, so cross-daemon equality
  // is not the invariant (two daemons in this one test process draw
  // consecutive stamps for the same bytes); the zero-skew witness above
  // is content: every shard serves the pushed snapshot bitwise. The
  // fleet view must still have picked up the post-push stamps.
  tf.fleet->ProbeOnce();
  FleetStatsView stats = tf.fleet->stats();
  EXPECT_GT(stats.min_snapshot_version, 0u);
  EXPECT_EQ(stats.rolling_updates, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
}

TEST(RemoteFleetTest, PushRevertRestoresPreviousSnapshotBitwise) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(61, true);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(62, true);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  TestFleet tf = StartFleet(before, 1);
  ASSERT_NE(tf.fleet, nullptr);
  RemoteShardClient* client = tf.fleet->shard_client(0);

  // Manual push conversation: manifest -> needed chunks -> commit.
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after);
  ASSERT_TRUE(chunked.ok());
  Result<std::vector<std::string>> needed =
      client->PushManifest(chunked.value().manifest);
  ASSERT_TRUE(needed.ok()) << needed.status().ToString();
  EXPECT_FALSE(needed.value().empty());
  for (const std::string& name : needed.value()) {
    size_t idx = chunked.value().manifest.FindChunk(name);
    ASSERT_NE(idx, static_cast<size_t>(-1)) << name;
    ASSERT_TRUE(
        client->PushChunk(name, chunked.value().chunks[idx].bytes).ok());
  }
  Result<RemoteShardClient::CommitReply> commit = client->PushCommit();
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();

  Matrix requests = MakeRequests(32, 67);
  Result<std::vector<ScoreResult>> want_after = after->ScoreBatch(requests);
  ASSERT_TRUE(want_after.ok());
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  ASSERT_TRUE(got.ok());
  ExpectOutcomesMatch(got.value(), want_after.value());

  // Revert: the daemon swaps back to the one-deep previous snapshot.
  Result<uint64_t> reverted = client->PushRevert();
  ASSERT_TRUE(reverted.ok()) << reverted.status().ToString();
  EXPECT_NE(reverted.value(), commit.value().snapshot_version);
  Result<std::vector<ScoreResult>> want_before = before->ScoreBatch(requests);
  ASSERT_TRUE(want_before.ok());
  got = tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  ASSERT_TRUE(got.ok());
  ExpectOutcomesMatch(got.value(), want_before.value());
  EXPECT_EQ(tf.daemons[0]->counters().push_reverts, 1u);
}

TEST(RemoteFleetTest, KilledShardFailsOverBitwiseThenReadmitsAfterRestart) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(71, true);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 2);
  ASSERT_NE(tf.fleet, nullptr);

  Matrix requests = MakeRequests(40, 73);
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());

  // Kill shard 1 (daemon destroyed, port released, connections reset).
  uint16_t dead_port = tf.daemons[1]->port();
  tf.daemons[1].reset();

  // The very next batch fails over: the failed shard is ejected on the
  // spot and its hash-routed rows re-pick onto the survivor — all rows
  // still come back, bitwise identical (same snapshot everywhere).
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
  EXPECT_EQ(tf.fleet->ejections(), 1u);
  EXPECT_FALSE(tf.fleet->ShardAvailable(1));
  EXPECT_TRUE(tf.fleet->ShardAvailable(0));

  // While the daemon is down, probes keep it out of rotation.
  for (int i = 0; i < 3; ++i) tf.fleet->ProbeOnce();
  EXPECT_FALSE(tf.fleet->ShardAvailable(1));
  EXPECT_EQ(tf.fleet->readmissions(), 0u);

  // Operator restarts the daemon on the same port; K healthy probes
  // readmit it.
  ShardDaemonOptions options;
  options.port = dead_port;
  options.io_timeout = kIo;
  Result<std::unique_ptr<ShardDaemon>> restarted =
      Status::Unavailable("not restarted yet");
  for (int attempt = 0; attempt < 40; ++attempt) {
    restarted = ShardDaemon::Start(snapshot, options);
    if (restarted.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  tf.daemons[1] = std::move(restarted).value();

  for (int i = 0; i < 3; ++i) tf.fleet->ProbeOnce();
  EXPECT_TRUE(tf.fleet->ShardAvailable(1));
  EXPECT_EQ(tf.fleet->readmissions(), 1u);

  // The readmitted shard serves — still bitwise identical.
  got = tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  ASSERT_TRUE(got.ok());
  ExpectOutcomesMatch(got.value(), want.value());
  EXPECT_GT(tf.daemons[1]->server()->stats().completed, 0u)
      << "the restarted shard took back its hash-routed keys";
}

TEST(RemoteFleetTest, ProberDeclaresUnreachableShardDeadThenRecovers) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(79, false);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 2);
  ASSERT_NE(tf.fleet, nullptr);

  uint16_t dead_port = tf.daemons[0]->port();
  tf.daemons[0].reset();

  // No traffic touches the dead shard; the prober alone walks it
  // healthy -> degraded -> dead -> ejected in K stalled probes.
  for (int i = 0; i < 3; ++i) tf.fleet->ProbeOnce();
  EXPECT_EQ(tf.fleet->ejections(), 1u);
  EXPECT_FALSE(tf.fleet->ShardAvailable(0));

  // Dead stays dead while unreachable.
  for (int i = 0; i < 3; ++i) tf.fleet->ProbeOnce();
  EXPECT_EQ(tf.fleet->readmissions(), 0u);

  // A probe answered after death means the process was restarted: the
  // fsm reenters recovery and readmits after K healthy probes.
  ShardDaemonOptions options;
  options.port = dead_port;
  options.io_timeout = kIo;
  Result<std::unique_ptr<ShardDaemon>> restarted =
      Status::Unavailable("not restarted yet");
  for (int attempt = 0; attempt < 40; ++attempt) {
    restarted = ShardDaemon::Start(snapshot, options);
    if (restarted.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  tf.daemons[0] = std::move(restarted).value();

  for (int i = 0; i < 4; ++i) tf.fleet->ProbeOnce();
  EXPECT_TRUE(tf.fleet->ShardAvailable(0));
  EXPECT_EQ(tf.fleet->readmissions(), 1u);
}

TEST(RemoteFleetTest, LastRoutableShardIsNeverEjected) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(83, false);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 1);
  ASSERT_NE(tf.fleet, nullptr);

  tf.daemons[0].reset();
  Matrix requests = MakeRequests(4, 89);
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  // The call still returns (typed per-row errors), the shard stays in
  // rotation (nowhere else to send traffic), and probes don't eject it.
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (const WireRowOutcome& outcome : got.value()) {
    EXPECT_NE(outcome.code, StatusCode::kOk);
  }
  for (int i = 0; i < 5; ++i) tf.fleet->ProbeOnce();
  EXPECT_EQ(tf.fleet->ejections(), 0u);
  EXPECT_TRUE(tf.fleet->ShardAvailable(0));
}

// ----------------------------------------------------------------- router

/// Daemons plus a net::Router over them, and a client speaking to the
/// router exactly as it would to one daemon.
struct TestRouter {
  std::vector<std::unique_ptr<ShardDaemon>> daemons;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<RemoteShardClient> client;
};

TestRouter StartRouter(std::shared_ptr<const ModelSnapshot> snapshot,
                       size_t num_daemons) {
  TestRouter tr;
  std::vector<std::string> addresses;
  for (size_t i = 0; i < num_daemons; ++i) {
    ShardDaemonOptions options;
    options.io_timeout = kIo;
    Result<std::unique_ptr<ShardDaemon>> daemon =
        ShardDaemon::Start(snapshot, options);
    EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
    if (!daemon.ok()) return tr;
    addresses.push_back("127.0.0.1:" +
                        std::to_string(daemon.value()->port()));
    tr.daemons.push_back(std::move(daemon).value());
  }
  RemoteFleetOptions options;
  options.io_timeout = kIo;
  options.start_prober = false;
  Result<std::unique_ptr<net::Router>> router =
      net::Router::Start(addresses, options, "127.0.0.1", 0);
  EXPECT_TRUE(router.ok()) << router.status().ToString();
  if (!router.ok()) return tr;
  tr.router = std::move(router).value();
  tr.client = std::make_unique<RemoteShardClient>(
      "127.0.0.1", tr.router->port(), kIo);
  return tr;
}

TEST(RouterTest, ScoresThroughTheRouterBitwiseEqualInProcess) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(131, true);
  ASSERT_NE(snapshot, nullptr);
  TestRouter tr = StartRouter(snapshot, 2);
  ASSERT_NE(tr.client, nullptr);
  Matrix requests = MakeRequests(64, 133);
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      tr.client->ScoreBatch(MakeWireRequest(requests));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
  EXPECT_GT(tr.daemons[0]->server()->stats().completed, 0u);
  EXPECT_GT(tr.daemons[1]->server()->stats().completed, 0u);
}

TEST(RouterTest, RelayedPushCommitsOnBothDaemons) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(137, true);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(139, true);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  TestRouter tr = StartRouter(before, 2);
  ASSERT_NE(tr.client, nullptr);

  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after);
  ASSERT_TRUE(chunked.ok());
  Result<std::vector<std::string>> needed =
      tr.client->PushManifest(chunked.value().manifest);
  ASSERT_TRUE(needed.ok()) << needed.status().ToString();
  EXPECT_EQ(needed.value().size(), chunked.value().chunks.size())
      << "the router holds no chunks, so it asks for every one";
  for (const std::string& name : needed.value()) {
    size_t idx = chunked.value().manifest.FindChunk(name);
    ASSERT_NE(idx, static_cast<size_t>(-1)) << name;
    ASSERT_TRUE(
        tr.client->PushChunk(name, chunked.value().chunks[idx].bytes).ok());
  }
  Result<RemoteShardClient::CommitReply> commit = tr.client->PushCommit();
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();

  uint64_t lowest = 0;
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(tr.daemons[s]->counters().push_commits, 1u) << "shard " << s;
    uint64_t served = tr.daemons[s]->server()->CurrentSnapshot()->version();
    EXPECT_NE(served, before->version()) << "shard " << s;
    if (lowest == 0 || served < lowest) lowest = served;
  }
  EXPECT_EQ(commit.value().snapshot_version, lowest)
      << "the reply carries the lowest version the daemons committed";

  Matrix requests = MakeRequests(48, 141);
  Result<std::vector<ScoreResult>> want = after->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      tr.client->ScoreBatch(MakeWireRequest(requests));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
}

TEST(RouterTest, StatsSnapshotEqualsTheFoldOfTheDaemonsViews) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(143, true);
  ASSERT_NE(snapshot, nullptr);
  TestRouter tr = StartRouter(snapshot, 2);
  ASSERT_NE(tr.client, nullptr);
  for (size_t rows : {64, 9, 31}) {
    Result<std::vector<WireRowOutcome>> got =
        tr.client->ScoreBatch(MakeWireRequest(MakeRequests(rows, rows)));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  ServerStats::View folded;
  for (const auto& daemon : tr.daemons) {
    folded.MergeFrom(daemon->server()->stats());
  }
  Result<ServerStats::View> routed = tr.client->Stats();
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.value().completed, 104u);
  EXPECT_EQ(StatsBytes(routed.value()), StatsBytes(folded));
}

TEST(RouterTest, HealthProbeIsTheFoldOfTheDaemonsProbes) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(153, true);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(157, true);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  TestRouter tr = StartRouter(before, 2);  // the prober is off
  ASSERT_NE(tr.client, nullptr);
  for (size_t rows : {40, 7}) {
    Result<std::vector<WireRowOutcome>> got =
        tr.client->ScoreBatch(MakeWireRequest(MakeRequests(rows, rows)));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after);
  ASSERT_TRUE(chunked.ok());
  Result<RemoteShardClient::PushReply> pushed =
      tr.client->Push(chunked.value());
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();

  WireHealthProbe folded;
  for (size_t s = 0; s < tr.daemons.size(); ++s) {
    RemoteShardClient direct("127.0.0.1", tr.daemons[s]->port(), kIo);
    Result<WireHealthProbe> own = direct.Probe();
    ASSERT_TRUE(own.ok()) << own.status().ToString();
    folded.completed += own->completed;
    folded.queue_depth += own->queue_depth;
    folded.inflight_batches += own->inflight_batches;
    if (s == 0 || own->snapshot_version < folded.snapshot_version) {
      folded.snapshot_version = own->snapshot_version;
    }
  }
  Result<WireHealthProbe> routed = tr.client->Probe();
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->completed, 47u);
  EXPECT_EQ(routed->completed, folded.completed);
  EXPECT_EQ(routed->queue_depth, folded.queue_depth);
  EXPECT_EQ(routed->inflight_batches, folded.inflight_batches);
  EXPECT_EQ(routed->snapshot_version, folded.snapshot_version);
  EXPECT_EQ(routed->snapshot_version, pushed->snapshot_version)
      << "the pushed version, not the one the router last probed";
  EXPECT_NE(routed->snapshot_version, before->version());
}

TEST(RouterTest, UnknownFrameTypeGetsATypedErrorAndTheConnectionLives) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(149, false);
  ASSERT_NE(snapshot, nullptr);
  TestRouter tr = StartRouter(snapshot, 1);
  ASSERT_NE(tr.router, nullptr);
  Result<TcpConnection> conn =
      TcpConnection::Connect("127.0.0.1", tr.router->port(), kIo);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(
      WriteFrame(conn.value(), FrameType::kScoreBatchReply, "", kIo).ok());
  Result<Frame> reply = ReadFrame(conn.value(), kIo);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, FrameType::kError);
  EXPECT_EQ(net::StatusFromErrorPayload(reply.value().payload).code(),
            StatusCode::kInvalidArgument);
  // A handler error is a reply, not a broken stream.
  ASSERT_TRUE(WriteFrame(conn.value(), FrameType::kHealthProbe, "", kIo).ok());
  reply = ReadFrame(conn.value(), kIo);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, FrameType::kHealthProbeReply);
}

TEST(RouterTest, CommitWithoutAManifestIsFailedPrecondition) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(151, false);
  ASSERT_NE(snapshot, nullptr);
  TestRouter tr = StartRouter(snapshot, 1);
  ASSERT_NE(tr.client, nullptr);
  Result<RemoteShardClient::CommitReply> commit = tr.client->PushCommit();
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.status().code(), StatusCode::kFailedPrecondition)
      << commit.status().ToString();
  EXPECT_EQ(tr.daemons[0]->counters().push_commits, 0u);
}

// ------------------------------------------------------ injected net faults

#ifndef FAIRDRIFT_NO_FAULT_INJECTION

/// Arms the global injector for one test and guarantees it is disarmed
/// however the test exits.
class FaultGuard {
 public:
  explicit FaultGuard(uint64_t seed) { FaultInjector::Global().Arm(seed); }
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

TEST(NetFaultTest, InjectedReadFaultSurfacesTypedErrorAndRecovers) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(91, false);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 1);
  ASSERT_NE(tf.fleet, nullptr);
  Matrix requests = MakeRequests(4, 93);
  std::vector<double> flat = Flatten(requests);

  {
    FaultGuard guard(7);
    FaultRule truncate;  // every RecvAll (client and daemon) truncates
    FaultInjector::Global().SetRule("net.read", truncate);
    Result<std::vector<WireRowOutcome>> got =
        tf.fleet->ScoreBatch(flat, requests.cols());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (const WireRowOutcome& outcome : got.value()) {
      EXPECT_TRUE(outcome.code == StatusCode::kUnavailable ||
                  outcome.code == StatusCode::kDeadlineExceeded ||
                  outcome.code == StatusCode::kDataLoss)
          << StatusCodeToString(outcome.code);
    }
    EXPECT_GT(FaultInjector::Global().fires("net.read"), 0u);
  }

  // Disarmed, the same fleet object serves again (stale connections
  // reconnect; the last shard was never ejected).
  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(flat, requests.cols());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
}

TEST(NetFaultTest, InjectedWriteFaultSurfacesTypedErrorAndRecovers) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(97, false);
  ASSERT_NE(snapshot, nullptr);
  TestFleet tf = StartFleet(snapshot, 1);
  ASSERT_NE(tf.fleet, nullptr);
  Matrix requests = MakeRequests(4, 99);
  std::vector<double> flat = Flatten(requests);

  {
    FaultGuard guard(11);
    FaultRule truncate;
    FaultInjector::Global().SetRule("net.write", truncate);
    Result<std::vector<WireRowOutcome>> got =
        tf.fleet->ScoreBatch(flat, requests.cols());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (const WireRowOutcome& outcome : got.value()) {
      EXPECT_NE(outcome.code, StatusCode::kOk);
    }
  }

  Result<std::vector<ScoreResult>> want = snapshot->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(flat, requests.cols());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
}

TEST(NetFaultTest, InjectedChunkFaultFailsPushWithDataLossAndRollsBack) {
  std::shared_ptr<const ModelSnapshot> before = MakeSnapshot(101, true);
  std::shared_ptr<const ModelSnapshot> after = MakeSnapshot(102, true);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  TestFleet tf = StartFleet(before, 2);
  ASSERT_NE(tf.fleet, nullptr);

  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after);
  ASSERT_TRUE(chunked.ok());

  {
    FaultGuard guard(13);
    FaultRule reject;  // every staged chunk is rejected with kDataLoss
    FaultInjector::Global().SetRule("net.push.chunk", reject);
    RollingUpdateOptions rolling;
    rolling.max_attempts_per_shard = 2;
    rolling.initial_backoff = std::chrono::milliseconds(1);
    Result<RollingUpdateReport> report =
        tf.fleet->PushRolling(chunked.value(), rolling);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().state, RolloutState::kRolledBack);
    EXPECT_NE(
        report.value().failure.find("does not match its manifest entry"),
        std::string::npos)
        << report.value().failure;
  }

  // The fleet healed itself: every shard still serves `before`, bitwise.
  Matrix requests = MakeRequests(24, 103);
  Result<std::vector<ScoreResult>> want = before->ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  Result<std::vector<WireRowOutcome>> got =
      tf.fleet->ScoreBatch(Flatten(requests), requests.cols());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomesMatch(got.value(), want.value());
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(tf.daemons[s]->counters().push_commits, 0u) << "shard " << s;
    EXPECT_TRUE(tf.fleet->ShardAvailable(s)) << "shard " << s;
  }

  // With the fault gone the identical push commits.
  Result<RollingUpdateReport> report = tf.fleet->PushRolling(chunked.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().state, RolloutState::kCommitted);
}

TEST(NetFaultTest, InjectedAcceptFaultShedsConnectionsThenRecovers) {
  std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot(107, false);
  ASSERT_NE(snapshot, nullptr);
  ShardDaemonOptions options;
  options.io_timeout = kIo;
  Result<std::unique_ptr<ShardDaemon>> daemon =
      ShardDaemon::Start(snapshot, options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  {
    FaultGuard guard(17);
    FaultRule drop;
    FaultInjector::Global().SetRule("net.accept", drop);
    RemoteShardClient client("127.0.0.1", daemon.value()->port(), kIo);
    Result<net::WireHealthProbe> probe = client.Probe();
    // The daemon dropped the freshly accepted connection; the client's
    // RPC fails typed (reset/EOF) instead of wedging.
    ASSERT_FALSE(probe.ok());
    EXPECT_TRUE(probe.status().code() == StatusCode::kUnavailable ||
                probe.status().code() == StatusCode::kDeadlineExceeded)
        << probe.status().ToString();
  }

  RemoteShardClient client("127.0.0.1", daemon.value()->port(), kIo);
  Result<net::WireHealthProbe> probe = client.Probe();
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
}

#endif  // FAIRDRIFT_NO_FAULT_INJECTION

}  // namespace
}  // namespace fairdrift

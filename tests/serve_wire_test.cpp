// Wire codec, routing identity, transports, and spec-catalog rebuild
// equivalence (DESIGN.md §17, ISSUE 10).
//
// The distributed tier's correctness rests on four codec-level facts
// pinned here:
//   * every message body round-trips bit-exactly (re-encoding a decode
//     reproduces the original bytes — the encoding is canonical);
//   * truncated frames throw WireError instead of reading past the end;
//   * routing_key() covers the semantic fields and *excludes* the QoS
//     fields, so a deadline change never migrates a key off its warm
//     shard — and the router's key from the encoded body equals the key
//     from the request;
//   * the router's spec rebuild and the shard's spec rebuild agree on
//     make_cache_key bit for bit — the property that lets a shard's
//     result cache serve a key the router hashed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/request.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {
namespace {

WireRequest sample_request() {
  WireRequest req;
  req.kind = RequestKind::kTune;
  req.spec = "editdist:6x5";
  req.machine_cols = 6;
  req.machine_rows = 2;
  req.cycle_ps = 250.0;
  req.pe_capacity_values = 4096;
  req.link_bits_per_cycle = 128.0;
  req.local_access_pitch_fraction = 0.5;
  req.fom = fm::FigureOfMerit::kTime;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::dram()};
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = 6, .rows = 1};
  req.check_storage = false;
  req.check_bandwidth = true;
  req.max_messages = 16;
  req.time_coeffs = {-2, -1, 0, 1, 2};
  req.space_coeffs = {0, 1};
  req.search_y = false;
  req.quick_sample = 32;
  req.makespan_slack = 3.5;
  req.top_k = 3;
  req.deadline_ns = 5'000'000;
  req.tune_workers = 4;
  return req;
}

std::vector<std::uint8_t> encoded(const WireRequest& req) {
  Writer w;
  encode(w, req);
  return w.take();
}

WireResponse sample_response() {
  WireResponse resp;
  resp.status = static_cast<std::uint8_t>(Status::kOk);
  resp.kind = static_cast<std::uint8_t>(RequestKind::kTune);
  resp.makespan_cycles = 42;
  resp.makespan_ps = 8400.0;
  resp.compute_fj = 1.5;
  resp.onchip_fj = 2.5;
  resp.dram_fj = 3.5;
  resp.messages = 7;
  resp.bit_hops = 224;
  resp.total_ops = 30.0;
  resp.found = true;
  resp.best_map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = 6};
  resp.best_makespan_cycles = 42;
  resp.best_merit = 1.25e6;
  resp.enumerated = 1000;
  resp.legal = 12;
  resp.workers_used = 4;
  resp.lint.push_back(WireDiagnostic{"MAP001", 1, "H", 3, 7, "msg", "hint"});
  resp.exec_checked = true;
  resp.latency_ns = 123456;
  resp.shard = 2;
  resp.stolen = true;
  return resp;
}

TEST(WireCodec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.b(true);
  w.f64(-1.5e-300);
  w.str("hello, \0 wire");  // embedded NUL is cut by the literal; fine
  w.vec_i64({-3, 0, 1LL << 40});
  w.bytes({1, 2, 3});

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_EQ(r.str(), "hello, ");
  EXPECT_EQ(r.vec_i64(), (std::vector<std::int64_t>{-3, 0, 1LL << 40}));
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(WireCodec, RequestEncodingIsCanonical) {
  const WireRequest req = sample_request();
  const std::vector<std::uint8_t> bytes = encoded(req);

  Reader r(bytes);
  const WireRequest back = decode_request(r);
  EXPECT_NO_THROW(r.expect_end());

  // Spot-check the fields a byte comparison cannot localize...
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.spec, req.spec);
  EXPECT_EQ(back.machine_cols, req.machine_cols);
  EXPECT_EQ(back.cycle_ps, req.cycle_ps);
  EXPECT_EQ(back.inputs.size(), 2u);
  EXPECT_EQ(back.inputs[0].kind, InputPlacement::Kind::kPe);
  EXPECT_EQ(back.inputs[1].kind, InputPlacement::Kind::kDram);
  EXPECT_EQ(back.map.cols, 6);
  EXPECT_EQ(back.time_coeffs, req.time_coeffs);
  EXPECT_EQ(back.deadline_ns, req.deadline_ns);
  EXPECT_EQ(back.tune_workers, req.tune_workers);
  // ...then pin canonicality: re-encoding the decode is bit-identical.
  EXPECT_EQ(encoded(back), bytes);
}

TEST(WireCodec, ResponseEncodingIsCanonical) {
  const WireResponse resp = sample_response();
  Writer w;
  encode(w, resp);
  const std::vector<std::uint8_t> bytes = w.data();

  Reader r(bytes);
  const WireResponse back = decode_response(r);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.makespan_cycles, resp.makespan_cycles);
  EXPECT_EQ(back.best_merit, resp.best_merit);
  ASSERT_EQ(back.lint.size(), 1u);
  EXPECT_EQ(back.lint[0].rule_id, "MAP001");
  EXPECT_EQ(back.lint[0].pe, 3);

  Writer w2;
  encode(w2, back);
  EXPECT_EQ(w2.data(), bytes);
}

TEST(WireCodec, MetricsEncodingIsCanonical) {
  WireMetrics m;
  m.submitted = 100;
  m.completed = 98;
  m.errors = 2;
  m.cache_hits = 40;
  m.compile_misses = 3;
  m.latency_buckets.assign(LatencyHistogram::kNumBuckets, 0);
  m.latency_buckets[10] = 55;
  m.latency_buckets[20] = 7;

  Writer w;
  encode(w, m);
  Reader r(w.data());
  const WireMetrics back = decode_metrics(r);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(back.completed, 98u);
  EXPECT_EQ(back.latency_buckets, m.latency_buckets);

  Writer w2;
  encode(w2, back);
  EXPECT_EQ(w2.data(), w.data());
}

TEST(WireCodec, TruncatedDecodeThrows) {
  const std::vector<std::uint8_t> bytes = encoded(sample_request());
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    Reader r(bytes.data(), len);
    EXPECT_THROW((void)decode_request(r), WireError) << "len=" << len;
  }
}

TEST(WireCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = encoded(sample_request());
  bytes.push_back(0x00);
  Reader r(bytes);
  (void)decode_request(r);
  EXPECT_THROW(r.expect_end(), WireError);
}

TEST(RoutingKey, ExcludesQoSFields) {
  const WireRequest base = sample_request();
  const CacheKey key = routing_key(base);

  WireRequest patient = base;
  patient.deadline_ns = 0;
  patient.tune_workers = 0;
  EXPECT_EQ(routing_key(patient), key)
      << "deadline/workers are QoS, not identity";

  WireRequest hurried = base;
  hurried.deadline_ns = 1;
  hurried.tune_workers = 16;
  EXPECT_EQ(routing_key(hurried), key);
}

TEST(RoutingKey, CoversSemanticFields) {
  const WireRequest base = sample_request();
  const CacheKey key = routing_key(base);

  WireRequest other_spec = base;
  other_spec.spec = "editdist:6x6";
  EXPECT_NE(routing_key(other_spec), key);

  WireRequest other_map = base;
  other_map.map.tj = 2;
  EXPECT_NE(routing_key(other_map), key);

  WireRequest other_machine = base;
  other_machine.machine_cols = 7;
  EXPECT_NE(routing_key(other_machine), key);

  WireRequest other_kind = base;
  other_kind.kind = RequestKind::kCostEval;
  EXPECT_NE(routing_key(other_kind), key);
}

TEST(RoutingKey, EncodedBodyAgreesWithRequestForEveryKindAndFamily) {
  for (const char* spec : {"editdist:6x5", "stencil:16,4", "conv:24,3",
                           "matmul:4", "irregular:12,3,7"}) {
    for (const RequestKind kind :
         {RequestKind::kCostEval, RequestKind::kLegality, RequestKind::kTune,
          RequestKind::kPipelineTune}) {
      WireRequest req = sample_request();  // nonzero deadline and workers
      req.spec = spec;
      req.kind = kind;
      std::vector<std::uint8_t> body = encoded(req);
      EXPECT_EQ(routing_key(body), routing_key(req)) << spec;

      // Zeroing the QoS tail in place is the canonical encoding: the
      // bytes a shard's snapshot log keeps.
      WireRequest patient = req;
      patient.deadline_ns = 0;
      patient.tune_workers = 0;
      std::fill(body.end() - kRequestQosBytes, body.end(), 0);
      EXPECT_EQ(body, encoded(patient)) << spec;
      EXPECT_EQ(routing_key(body), routing_key(req)) << spec;
    }
  }
}

TEST(RoutingKey, BodyShorterThanQoSTailThrows) {
  for (std::size_t len = 0; len < kRequestQosBytes; ++len) {
    const std::vector<std::uint8_t> body(len, 0xff);
    EXPECT_THROW((void)routing_key(body), WireError) << "len=" << len;
  }
  const std::vector<std::uint8_t> tail_only(kRequestQosBytes, 0xff);
  EXPECT_EQ(routing_key(tail_only),
            routing_key(std::vector<std::uint8_t>(kRequestQosBytes, 0)));
}

TEST(SemanticBytes, IgnoresDeliveryMetadataOnly) {
  const WireResponse a = sample_response();
  WireResponse b = a;
  // Delivery metadata: everything about *how* the answer arrived.
  b.cache_hit = !a.cache_hit;
  b.latency_ns = a.latency_ns + 999;
  b.workers_used = a.workers_used + 3;
  b.shard = a.shard + 1;
  b.stolen = !a.stolen;
  b.coalesced = !a.coalesced;
  EXPECT_EQ(semantic_bytes(a), semantic_bytes(b));

  WireResponse c = a;
  c.makespan_cycles += 1;
  EXPECT_NE(semantic_bytes(a), semantic_bytes(c));
}

TEST(Snapshot, RoundTripsAndChecksVersion) {
  CacheSnapshot snap;
  snap.entries.push_back(SnapshotEntry{{1, 2, 3}, {4, 5}});
  snap.entries.push_back(SnapshotEntry{{9}, {}});
  const std::vector<std::uint8_t> bytes = encode(snap);
  const CacheSnapshot back = decode_snapshot(bytes);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].request, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(back.entries[0].response, (std::vector<std::uint8_t>{4, 5}));
  EXPECT_EQ(back.entries[1].response, std::vector<std::uint8_t>{});

  std::vector<std::uint8_t> skewed = bytes;
  skewed[0] = 0xfe;  // version byte
  EXPECT_THROW((void)decode_snapshot(skewed), WireError);
}

// ---------------------------------------------------------------------
// Transports: the same Frame crosses both, byte-for-byte.
// ---------------------------------------------------------------------

void exercise_channel(const ChannelPair& pair) {
  Frame big;
  big.type = MsgType::kSubmit;
  big.id = 0x1122334455667788ULL;
  big.body.resize(100'000);
  for (std::size_t i = 0; i < big.body.size(); ++i) {
    big.body[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(pair.left->send(big));
  ASSERT_TRUE(pair.left->send(Frame{MsgType::kMetricsGet, 2, {}}));

  Frame got;
  ASSERT_TRUE(pair.right->recv(got));
  EXPECT_EQ(got.type, MsgType::kSubmit);
  EXPECT_EQ(got.id, big.id);
  EXPECT_EQ(got.body, big.body);
  ASSERT_TRUE(pair.right->recv(got));
  EXPECT_EQ(got.type, MsgType::kMetricsGet);
  EXPECT_TRUE(got.body.empty());

  // Reverse direction.
  ASSERT_TRUE(pair.right->send(Frame{MsgType::kReply, 3, {0xaa}}));
  ASSERT_TRUE(pair.left->recv(got));
  EXPECT_EQ(got.type, MsgType::kReply);
  EXPECT_EQ(got.body, std::vector<std::uint8_t>{0xaa});

  // Close: frames sent before the close still drain, then recv reports
  // EOF — the property the worker relies on to finish in-flight work.
  ASSERT_TRUE(pair.left->send(Frame{MsgType::kShutdown, 4, {}}));
  pair.left->close();
  ASSERT_TRUE(pair.right->recv(got));
  EXPECT_EQ(got.type, MsgType::kShutdown);
  EXPECT_FALSE(pair.right->recv(got));
  EXPECT_FALSE(pair.right->send(Frame{MsgType::kReply, 5, {}}));
}

TEST(Transport, LoopbackDeliversFramesAndDrainsOnClose) {
  exercise_channel(make_loopback_pair());
}

TEST(Transport, SocketpairDeliversFramesAndDrainsOnClose) {
  exercise_channel(make_socket_pair());
}

TEST(Transport, SocketpairCrossesThreads) {
  const ChannelPair pair = make_socket_pair();
  constexpr int kFrames = 200;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      Frame f{MsgType::kSubmit, static_cast<std::uint64_t>(i), {}};
      f.body.assign(static_cast<std::size_t>(i % 17) * 100, 0x5c);
      ASSERT_TRUE(pair.left->send(f));
    }
    pair.left->close();
  });
  Frame got;
  int received = 0;
  while (pair.right->recv(got)) {
    EXPECT_EQ(got.id, static_cast<std::uint64_t>(received));
    EXPECT_EQ(got.body.size(), static_cast<std::size_t>(received % 17) * 100);
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kFrames);
}

// ---------------------------------------------------------------------
// Spec catalog: both ends rebuild the same Request.
// ---------------------------------------------------------------------

TEST(SpecCatalog, RebuildAgreesOnCacheKeyAcrossTheWire) {
  WireRequest wire = sample_request();
  wire.kind = RequestKind::kCostEval;

  // Router side: rebuild from the in-memory WireRequest.
  SpecCatalog router_catalog;
  const Request router_view = to_request(wire, router_catalog);

  // Shard side: rebuild from the *decoded* frame, in a fresh catalog.
  const std::vector<std::uint8_t> bytes = encoded(wire);
  Reader r(bytes);
  const WireRequest off_the_wire = decode_request(r);
  SpecCatalog shard_catalog;
  const Request shard_view = to_request(off_the_wire, shard_catalog);

  EXPECT_EQ(make_cache_key(router_view), make_cache_key(shard_view));
  EXPECT_EQ(make_compile_key(router_view), make_compile_key(shard_view));
}

TEST(SpecCatalog, AllFamiliesBuildAndMemoize) {
  SpecCatalog catalog;
  for (const char* name : {"editdist:4x5", "stencil:16,4", "conv:24,3",
                           "matmul:4", "irregular:12,3,7"}) {
    const auto first = catalog.spec(name);
    ASSERT_NE(first, nullptr) << name;
    // Memoized: the second probe is the same object, not a rebuild.
    EXPECT_EQ(catalog.spec(name), first) << name;
  }
}

TEST(SpecCatalog, RejectsUnknownAndMalformedNames) {
  SpecCatalog catalog;
  EXPECT_THROW((void)catalog.spec("bogus:3"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist:4"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist:4x-2"), WireError);
  EXPECT_THROW((void)catalog.spec("matmul:abc"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist:99999999999999999999x2"),
               WireError);
  EXPECT_THROW((void)catalog.spec("irregular:12,3"), WireError);
}

TEST(SpecCatalog, ToRequestAppliesMachineOverrides) {
  SpecCatalog catalog;
  const WireRequest wire = sample_request();
  const Request req = to_request(wire, catalog);
  EXPECT_EQ(req.machine.geom.cols(), 6);
  EXPECT_EQ(req.machine.geom.rows(), 2);
  EXPECT_EQ(req.machine.cycle.picoseconds(), 250.0);
  EXPECT_EQ(req.machine.pe_capacity_values, 4096);
  EXPECT_EQ(req.machine.link_bits_per_cycle, 128.0);
  EXPECT_EQ(req.fom, fm::FigureOfMerit::kTime);
  EXPECT_EQ(req.search.space.time_coeffs, wire.time_coeffs);
  EXPECT_FALSE(req.search.space.search_y);
  EXPECT_EQ(req.deadline.count(), wire.deadline_ns);
}

}  // namespace
}  // namespace harmony::serve

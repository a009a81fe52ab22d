// Wire protocol for the distributed serve tier (DESIGN.md §17).
//
// A router process and its worker shards speak length-prefixed binary
// frames over a local byte stream (an AF_UNIX socketpair, or an
// in-process loopback queue carrying the *same serialized bytes* so
// every test exercises the full codec path without fork).  The codec is
// deliberately process-boundary-honest: nothing that crosses it holds a
// pointer, a closure, or an iteration-order dependence.  That rules out
// shipping serve::Request itself — its FunctionSpec carries a black-box
// dependence std::function — so wire requests name a spec *family* from
// serve::SpecCatalog (the same grammar harmony-lint speaks:
// "editdist:24x24", "stencil:64,8", "conv:96,8", "matmul:12",
// "irregular:24,3,7") plus every scalar the oracles consume.  Both ends
// rebuild identical Request objects, and make_cache_key() on the two
// rebuilds agrees bit for bit (pinned by tests/serve_wire_test.cpp).
//
// Frame layout (little-endian):
//
//   [u32 length][u8 MsgType][u64 correlation id][body ...]
//                ^---------- length covers this ---------^
//
// The correlation id is chosen by the sender of a kSubmit and echoed on
// the kReply; it is also the trace id stitching the router's "route"
// span to the shard's "shard" span in one timeline.
//
// Integers are fixed-width little-endian; doubles cross as IEEE-754 bit
// patterns; strings and vectors are u32-length-prefixed.  Every decode
// is bounds-checked — a truncated or oversized frame throws WireError,
// never reads past the buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace harmony::serve {

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Frames a body may not exceed (1 GiB) — a corrupt length prefix must
/// fail fast instead of driving a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

enum class MsgType : std::uint8_t {
  kSubmit = 1,    ///< router -> shard: WireRequest body
  kReply = 2,     ///< shard -> router: WireResponse body
  kMetricsGet = 3,///< router -> shard: empty body
  kMetrics = 4,   ///< shard -> router: WireMetrics body
  kSnapshotGet = 5,  ///< router -> shard: empty body
  kSnapshot = 6,     ///< shard -> router: CacheSnapshot bytes
  kRestore = 7,      ///< router -> shard: CacheSnapshot bytes
  kRestored = 8,     ///< shard -> router: u64 entries restored
  kShutdown = 9,     ///< router -> shard: empty body; shard exits serve()
};

struct Frame {
  MsgType type = MsgType::kSubmit;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> body;
};

// ---------------------------------------------------------------------
// Primitive codec.
// ---------------------------------------------------------------------

/// Append-only little-endian encoder over a byte vector.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s);
  void vec_i64(const std::vector<std::int64_t>& v);
  void bytes(const std::vector<std::uint8_t>& v);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }

 private:
  // Grows the capacity itself (doubling) and copies with memcpy: GCC 12
  // misreads the reallocating range insert of a short vector as an
  // out-of-bounds copy (-Warray-bounds at -O2, -Wstringop-overflow at
  // -O3).
  void append(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = out_.size();
    if (out_.capacity() - at < n) out_.reserve(std::max(2 * at, at + n));
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian decoder; throws WireError past the end.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& v)
      : Reader(v.data(), v.size()) {}

  [[nodiscard]] std::uint8_t u8() { return *take(1); }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::int64_t> vec_i64();
  [[nodiscard]] std::vector<std::uint8_t> bytes();

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Throws unless the whole buffer was consumed — trailing garbage in
  /// a frame means a codec version skew, not padding.
  void expect_end() const;

 private:
  const std::uint8_t* take(std::size_t n);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------

/// Process-boundary-safe request: a catalog spec name plus every scalar
/// knob the oracles read.  Supports kCostEval / kLegality / kTune with
/// the exhaustive searcher; the stochastic and pipeline tiers stay
/// in-process (their option structs carry service-owned callables).
struct WireRequest {
  RequestKind kind = RequestKind::kCostEval;
  std::string spec;  ///< SpecCatalog name, e.g. "editdist:24x24"
  // Machine (reconstructed via make_machine(cols, rows) + overrides).
  std::int64_t machine_cols = 1;
  std::int64_t machine_rows = 1;
  double cycle_ps = 200.0;
  std::int64_t pe_capacity_values = 1 << 20;
  double link_bits_per_cycle = 256.0;
  double local_access_pitch_fraction = 0.25;
  fm::FigureOfMerit fom = fm::FigureOfMerit::kEnergyDelay;
  std::vector<InputPlacement> inputs;
  fm::AffineMap map;  ///< kCostEval / kLegality
  // Verify options (kLegality, and the tune's legality gate).
  bool check_storage = true;
  bool check_bandwidth = true;
  std::uint64_t max_messages = 8;
  // Exhaustive-search knobs (kTune).  Empty coefficient pools mean "use
  // the SearchSpace defaults" — mirroring fm::SearchSpace's initializers.
  std::vector<std::int64_t> time_coeffs;
  std::vector<std::int64_t> space_coeffs;
  bool search_y = true;
  std::uint64_t quick_sample = 64;
  double makespan_slack = 4.0;
  std::uint64_t top_k = 5;
  // Routing-excluded fields: per-request QoS, not semantics.  Zeroed by
  // routing_key() so a deadline change cannot migrate a key away from
  // its warm shard.  encode() writes them last, as the final
  // kRequestQosBytes of the body.
  std::int64_t deadline_ns = 0;
  std::uint32_t tune_workers = 0;
};

/// Size of the QoS tail (deadline_ns, tune_workers) that ends every
/// encoded WireRequest.  Zeroing it yields the request's canonical
/// semantic bytes without a decode.
inline constexpr std::size_t kRequestQosBytes = 12;

void encode(Writer& w, const WireRequest& req);
[[nodiscard]] WireRequest decode_request(Reader& r);

/// Diagnostic flattened for the wire (analyze::Diagnostic holds strings
/// and plain ints only, so this is a faithful round-trip).
struct WireDiagnostic {
  std::string rule_id;
  std::uint8_t severity = 0;
  std::string op;
  std::int64_t pe = -1;
  std::int64_t cycle = 0;
  std::string message;
  std::string hint;
};

[[nodiscard]] WireDiagnostic to_wire(const analyze::Diagnostic& d);
[[nodiscard]] analyze::Diagnostic from_wire(const WireDiagnostic& d);

/// Response payload: the Response fields a wire client can consume
/// (everything except the in-process-only strategy/pipeline tiers),
/// plus the router-stamped delivery metadata.
struct WireResponse {
  std::uint8_t status = 0;
  std::uint8_t kind = 0;
  bool cache_hit = false;
  bool deadline_cut = false;
  // CostReport.
  std::int64_t makespan_cycles = 0;
  double makespan_ps = 0;
  double compute_fj = 0, onchip_fj = 0, local_fj = 0, dram_fj = 0;
  std::uint64_t messages = 0, bit_hops = 0;
  double total_ops = 0;
  // LegalityReport.
  bool legal_ok = true;
  std::uint64_t causality = 0, exclusivity = 0, storage = 0, bandwidth = 0;
  std::int64_t peak_live_values = 0, peak_live_pe = -1;
  double peak_link_bits_per_cycle = 0;
  std::int64_t peak_link = -1;
  std::vector<WireDiagnostic> legality_diags;
  // SearchResult (exhaustive tune).
  bool found = false;
  fm::AffineMap best_map;
  std::int64_t best_makespan_cycles = 0;
  double best_merit = 0;
  std::uint64_t best_slot = 0;
  std::uint64_t enumerated = 0, quick_rejected = 0, verify_rejected = 0,
                legal = 0;
  bool exhausted = true;
  std::uint64_t next_offset = 0;
  std::uint32_t workers_used = 1;
  std::vector<WireDiagnostic> lint;
  bool exec_checked = false;
  std::vector<WireDiagnostic> exec;
  std::string error;
  std::int64_t latency_ns = 0;
  std::int64_t retry_after_ns = 0;
  // Delivery metadata, stamped by the router after the reply arrives.
  std::uint32_t shard = 0;
  bool stolen = false;     ///< answered off the affinity shard
  bool coalesced = false;  ///< attached to another request's flight
};

void encode(Writer& w, const WireResponse& resp);
[[nodiscard]] WireResponse decode_response(Reader& r);

/// Builds the wire reply for a locally computed Response.  The
/// strategy/pipeline tiers do not cross; a shard never produces them.
[[nodiscard]] WireResponse to_wire(const Response& resp);
/// Client-side view of a reply as a serve::Response (search.best is
/// reconstructed with the best candidate's map and cost).
[[nodiscard]] Response from_wire(const WireResponse& resp);

/// Shard metrics crossing the wire: the counter subset of
/// MetricsSnapshot plus the raw latency-bucket counts, so the router
/// can merge per-shard histograms into fleet percentiles
/// (LatencyHistogram::merge) instead of averaging percentiles — which
/// would be wrong for any non-uniform split.
struct WireMetrics {
  std::uint64_t submitted = 0, completed = 0, rejected = 0, errors = 0;
  std::uint64_t deadline_cut = 0, tunes = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_entries = 0;
  std::uint64_t compile_hits = 0, compile_misses = 0;
  std::uint64_t exec_checks = 0, exec_failures = 0;
  std::vector<std::uint64_t> latency_buckets;  ///< kNumBuckets counts
};

void encode(Writer& w, const WireMetrics& m);
[[nodiscard]] WireMetrics decode_metrics(Reader& r);
[[nodiscard]] WireMetrics to_wire(const MetricsSnapshot& snap,
                                  const std::vector<std::uint64_t>& buckets);

// ---------------------------------------------------------------------
// Keys and identity.
// ---------------------------------------------------------------------

/// 128-bit routing key over the request's *semantic* fields: the
/// QoS-only fields (deadline_ns, tune_workers) are zeroed first, so the
/// same query always rides to the same shard regardless of patience.
/// Distinct from make_cache_key (which needs the full spec); routing
/// only needs stability and spread, both of which hashing the canonical
/// encoding provides.
[[nodiscard]] CacheKey routing_key(const WireRequest& req);

/// routing_key of an already encoded request (encode()'s output or a
/// kSubmit body), without decoding it: the QoS tail hashes as zeros, so
/// routing_key(encode(req)) == routing_key(req).  Throws WireError when
/// the body is shorter than the tail.
[[nodiscard]] CacheKey routing_key(const std::vector<std::uint8_t>& encoded);

/// The response's semantic payload serialized with delivery metadata
/// (latency, cache_hit, shard, stolen, coalesced) zeroed — two replies
/// to one query compare byte-identical iff the oracles agreed, which is
/// the acceptance check for work-stealing correctness.
[[nodiscard]] std::vector<std::uint8_t> semantic_bytes(
    const WireResponse& resp);

// ---------------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------------

/// A bidirectional frame stream.  send() is safe to call from multiple
/// threads (internally serialized); recv() expects a single consumer.
/// Both return false once the peer closed.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual bool send(const Frame& frame) = 0;
  virtual bool recv(Frame& frame) = 0;
  virtual void close() = 0;
};

struct ChannelPair {
  std::shared_ptr<Channel> left;
  std::shared_ptr<Channel> right;
};

/// In-process transport: two cross-linked bounded queues moving
/// serialized Frame objects.  Same codec, no fd — every test can run
/// the full router/worker stack without fork and under TSan.
[[nodiscard]] ChannelPair make_loopback_pair();

/// AF_UNIX socketpair transport: frames cross a real kernel byte
/// stream, partial reads/writes and EINTR handled.  Either endpoint may
/// be handed to a forked child via channel_from_fd().
[[nodiscard]] ChannelPair make_socket_pair();

/// Wraps an existing stream fd (e.g. the surviving end of a socketpair
/// after fork) in a Channel.  Takes ownership; closes on destruction.
[[nodiscard]] std::shared_ptr<Channel> channel_from_fd(int fd);

}  // namespace harmony::serve

#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <deque>
#include <mutex>

namespace harmony::serve {

// ---------------------------------------------------------------------
// Primitive codec.
// ---------------------------------------------------------------------

void Writer::str(const std::string& s) {
  if (s.size() > kMaxFrameBytes) throw WireError("Writer::str: oversized");
  u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void Writer::vec_i64(const std::vector<std::int64_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const std::int64_t x : v) i64(x);
}

void Writer::bytes(const std::vector<std::uint8_t>& v) {
  if (v.size() > kMaxFrameBytes) throw WireError("Writer::bytes: oversized");
  u32(static_cast<std::uint32_t>(v.size()));
  append(v.data(), v.size());
}

const std::uint8_t* Reader::take(std::size_t n) {
  if (n > size_ - pos_) {
    throw WireError("Reader: truncated frame (wanted " + std::to_string(n) +
                    " bytes, " + std::to_string(size_ - pos_) + " left)");
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<std::int64_t> Reader::vec_i64() {
  const std::uint32_t n = u32();
  if (static_cast<std::size_t>(n) * 8 > remaining()) {
    throw WireError("Reader::vec_i64: length prefix exceeds frame");
  }
  std::vector<std::int64_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i64();
  return v;
}

std::vector<std::uint8_t> Reader::bytes() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = take(n);
  return std::vector<std::uint8_t>(p, p + n);
}

void Reader::expect_end() const {
  if (pos_ != size_) {
    throw WireError("Reader: " + std::to_string(size_ - pos_) +
                    " trailing bytes (codec version skew?)");
  }
}

// ---------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------

namespace {

void encode_map(Writer& w, const fm::AffineMap& m) {
  w.i64(m.ti), w.i64(m.tj), w.i64(m.tk), w.i64(m.t0);
  w.i64(m.xi), w.i64(m.xj), w.i64(m.xk), w.i64(m.x0);
  w.i64(m.yi), w.i64(m.yj), w.i64(m.yk), w.i64(m.y0);
  w.i64(m.cols), w.i64(m.rows);
}

fm::AffineMap decode_map(Reader& r) {
  fm::AffineMap m;
  m.ti = r.i64(), m.tj = r.i64(), m.tk = r.i64(), m.t0 = r.i64();
  m.xi = r.i64(), m.xj = r.i64(), m.xk = r.i64(), m.x0 = r.i64();
  m.yi = r.i64(), m.yj = r.i64(), m.yk = r.i64(), m.y0 = r.i64();
  m.cols = static_cast<int>(r.i64());
  m.rows = static_cast<int>(r.i64());
  return m;
}

void encode_diag(Writer& w, const WireDiagnostic& d) {
  w.str(d.rule_id);
  w.u8(d.severity);
  w.str(d.op);
  w.i64(d.pe);
  w.i64(d.cycle);
  w.str(d.message);
  w.str(d.hint);
}

WireDiagnostic decode_diag(Reader& r) {
  WireDiagnostic d;
  d.rule_id = r.str();
  d.severity = r.u8();
  d.op = r.str();
  d.pe = r.i64();
  d.cycle = r.i64();
  d.message = r.str();
  d.hint = r.str();
  return d;
}

void encode_diags(Writer& w, const std::vector<WireDiagnostic>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const WireDiagnostic& d : v) encode_diag(w, d);
}

std::vector<WireDiagnostic> decode_diags(Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<WireDiagnostic> v;
  v.reserve(std::min<std::size_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(decode_diag(r));
  return v;
}

std::vector<WireDiagnostic> to_wire_diags(
    const std::vector<analyze::Diagnostic>& diags) {
  std::vector<WireDiagnostic> v;
  v.reserve(diags.size());
  for (const analyze::Diagnostic& d : diags) v.push_back(to_wire(d));
  return v;
}

std::vector<analyze::Diagnostic> from_wire_diags(
    const std::vector<WireDiagnostic>& diags) {
  std::vector<analyze::Diagnostic> v;
  v.reserve(diags.size());
  for (const WireDiagnostic& d : diags) v.push_back(from_wire(d));
  return v;
}

}  // namespace

WireDiagnostic to_wire(const analyze::Diagnostic& d) {
  WireDiagnostic w;
  w.rule_id = d.rule_id;
  w.severity = static_cast<std::uint8_t>(d.severity);
  w.op = d.location.op;
  w.pe = d.location.pe;
  w.cycle = d.location.cycle;
  w.message = d.message;
  w.hint = d.hint;
  return w;
}

analyze::Diagnostic from_wire(const WireDiagnostic& d) {
  if (d.severity > 2) throw WireError("WireDiagnostic: bad severity");
  analyze::Diagnostic out;
  out.rule_id = d.rule_id;
  out.severity = static_cast<analyze::Severity>(d.severity);
  out.location.op = d.op;
  out.location.pe = static_cast<std::int32_t>(d.pe);
  out.location.cycle = d.cycle;
  out.message = d.message;
  out.hint = d.hint;
  return out;
}

void encode(Writer& w, const WireRequest& req) {
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.str(req.spec);
  w.i64(req.machine_cols);
  w.i64(req.machine_rows);
  w.f64(req.cycle_ps);
  w.i64(req.pe_capacity_values);
  w.f64(req.link_bits_per_cycle);
  w.f64(req.local_access_pitch_fraction);
  w.u8(static_cast<std::uint8_t>(req.fom));
  w.u32(static_cast<std::uint32_t>(req.inputs.size()));
  for (const InputPlacement& p : req.inputs) {
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.i64(p.pe.x);
    w.i64(p.pe.y);
  }
  encode_map(w, req.map);
  w.b(req.check_storage);
  w.b(req.check_bandwidth);
  w.u64(req.max_messages);
  w.vec_i64(req.time_coeffs);
  w.vec_i64(req.space_coeffs);
  w.b(req.search_y);
  w.u64(req.quick_sample);
  w.f64(req.makespan_slack);
  w.u64(req.top_k);
  // The QoS tail: last, and exactly kRequestQosBytes long.
  w.i64(req.deadline_ns);
  w.u32(req.tune_workers);
}

WireRequest decode_request(Reader& r) {
  WireRequest req;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RequestKind::kPipelineTune)) {
    throw WireError("WireRequest: bad kind");
  }
  req.kind = static_cast<RequestKind>(kind);
  req.spec = r.str();
  req.machine_cols = r.i64();
  req.machine_rows = r.i64();
  req.cycle_ps = r.f64();
  req.pe_capacity_values = r.i64();
  req.link_bits_per_cycle = r.f64();
  req.local_access_pitch_fraction = r.f64();
  const std::uint8_t fom = r.u8();
  if (fom > 2) throw WireError("WireRequest: bad figure of merit");
  req.fom = static_cast<fm::FigureOfMerit>(fom);
  const std::uint32_t num_inputs = r.u32();
  for (std::uint32_t i = 0; i < num_inputs; ++i) {
    const std::uint8_t pk = r.u8();
    if (pk > 1) throw WireError("WireRequest: bad input placement");
    InputPlacement p;
    p.kind = static_cast<InputPlacement::Kind>(pk);
    p.pe.x = static_cast<int>(r.i64());
    p.pe.y = static_cast<int>(r.i64());
    req.inputs.push_back(p);
  }
  req.map = decode_map(r);
  req.check_storage = r.b();
  req.check_bandwidth = r.b();
  req.max_messages = r.u64();
  req.time_coeffs = r.vec_i64();
  req.space_coeffs = r.vec_i64();
  req.search_y = r.b();
  req.quick_sample = r.u64();
  req.makespan_slack = r.f64();
  req.top_k = r.u64();
  req.deadline_ns = r.i64();
  req.tune_workers = r.u32();
  return req;
}

void encode(Writer& w, const WireResponse& resp) {
  w.u8(resp.status);
  w.u8(resp.kind);
  w.b(resp.cache_hit);
  w.b(resp.deadline_cut);
  w.i64(resp.makespan_cycles);
  w.f64(resp.makespan_ps);
  w.f64(resp.compute_fj);
  w.f64(resp.onchip_fj);
  w.f64(resp.local_fj);
  w.f64(resp.dram_fj);
  w.u64(resp.messages);
  w.u64(resp.bit_hops);
  w.f64(resp.total_ops);
  w.b(resp.legal_ok);
  w.u64(resp.causality);
  w.u64(resp.exclusivity);
  w.u64(resp.storage);
  w.u64(resp.bandwidth);
  w.i64(resp.peak_live_values);
  w.i64(resp.peak_live_pe);
  w.f64(resp.peak_link_bits_per_cycle);
  w.i64(resp.peak_link);
  encode_diags(w, resp.legality_diags);
  w.b(resp.found);
  encode_map(w, resp.best_map);
  w.i64(resp.best_makespan_cycles);
  w.f64(resp.best_merit);
  w.u64(resp.best_slot);
  w.u64(resp.enumerated);
  w.u64(resp.quick_rejected);
  w.u64(resp.verify_rejected);
  w.u64(resp.legal);
  w.b(resp.exhausted);
  w.u64(resp.next_offset);
  w.u32(resp.workers_used);
  encode_diags(w, resp.lint);
  w.b(resp.exec_checked);
  encode_diags(w, resp.exec);
  w.str(resp.error);
  w.i64(resp.latency_ns);
  w.i64(resp.retry_after_ns);
  w.u32(resp.shard);
  w.b(resp.stolen);
  w.b(resp.coalesced);
}

WireResponse decode_response(Reader& r) {
  WireResponse resp;
  resp.status = r.u8();
  resp.kind = r.u8();
  resp.cache_hit = r.b();
  resp.deadline_cut = r.b();
  resp.makespan_cycles = r.i64();
  resp.makespan_ps = r.f64();
  resp.compute_fj = r.f64();
  resp.onchip_fj = r.f64();
  resp.local_fj = r.f64();
  resp.dram_fj = r.f64();
  resp.messages = r.u64();
  resp.bit_hops = r.u64();
  resp.total_ops = r.f64();
  resp.legal_ok = r.b();
  resp.causality = r.u64();
  resp.exclusivity = r.u64();
  resp.storage = r.u64();
  resp.bandwidth = r.u64();
  resp.peak_live_values = r.i64();
  resp.peak_live_pe = r.i64();
  resp.peak_link_bits_per_cycle = r.f64();
  resp.peak_link = r.i64();
  resp.legality_diags = decode_diags(r);
  resp.found = r.b();
  resp.best_map = decode_map(r);
  resp.best_makespan_cycles = r.i64();
  resp.best_merit = r.f64();
  resp.best_slot = r.u64();
  resp.enumerated = r.u64();
  resp.quick_rejected = r.u64();
  resp.verify_rejected = r.u64();
  resp.legal = r.u64();
  resp.exhausted = r.b();
  resp.next_offset = r.u64();
  resp.workers_used = r.u32();
  resp.lint = decode_diags(r);
  resp.exec_checked = r.b();
  resp.exec = decode_diags(r);
  resp.error = r.str();
  resp.latency_ns = r.i64();
  resp.retry_after_ns = r.i64();
  resp.shard = r.u32();
  resp.stolen = r.b();
  resp.coalesced = r.b();
  return resp;
}

WireResponse to_wire(const Response& resp) {
  WireResponse w;
  w.status = static_cast<std::uint8_t>(resp.status);
  w.kind = static_cast<std::uint8_t>(resp.kind);
  w.cache_hit = resp.cache_hit;
  w.deadline_cut = resp.deadline_cut;
  w.makespan_cycles = resp.cost.makespan_cycles;
  w.makespan_ps = resp.cost.makespan.picoseconds();
  w.compute_fj = resp.cost.compute_energy.femtojoules();
  w.onchip_fj = resp.cost.onchip_movement_energy.femtojoules();
  w.local_fj = resp.cost.local_access_energy.femtojoules();
  w.dram_fj = resp.cost.dram_energy.femtojoules();
  w.messages = resp.cost.messages;
  w.bit_hops = resp.cost.bit_hops;
  w.total_ops = resp.cost.total_ops;
  w.legal_ok = resp.legality.ok;
  w.causality = resp.legality.causality_violations;
  w.exclusivity = resp.legality.exclusivity_violations;
  w.storage = resp.legality.storage_violations;
  w.bandwidth = resp.legality.bandwidth_violations;
  w.peak_live_values = resp.legality.peak_live_values;
  w.peak_live_pe = resp.legality.peak_live_pe;
  w.peak_link_bits_per_cycle = resp.legality.peak_link_bits_per_cycle;
  w.peak_link = resp.legality.peak_link;
  w.legality_diags = to_wire_diags(resp.legality.diagnostics);
  w.found = resp.search.found;
  w.best_map = resp.search.best.map;
  w.best_makespan_cycles = resp.search.best.cost.makespan_cycles;
  w.best_merit = resp.search.best.merit;
  w.best_slot = resp.search.best.slot;
  w.enumerated = resp.search.enumerated;
  w.quick_rejected = resp.search.quick_rejected;
  w.verify_rejected = resp.search.verify_rejected;
  w.legal = resp.search.legal;
  w.exhausted = resp.search.exhausted;
  w.next_offset = resp.search.next_offset;
  w.workers_used = resp.search.workers_used;
  w.lint = to_wire_diags(resp.lint);
  w.exec_checked = resp.exec_checked;
  w.exec = to_wire_diags(resp.exec);
  w.error = resp.error;
  w.latency_ns = resp.latency.count();
  w.retry_after_ns = resp.retry_after.count();
  return w;
}

Response from_wire(const WireResponse& w) {
  if (w.status > 2) throw WireError("WireResponse: bad status");
  if (w.kind > static_cast<std::uint8_t>(RequestKind::kPipelineTune)) {
    throw WireError("WireResponse: bad kind");
  }
  Response resp;
  resp.status = static_cast<Status>(w.status);
  resp.kind = static_cast<RequestKind>(w.kind);
  resp.cache_hit = w.cache_hit;
  resp.deadline_cut = w.deadline_cut;
  resp.cost.makespan_cycles = w.makespan_cycles;
  resp.cost.makespan = Time::picoseconds(w.makespan_ps);
  resp.cost.compute_energy = Energy::femtojoules(w.compute_fj);
  resp.cost.onchip_movement_energy = Energy::femtojoules(w.onchip_fj);
  resp.cost.local_access_energy = Energy::femtojoules(w.local_fj);
  resp.cost.dram_energy = Energy::femtojoules(w.dram_fj);
  resp.cost.messages = w.messages;
  resp.cost.bit_hops = w.bit_hops;
  resp.cost.total_ops = w.total_ops;
  resp.legality.ok = w.legal_ok;
  resp.legality.causality_violations = w.causality;
  resp.legality.exclusivity_violations = w.exclusivity;
  resp.legality.storage_violations = w.storage;
  resp.legality.bandwidth_violations = w.bandwidth;
  resp.legality.peak_live_values = w.peak_live_values;
  resp.legality.peak_live_pe = static_cast<std::int32_t>(w.peak_live_pe);
  resp.legality.peak_link_bits_per_cycle = w.peak_link_bits_per_cycle;
  resp.legality.peak_link = w.peak_link;
  resp.legality.diagnostics = from_wire_diags(w.legality_diags);
  resp.search.found = w.found;
  resp.search.best.map = w.best_map;
  // The best candidate's cost is the response cost (Response::cost doc);
  // only top-1 crosses the wire — a client that wants the full top-k
  // frontier runs in-process.
  resp.search.best.cost = resp.cost;
  resp.search.best.cost.makespan_cycles = w.best_makespan_cycles;
  resp.search.best.merit = w.best_merit;
  resp.search.best.slot = w.best_slot;
  resp.search.enumerated = w.enumerated;
  resp.search.quick_rejected = w.quick_rejected;
  resp.search.verify_rejected = w.verify_rejected;
  resp.search.legal = w.legal;
  resp.search.exhausted = w.exhausted;
  resp.search.next_offset = w.next_offset;
  resp.search.workers_used = w.workers_used;
  resp.lint = from_wire_diags(w.lint);
  resp.exec_checked = w.exec_checked;
  resp.exec = from_wire_diags(w.exec);
  resp.error = w.error;
  resp.latency = std::chrono::nanoseconds(w.latency_ns);
  resp.retry_after = std::chrono::nanoseconds(w.retry_after_ns);
  return resp;
}

void encode(Writer& w, const WireMetrics& m) {
  w.u64(m.submitted);
  w.u64(m.completed);
  w.u64(m.rejected);
  w.u64(m.errors);
  w.u64(m.deadline_cut);
  w.u64(m.tunes);
  w.u64(m.cache_hits);
  w.u64(m.cache_misses);
  w.u64(m.cache_entries);
  w.u64(m.compile_hits);
  w.u64(m.compile_misses);
  w.u64(m.exec_checks);
  w.u64(m.exec_failures);
  w.u32(static_cast<std::uint32_t>(m.latency_buckets.size()));
  for (const std::uint64_t c : m.latency_buckets) w.u64(c);
}

WireMetrics decode_metrics(Reader& r) {
  WireMetrics m;
  m.submitted = r.u64();
  m.completed = r.u64();
  m.rejected = r.u64();
  m.errors = r.u64();
  m.deadline_cut = r.u64();
  m.tunes = r.u64();
  m.cache_hits = r.u64();
  m.cache_misses = r.u64();
  m.cache_entries = r.u64();
  m.compile_hits = r.u64();
  m.compile_misses = r.u64();
  m.exec_checks = r.u64();
  m.exec_failures = r.u64();
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(n) * 8 > r.remaining()) {
    throw WireError("WireMetrics: bucket count exceeds frame");
  }
  m.latency_buckets.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) m.latency_buckets[i] = r.u64();
  return m;
}

WireMetrics to_wire(const MetricsSnapshot& snap,
                    const std::vector<std::uint64_t>& buckets) {
  WireMetrics m;
  m.submitted = snap.submitted;
  m.completed = snap.completed;
  m.rejected = snap.rejected;
  m.errors = snap.errors;
  m.deadline_cut = snap.deadline_cut;
  m.tunes = snap.tunes;
  m.cache_hits = snap.cache.hits;
  m.cache_misses = snap.cache.misses;
  m.cache_entries = snap.cache.entries;
  m.compile_hits = snap.compile_hits;
  m.compile_misses = snap.compile_misses;
  m.exec_checks = snap.exec_checks;
  m.exec_failures = snap.exec_failures;
  m.latency_buckets = buckets;
  return m;
}

// ---------------------------------------------------------------------
// Keys and identity.
// ---------------------------------------------------------------------

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes `bytes` in 8-byte little-endian chunks (the last one
/// zero-padded), reading every byte from index `keep` on as zero.
std::uint64_t hash_bytes(const std::vector<std::uint8_t>& bytes,
                         std::size_t keep, std::uint64_t seed) {
  std::uint64_t h = mix64(seed ^ bytes.size());
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    if (i < keep) {
      std::memcpy(&chunk, bytes.data() + i,
                  std::min<std::size_t>(8, keep - i));
    }
    h = mix64(h ^ chunk);
  }
  return h;
}

}  // namespace

CacheKey routing_key(const WireRequest& req) {
  Writer w;
  encode(w, req);
  return routing_key(w.data());
}

CacheKey routing_key(const std::vector<std::uint8_t>& encoded) {
  if (encoded.size() < kRequestQosBytes) {
    throw WireError("routing_key: " + std::to_string(encoded.size()) +
                    "-byte body is shorter than the QoS tail");
  }
  // QoS, not semantics: a change of patience or lane budget must not
  // migrate the key off its warm shard, so the tail hashes as zeros.
  const std::size_t keep = encoded.size() - kRequestQosBytes;
  // Two independently seeded streams, the same construction as the
  // result-cache fingerprints: a 64-bit collision cannot alias a route
  // *and* a coalesce decision at once.
  return CacheKey{hash_bytes(encoded, keep, 0xd157e1b0a7e45e21ULL),
                  hash_bytes(encoded, keep, 0x5e9f00d5c0a1e5ceULL)};
}

std::vector<std::uint8_t> semantic_bytes(const WireResponse& resp) {
  WireResponse canon = resp;
  canon.cache_hit = false;
  canon.latency_ns = 0;
  canon.workers_used = 0;
  canon.shard = 0;
  canon.stolen = false;
  canon.coalesced = false;
  Writer w;
  encode(w, canon);
  return w.take();
}

// ---------------------------------------------------------------------
// Transport: loopback.
// ---------------------------------------------------------------------

namespace {

/// Shared state of a loopback pair: inbox[e] is endpoint e's receive
/// queue, and arrived[e] wakes its one reader — so a send never wakes
/// the sender's own reader.  A close from either side wakes both (a
/// drained peer must see EOF, exactly like a socket).
struct LoopbackState {
  std::mutex mu;
  std::condition_variable arrived[2];
  std::deque<Frame> inbox[2];
  bool closed = false;
};

class LoopbackChannel final : public Channel {
 public:
  LoopbackChannel(std::shared_ptr<LoopbackState> state, int endpoint)
      : state_(std::move(state)), endpoint_(endpoint) {}
  ~LoopbackChannel() override { close(); }

  bool send(const Frame& frame) override {
    const int peer = 1 - endpoint_;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->closed) return false;
      state_->inbox[peer].push_back(frame);
    }
    // recv() has a single consumer per endpoint, so one wakeup suffices.
    state_->arrived[peer].notify_one();
    return true;
  }

  bool recv(Frame& frame) override {
    std::unique_lock<std::mutex> lock(state_->mu);
    std::deque<Frame>& inbox = state_->inbox[endpoint_];
    state_->arrived[endpoint_].wait(
        lock, [&] { return !inbox.empty() || state_->closed; });
    // Drain pending frames even after close — a socket delivers what
    // was written before the FIN, and tests rely on that parity.
    if (inbox.empty()) return false;
    frame = std::move(inbox.front());
    inbox.pop_front();
    return true;
  }

  void close() override {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->closed = true;
    }
    for (std::condition_variable& cv : state_->arrived) cv.notify_all();
  }

 private:
  std::shared_ptr<LoopbackState> state_;
  int endpoint_;
};

}  // namespace

ChannelPair make_loopback_pair() {
  auto state = std::make_shared<LoopbackState>();
  return ChannelPair{std::make_shared<LoopbackChannel>(state, 0),
                     std::make_shared<LoopbackChannel>(state, 1)};
}

// ---------------------------------------------------------------------
// Transport: AF_UNIX socketpair.
// ---------------------------------------------------------------------

namespace {

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that died must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

class FdChannel final : public Channel {
 public:
  explicit FdChannel(int fd) : fd_(fd) {}
  ~FdChannel() override {
    close();
    ::close(fd_);
  }

  bool send(const Frame& frame) override {
    if (frame.body.size() > kMaxFrameBytes - 9) return false;
    // Header + body under one lock: frames from concurrent senders
    // (a worker's receive thread and responders) never interleave on the
    // stream.
    std::lock_guard<std::mutex> lock(send_mu_);
    Writer hdr;
    hdr.u32(static_cast<std::uint32_t>(9 + frame.body.size()));
    hdr.u8(static_cast<std::uint8_t>(frame.type));
    hdr.u64(frame.id);
    return write_all(fd_, hdr.data().data(), hdr.data().size()) &&
           write_all(fd_, frame.body.data(), frame.body.size());
  }

  bool recv(Frame& frame) override {
    std::lock_guard<std::mutex> lock(recv_mu_);
    std::uint8_t len_buf[4];
    if (!read_all(fd_, len_buf, sizeof len_buf)) return false;
    std::uint32_t len;
    std::memcpy(&len, len_buf, sizeof len);
    if (len < 9 || len > kMaxFrameBytes) return false;
    std::vector<std::uint8_t> payload(len);
    if (!read_all(fd_, payload.data(), payload.size())) return false;
    Reader r(payload);
    frame.type = static_cast<MsgType>(r.u8());
    frame.id = r.u64();
    frame.body.assign(payload.begin() + 9, payload.end());
    return true;
  }

  void close() override {
    bool expected = false;
    if (shut_.compare_exchange_strong(expected, true)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  int fd_;
  std::mutex send_mu_;
  std::mutex recv_mu_;
  std::atomic<bool> shut_{false};
};

}  // namespace

ChannelPair make_socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw WireError("socketpair failed: errno " + std::to_string(errno));
  }
  return ChannelPair{std::make_shared<FdChannel>(fds[0]),
                     std::make_shared<FdChannel>(fds[1])};
}

std::shared_ptr<Channel> channel_from_fd(int fd) {
  return std::make_shared<FdChannel>(fd);
}

}  // namespace harmony::serve

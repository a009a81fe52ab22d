#include "serve/router.hpp"

#include <future>
#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"

namespace harmony::serve {

Router::Router(RouterConfig cfg) : cfg_(cfg), ring_(cfg.ring) {}

Router::~Router() { shutdown(); }

std::size_t Router::add_shard(std::string name,
                              std::shared_ptr<Channel> channel) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) throw std::logic_error("Router::add_shard after shutdown");
  const std::size_t shard = ring_.add_shard();
  auto s = std::make_unique<Shard>();
  s->name = std::move(name);
  s->channel = std::move(channel);
  shards_.push_back(std::move(s));
  outstanding_.push_back(0);
  stats_.per_shard.push_back(0);
  shards_.back()->reader = std::thread([this, shard] { reader_loop(shard); });
  return shard;
}

std::size_t Router::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

void Router::submit(const WireRequest& req, Callback on_reply) {
  Writer w;
  encode(w, req);
  std::vector<std::uint8_t> body = w.take();
  const CacheKey key = routing_key(body);

  std::uint64_t id = 0;
  std::shared_ptr<Channel> channel;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_ || shards_.empty()) {
      WireResponse r;
      r.status = static_cast<std::uint8_t>(Status::kRejected);
      r.error = shards_.empty() ? "router has no shards"
                                : "router shutting down";
      // The callback may re-enter the router (stats(), a retry), so it
      // runs after the lock is released, as in finish_ask.
      lock.unlock();
      on_reply(r);
      return;
    }
    // Coalesce: attach to an identical in-flight ask.  Deadline-carrying
    // requests opt out — their reply is shaped by the leader's budget.
    const bool coalesceable = cfg_.coalesce && req.deadline_ns == 0;
    if (coalesceable) {
      if (const auto it = inflight_.find(key); it != inflight_.end()) {
        pending_[it->second].waiters.push_back(std::move(on_reply));
        ++stats_.coalesced;
        return;
      }
    }

    std::size_t target = ring_.lookup(key);
    bool stolen = false;
    if (cfg_.enable_steal) {
      // Overflow steal: hot keys pile depth onto one shard; past the
      // margin, queue delay outweighs the affinity cache's savings.
      std::size_t least = target;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (ring_.active(s) && outstanding_[s] < outstanding_[least]) {
          least = s;
        }
      }
      if (least != target &&
          outstanding_[target] > outstanding_[least] + cfg_.steal_margin) {
        target = least;
        stolen = true;
        ++stats_.stolen;
      }
    }

    id = next_id_++;
    PendingAsk ask;
    ask.shard = target;
    ask.stolen = stolen;
    ask.coalesceable = coalesceable;
    ask.key = key;
    if (trace::enabled()) ask.begin_ns = trace::now_ns();
    ask.waiters.push_back(std::move(on_reply));
    pending_.emplace(id, std::move(ask));
    if (coalesceable) inflight_.emplace(key, id);
    ++outstanding_[target];
    ++stats_.routed;
    ++stats_.per_shard[target];
    channel = shards_[target]->channel;
  }

  // Send outside the lock: the reply cannot beat the send, and a slow
  // kernel buffer must not stall every other submitter.
  if (!channel->send(Frame{MsgType::kSubmit, id, std::move(body)})) {
    WireResponse r;
    r.status = static_cast<std::uint8_t>(Status::kError);
    r.error = "shard channel closed";
    finish_ask(id, std::move(r));
  }
}

WireResponse Router::call(const WireRequest& req) {
  std::promise<WireResponse> done;
  std::future<WireResponse> fut = done.get_future();
  submit(req, [&done](const WireResponse& r) { done.set_value(r); });
  return fut.get();
}

void Router::reader_loop(std::size_t shard) {
  trace::set_thread_name("serve-router");
  std::shared_ptr<Channel> channel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    channel = shards_[shard]->channel;
  }
  Frame frame;
  while (channel->recv(frame)) {
    if (frame.type == MsgType::kReply) {
      WireResponse resp;
      try {
        Reader r(frame.body);
        resp = decode_response(r);
        r.expect_end();
      } catch (const std::exception& e) {
        resp = WireResponse{};
        resp.status = static_cast<std::uint8_t>(Status::kError);
        resp.error = std::string("reply decode failed: ") + e.what();
      }
      finish_ask(frame.id, std::move(resp));
      continue;
    }
    // Control replies (kMetrics / kSnapshot / kRestored) rendezvous
    // with the blocked control() caller by id.
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = control_.find(frame.id); it != control_.end()) {
      it->second->frame = std::move(frame);
      it->second->done = true;
      control_cv_.notify_all();
    }
  }
  fail_shard(shard, "shard channel closed");
}

void Router::finish_ask(std::uint64_t id, WireResponse resp) {
  PendingAsk ask;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;  // already failed by fail_shard
    ask = std::move(it->second);
    pending_.erase(it);
    if (ask.coalesceable) {
      if (const auto inf = inflight_.find(ask.key);
          inf != inflight_.end() && inf->second == id) {
        inflight_.erase(inf);
      }
    }
    --outstanding_[ask.shard];
    drain_cv_.notify_all();
  }
  if (ask.begin_ns != 0 && trace::enabled()) {
    // Router half of the request lifecycle, joined to the shard span by
    // the correlation id; args carry (shard, stolen).
    trace::emit_span("serve_dist", "route", ask.begin_ns, trace::now_ns(),
                     id, static_cast<std::uint64_t>(ask.shard),
                     ask.stolen ? 1 : 0);
  }
  resp.shard = static_cast<std::uint32_t>(ask.shard);
  resp.stolen = ask.stolen;
  for (std::size_t i = 0; i < ask.waiters.size(); ++i) {
    WireResponse r = resp;
    r.coalesced = i > 0;
    ask.waiters[i](r);
  }
}

void Router::fail_shard(std::size_t shard, const std::string& reason) {
  std::vector<std::pair<std::uint64_t, WireResponse>> failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, ask] : pending_) {
      if (ask.shard != shard) continue;
      WireResponse r;
      r.status = static_cast<std::uint8_t>(Status::kError);
      r.error = reason;
      failed.emplace_back(id, std::move(r));
    }
    // Unblock any control() caller waiting on this shard forever.
    control_cv_.notify_all();
  }
  for (auto& [id, resp] : failed) finish_ask(id, std::move(resp));
}

void Router::drain(std::size_t shard) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shard >= shards_.size()) {
    throw std::out_of_range("Router::drain: no such shard");
  }
  ring_.set_active(shard, false);
  // In-flight work finishes normally; new submits already rehash to the
  // ring successors.  Stolen asks count against their *target* shard,
  // so outstanding_[shard] covers everything this shard owes.
  drain_cv_.wait(lock, [&] { return outstanding_[shard] == 0; });
}

void Router::rejoin(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= shards_.size()) {
    throw std::out_of_range("Router::rejoin: no such shard");
  }
  ring_.set_active(shard, true);
}

Frame Router::control(std::size_t shard, MsgType send_type,
                      std::vector<std::uint8_t> body, MsgType want_type) {
  std::uint64_t id = 0;
  std::shared_ptr<Channel> channel;
  auto wait = std::make_shared<ControlWait>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shard >= shards_.size()) {
      throw std::out_of_range("Router::control: no such shard");
    }
    id = next_id_++;
    control_.emplace(id, wait);
    channel = shards_[shard]->channel;
  }
  if (!channel->send(Frame{send_type, id, std::move(body)})) {
    std::lock_guard<std::mutex> lock(mu_);
    control_.erase(id);
    throw WireError("Router::control: shard channel closed");
  }
  std::unique_lock<std::mutex> lock(mu_);
  control_cv_.wait(lock, [&] { return wait->done || shutdown_; });
  control_.erase(id);
  if (!wait->done) throw WireError("Router::control: shutdown during RPC");
  if (wait->frame.type != want_type) {
    throw WireError("Router::control: unexpected reply type");
  }
  return std::move(wait->frame);
}

std::vector<std::uint8_t> Router::snapshot_shard(std::size_t shard) {
  return control(shard, MsgType::kSnapshotGet, {}, MsgType::kSnapshot).body;
}

std::uint64_t Router::restore_shard(
    std::size_t shard, const std::vector<std::uint8_t>& snapshot) {
  Frame reply =
      control(shard, MsgType::kRestore, snapshot, MsgType::kRestored);
  Reader r(reply.body);
  const std::uint64_t restored = r.u64();
  r.expect_end();
  return restored;
}

WireMetrics Router::shard_metrics(std::size_t shard) {
  Frame reply = control(shard, MsgType::kMetricsGet, {}, MsgType::kMetrics);
  Reader r(reply.body);
  WireMetrics m = decode_metrics(r);
  r.expect_end();
  return m;
}

WireMetrics Router::fleet_metrics() {
  const std::size_t n = num_shards();
  WireMetrics fleet;
  fleet.latency_buckets.assign(LatencyHistogram::kNumBuckets, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const WireMetrics m = shard_metrics(s);
    fleet.submitted += m.submitted;
    fleet.completed += m.completed;
    fleet.rejected += m.rejected;
    fleet.errors += m.errors;
    fleet.deadline_cut += m.deadline_cut;
    fleet.tunes += m.tunes;
    fleet.cache_hits += m.cache_hits;
    fleet.cache_misses += m.cache_misses;
    fleet.cache_entries += m.cache_entries;
    fleet.compile_hits += m.compile_hits;
    fleet.compile_misses += m.compile_misses;
    fleet.exec_checks += m.exec_checks;
    fleet.exec_failures += m.exec_failures;
    for (std::size_t b = 0;
         b < std::min(m.latency_buckets.size(), fleet.latency_buckets.size());
         ++b) {
      fleet.latency_buckets[b] += m.latency_buckets[b];
    }
  }
  return fleet;
}

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RouterStats s = stats_;
  s.outstanding = outstanding_;
  return s;
}

void Router::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    control_cv_.notify_all();
  }
  // Politely stop each worker loop, then close so readers see EOF and
  // fail any stragglers.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : shards_) {
      s->channel->send(Frame{MsgType::kShutdown, 0, {}});
      s->channel->close();
    }
  }
  for (const auto& s : shards_) {
    if (s->reader.joinable()) s->reader.join();
  }
}

}  // namespace harmony::serve

#include "serve/worker.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "trace/trace.hpp"

namespace harmony::serve {

namespace {

std::vector<std::uint8_t> encoded(const WireResponse& resp) {
  Writer w;
  encode(w, resp);
  return w.take();
}

/// Sends one kReply body, closing the request's shard span.
void send_reply(Channel& channel, std::uint64_t id, std::uint64_t begin_ns,
                std::vector<std::uint8_t> body) {
  if (begin_ns != 0 && trace::enabled()) {
    // The shard half of the cross-process lifecycle: same correlation
    // id as the router's "route" span, so a timeline viewer joins them
    // into one request track.
    trace::emit_span("serve_dist", "shard", begin_ns, trace::now_ns(), id);
  }
  channel.send(Frame{MsgType::kReply, id, std::move(body)});
}

}  // namespace

Worker::Worker(WorkerConfig cfg)
    : service_(cfg.service),
      replies_(cfg.service.queue_capacity + 64) {}

Worker::~Worker() { replies_.close(); }

void Worker::serve(std::shared_ptr<Channel> channel) {
  std::vector<std::thread> responders;
  responders.reserve(kResponders);
  for (unsigned i = 0; i < kResponders; ++i) {
    responders.emplace_back([this, &channel] { responder_loop(*channel); });
  }

  Frame frame;
  bool running = true;
  while (running && channel->recv(frame)) {
    switch (frame.type) {
      case MsgType::kSubmit: {
        Reply reply;
        reply.id = frame.id;
        if (trace::enabled()) reply.begin_ns = trace::now_ns();
        try {
          Reader r(frame.body);
          const WireRequest wire = decode_request(r);
          r.expect_end();
          if (wire.kind != RequestKind::kCostEval &&
              wire.kind != RequestKind::kLegality &&
              wire.kind != RequestKind::kTune) {
            throw WireError(std::string(to_string(wire.kind)) +
                            " is not supported over the wire "
                            "(in-process tiers only)");
          }
          reply.future = service_.submit(to_request(wire, catalog_));
        } catch (const std::exception& e) {
          WireResponse err;
          err.status = static_cast<std::uint8_t>(Status::kError);
          err.error = e.what();
          send_reply(*channel, reply.id, reply.begin_ns, encoded(err));
          break;
        }
        reply.request = std::move(frame.body);
        // Hits and rejections are answered here, with no handoff; only
        // queued work waits for a responder.
        if (reply.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          respond(*channel, reply);
          break;
        }
        const std::uint64_t id = reply.id;
        const std::uint64_t begin_ns = reply.begin_ns;
        if (!replies_.try_push(std::move(reply))) {
          // Responder backlog full: shed load the same way the Service
          // sheds admission-queue overflow.
          WireResponse rej;
          rej.status = static_cast<std::uint8_t>(Status::kRejected);
          rej.error = "shard responder backlog full";
          rej.retry_after_ns = kRetryAfter.count();
          send_reply(*channel, id, begin_ns, encoded(rej));
        }
        break;
      }
      case MsgType::kMetricsGet: {
        const MetricsSnapshot snap = service_.metrics();
        Writer w;
        encode(w, to_wire(snap, snap.latency_buckets));
        channel->send(Frame{MsgType::kMetrics, frame.id, w.take()});
        break;
      }
      case MsgType::kSnapshotGet: {
        channel->send(
            Frame{MsgType::kSnapshot, frame.id, encode(snapshot())});
        break;
      }
      case MsgType::kRestore: {
        std::uint64_t restored = 0;
        try {
          restored = restore(decode_snapshot(frame.body));
        } catch (const std::exception&) {
          restored = 0;  // count of 0 signals a rejected snapshot
        }
        Writer w;
        w.u64(restored);
        channel->send(Frame{MsgType::kRestored, frame.id, w.take()});
        break;
      }
      case MsgType::kShutdown:
        running = false;
        break;
      default:
        break;  // unknown control frames are ignored, not fatal
    }
  }

  // Drain: every admitted request still gets its reply before the
  // responders stop — this is the worker half of graceful drain.
  replies_.close();
  for (std::thread& t : responders) t.join();
  channel->close();
}

void Worker::respond(Channel& channel, Reply& reply) {
  const Response resp = reply.future.get();
  std::vector<std::uint8_t> body = encoded(to_wire(resp));
  // Log converged, freshly computed answers: deadline-cut tunes stay out
  // (same rule as the result cache), and hits are already logged from
  // the run that computed them.
  const bool converged =
      resp.kind != RequestKind::kTune || resp.search.exhausted;
  if (resp.ok() && !resp.cache_hit && converged) {
    // Canonical request bytes: the received body with the QoS tail
    // zeroed, so re-asks with another deadline dedup onto one entry.
    std::vector<std::uint8_t>& request = reply.request;
    std::fill(request.end() - kRequestQosBytes, request.end(), 0);
    const CacheKey key = routing_key(request);
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (const auto it = snap_index_.find(key); it != snap_index_.end()) {
      snap_entries_[it->second].response = body;
    } else if (snap_entries_.size() < kSnapshotCapacity) {
      snap_index_.emplace(key, snap_entries_.size());
      snap_entries_.push_back(SnapshotEntry{std::move(request), body});
    }
  }
  send_reply(channel, reply.id, reply.begin_ns, std::move(body));
}

void Worker::responder_loop(Channel& channel) {
  trace::set_thread_name("serve-shard");
  Reply reply;
  while (replies_.pop(reply)) respond(channel, reply);
}

CacheSnapshot Worker::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  CacheSnapshot snap;
  snap.entries = snap_entries_;
  return snap;
}

std::uint64_t Worker::restore(const CacheSnapshot& snap) {
  std::uint64_t restored = 0;
  for (const SnapshotEntry& e : snap.entries) {
    Reader rq(e.request);
    const WireRequest wire_req = decode_request(rq);
    rq.expect_end();
    Reader rr(e.response);
    const WireResponse wire_resp = decode_response(rr);
    rr.expect_end();

    const Request req = to_request(wire_req, catalog_);
    service_.warm(req, from_wire(wire_resp));
    // The compile misses paid here are exactly the snapshot's miss set;
    // replaying the snapshot's keys afterwards compiles nothing.
    service_.precompile(req);
    {
      // Keyed like the live log: by the entry's own request bytes.
      const CacheKey key = routing_key(e.request);
      std::lock_guard<std::mutex> lock(snap_mu_);
      if (snap_index_.find(key) == snap_index_.end() &&
          snap_entries_.size() < kSnapshotCapacity) {
        snap_index_.emplace(key, snap_entries_.size());
        snap_entries_.push_back(e);
      }
    }
    ++restored;
  }
  return restored;
}

}  // namespace harmony::serve

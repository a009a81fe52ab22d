#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "analyze/exec.hpp"
#include "analyze/lint.hpp"
#include "trace/trace.hpp"

namespace harmony::serve {

namespace {

/// Specs the fingerprint memo holds at once.  When it is full, entries
/// whose spec is gone are dropped, or else all of them.
constexpr std::size_t kSpecFpCapacity = 1024;

/// CompiledSpec entries kept for tunes (LRU, keyed by make_compile_key).
/// Two tunes that differ only in FoM or search knobs share one set of
/// flat evaluation tables.
constexpr std::size_t kCompileCacheCapacity = 128;

/// Input-home prototype for the autotuner: the declared input homes
/// (DRAM default), no computed assignment.
fm::Mapping input_proto(const Request& req) {
  fm::Mapping m;
  const auto inputs = req.spec->input_tensors();
  for (std::size_t idx = 0; idx < inputs.size(); ++idx) {
    const InputPlacement placement =
        idx < req.inputs.size() ? req.inputs[idx] : InputPlacement::dram();
    m.set_input(inputs[idx], placement.to_home());
  }
  return m;
}

/// Builds the full Mapping a request describes: the AffineMap on the
/// single computed tensor plus the input_proto homes.
fm::Mapping materialize_mapping(const Request& req,
                                const fm::AffineMap& map) {
  const auto computed = req.spec->computed_tensors();
  HARMONY_REQUIRE(computed.size() == 1,
                  "serve: spec must have exactly one computed tensor");
  // AffineMap::place wraps modulo cols and rows; a zero width from the
  // wire would divide by zero.
  HARMONY_REQUIRE(map.cols >= 1 && map.rows >= 1,
                  "serve: map cols and rows must be positive");
  fm::Mapping m = input_proto(req);
  m.set_computed(computed[0], map.place_fn(), map.time_fn());
  return m;
}

}  // namespace

Service::Service(ServiceConfig cfg)
    : cfg_(cfg),
      cache_(std::max<std::size_t>(1, cfg.cache_capacity),
             std::max<std::size_t>(1, cfg.cache_shards)),
      scheduler_(std::max(1u, cfg.num_workers)) {
  cfg_.num_workers = std::max(1u, cfg_.num_workers);
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
}

Service::~Service() { shutdown(); }

void Service::shutdown() {
  std::unique_lock<std::mutex> lk(admit_mu_);
  stopping_ = true;
  idle_cv_.wait(lk, [this] { return admitted_ == 0; });
}

std::future<Response> Service::submit(Request req) {
  metrics_.on_submit();
  const std::uint64_t rid = next_rid_.fetch_add(1, std::memory_order_relaxed);
  // Covers admission on the caller's thread: validation, the cache fast
  // path (arg0 = 1 on a hit), and the spawn.
  trace::Span admit_span("serve", "admit", rid);
  const Clock::time_point now = Clock::now();
  std::promise<Response> ready;
  std::future<Response> fut = ready.get_future();

  const bool missing_payload =
      req.kind == RequestKind::kPipelineTune
          ? req.pipeline == nullptr || req.pipeline->empty()
          : req.spec == nullptr;
  if (missing_payload) {
    Response r;
    r.status = Status::kError;
    r.kind = req.kind;
    r.error = req.kind == RequestKind::kPipelineTune
                  ? "submit: null or empty pipeline"
                  : "submit: null spec";
    metrics_.on_complete(Clock::now() - now, false, true);
    ready.set_value(std::move(r));
    return fut;
  }

  auto p = std::make_unique<Pending>();
  p->req = std::move(req);
  p->enqueued = now;
  p->use_cache = cacheable(p->req);
  if (p->use_cache) {
    p->key = result_key(p->req);
    // Fast path: answer memoized queries on the caller's thread, never
    // touching admission.
    if (auto hit = cache_.get(p->key)) {
      admit_span.set_args(1, 0);
      Response r = *hit;
      r.cache_hit = true;
      r.latency = Clock::now() - now;
      metrics_.on_complete(r.latency, false, false);
      ready.set_value(std::move(r));
      return fut;
    }
  }

  if (p->req.deadline.count() > 0) {
    p->has_deadline = true;
    p->deadline = now + p->req.deadline;
  }
  // Duplicates share one oracle run, except deadline-carrying tunes: two
  // waiters with different budgets deserve different frontiers.
  const bool is_tune = p->req.kind == RequestKind::kTune ||
                       p->req.kind == RequestKind::kPipelineTune;
  p->coalesce = p->use_cache && !(is_tune && p->has_deadline);
  p->rid = rid;
  if (trace::enabled()) p->enqueue_ns = trace::now_ns();

  const char* reject = nullptr;
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    if (stopping_) {
      reject = "service shutting down";
    } else if (admitted_ >= cfg_.queue_capacity) {
      reject = "admission queue full";
    } else {
      ++admitted_;
      fut = p->promise.get_future();
      if (p->coalesce) {
        const auto [it, leader] = inflight_.try_emplace(p->key);
        if (!leader) {
          it->second.push_back(std::move(p));  // answered by the leader
          return fut;
        }
      }
      waiting_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (reject != nullptr) {
    Response r;
    r.status = Status::kRejected;
    r.kind = p->req.kind;
    r.error = reject;
    r.retry_after = kRetryAfter;
    metrics_.on_reject();
    ready.set_value(std::move(r));
    return fut;
  }
  scheduler_.spawn([this, leader = std::move(p)] { run_request(*leader); });
  return fut;
}

Response Service::call(Request req) { return submit(std::move(req)).get(); }

MetricsSnapshot Service::metrics() const {
  return metrics_.snapshot(waiting_.load(std::memory_order_relaxed),
                           cache_.stats());
}

void Service::run_request(Pending& leader) {
  const std::size_t depth =
      waiting_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (leader.enqueue_ns != 0) {
    // Close the queue-wait interval opened at admission and sample the
    // requests still waiting for a worker.
    trace::emit_span("serve", "queue_wait", leader.enqueue_ns,
                     trace::now_ns(), leader.rid);
    trace::emit_counter("serve", "queue_depth", depth);
  }

  // A duplicate run may have filled the cache since admission.
  std::shared_ptr<const Response> cached;
  if (leader.use_cache) {
    trace::Span probe_span("serve", "cache_probe", leader.rid);
    cached = cache_.get(leader.key);
    probe_span.set_args(cached != nullptr, 0);
  }

  Response computed;
  if (cached == nullptr) {
    computed = execute(leader);
    // Count diagnostics once per oracle run (cache hits replay, they
    // don't re-diagnose).
    metrics_.on_diagnostics(computed.legality.diagnostics);
    metrics_.on_diagnostics(computed.lint);
    metrics_.on_diagnostics(computed.exec);
    // Cut-short tunes (of either flavour) stay out of the cache: a short
    // deadline must never poison the answer for a patient caller.
    bool converged = true;
    if (leader.req.kind == RequestKind::kTune) {
      converged = leader.req.strategy == fm::StrategyKind::kExhaustive
                      ? computed.search.exhausted
                      : computed.strategy.completed;
    } else if (leader.req.kind == RequestKind::kPipelineTune) {
      converged = computed.pipeline.completed;
    }
    const bool store = leader.use_cache && computed.ok() && converged;
    if (store) {
      cache_.put(leader.key, std::make_shared<Response>(computed));
    }
  }

  // Stored before the entry goes: a duplicate admitted from here on
  // hits the cache, one admitted before is parked and answered below.
  std::vector<std::unique_ptr<Pending>> followers;
  if (leader.coalesce) {
    std::lock_guard<std::mutex> lk(admit_mu_);
    auto node = inflight_.extract(leader.key);
    followers = std::move(node.mapped());
  }
  metrics_.on_batch(1 + followers.size());

  Response r = cached ? *cached : computed;
  r.cache_hit = cached != nullptr;
  for (const std::unique_ptr<Pending>& f : followers) {
    // Followers coalesced onto the leader count as hits: they were
    // answered by sharing, not by running the oracle.
    Response shared = r;
    shared.cache_hit = true;
    respond(*f, std::move(shared));
  }
  respond(leader, std::move(r));

  std::lock_guard<std::mutex> lk(admit_mu_);
  admitted_ -= 1 + followers.size();
  if (admitted_ == 0) idle_cv_.notify_all();
}

Response Service::execute(const Pending& p) {
  const Request& req = p.req;
  // Named after the oracle ("cost_eval" / "legality" / "tune"): the
  // timeline shows what kind of work each request cost.
  trace::Span exec_span("serve", to_string(req.kind), p.rid);
  Response r;
  r.kind = req.kind;
  try {
    switch (req.kind) {
      case RequestKind::kCostEval: {
        const fm::Mapping m = materialize_mapping(req, req.map);
        r.cost = fm::evaluate_cost(*req.spec, m, req.machine);
        break;
      }
      case RequestKind::kLegality: {
        const fm::Mapping m = materialize_mapping(req, req.map);
        r.legality = fm::verify(*req.spec, m, req.machine, req.verify);
        break;
      }
      case RequestKind::kTune: {
        if (req.strategy != fm::StrategyKind::kExhaustive) {
          execute_strategy_tune(p, r);
          break;
        }
        fm::SearchOptions opts = req.search;
        opts.fom = req.fom;
        // Reuse (or build) the flat evaluation tables for this
        // (spec, machine, inputs) triple — the search then skips its
        // own per-call compile.  Kept in a local too: the winner's
        // execution witness is built from the same tables below.
        const std::shared_ptr<const fm::CompiledSpec> compiled =
            compiled_for(req);
        opts.compiled = compiled;
        // Fork enumeration grains into the service's shared pool.  This
        // request is already a root on that pool, so the search forks
        // inline (Scheduler::run); the search clamps the per-request
        // lane ask to the pool.
        opts.scheduler = &scheduler_;
        opts.num_workers = req.tune_workers;
        if (p.has_deadline) {
          // The parallel backend polls cancel once per grain, so a
          // deadline tune runs single-slot grains: the overshoot past
          // the cutoff is bounded by the candidates already in flight
          // (at most one per lane) instead of a whole auto-sized grain.
          if (opts.grain == fm::kAutoGrain) opts.grain = 1;
          // Stop early enough that delivering the response beats the
          // deadline; chain any caller-supplied cancel hook.
          const Clock::time_point cutoff = p.deadline - cfg_.deadline_margin;
          opts.cancel = [cutoff, user = req.search.cancel] {
            return Clock::now() >= cutoff || (user && user());
          };
        }
        // Steal-count delta around the search: approximate when tunes
        // overlap (steals interleave), but cheap and a faithful
        // saturation signal in aggregate.
        const std::uint64_t steals_before = scheduler_.steal_count();
        r.search =
            fm::search_affine(*req.spec, req.machine, input_proto(req), opts);
        metrics_.on_tune(r.search.workers_used,
                         scheduler_.steal_count() - steals_before);
        r.deadline_cut = p.has_deadline && !r.search.exhausted;
        if (r.search.found) {
          r.cost = r.search.best.cost;
          // Lint the winner: a mapping can win the merit race and still
          // carry smells (idle PEs, hot links) the caller should see.
          const fm::Mapping best = materialize_mapping(req, r.search.best.map);
          r.lint = analyze::lint_mapping(*req.spec, best, req.machine)
                       .diagnostics;
          check_winner_exec(
              r, analyze::build_exec_witness(*compiled, r.search.best.map));
        }
        break;
      }
      case RequestKind::kPipelineTune: {
        execute_pipeline_tune(p, r);
        break;
      }
    }
  } catch (const std::exception& e) {
    r = Response{};
    r.kind = req.kind;
    r.status = Status::kError;
    r.error = e.what();
  }
  return r;
}

void Service::execute_strategy_tune(const Pending& p, Response& r) {
  const Request& req = p.req;
  fm::StrategyOptions opts = req.strategy_opts;
  opts.fom = req.fom;
  // Same service-owned execution plumbing as the exhaustive path: the
  // shared compile cache, the shared scheduler with the per-request
  // lane ask, and a deadline cancel chained over any caller-supplied
  // hook.  The anneal/beam drivers poll cancel per epoch and hand back
  // the best table found so far, so a deadline cut still answers with a
  // legal mapping (Response::deadline_cut).
  const std::shared_ptr<const fm::CompiledSpec> compiled = compiled_for(req);
  opts.compiled = compiled;
  opts.scheduler = &scheduler_;
  opts.num_workers = req.tune_workers;
  if (p.has_deadline) {
    const Clock::time_point cutoff = p.deadline - cfg_.deadline_margin;
    opts.cancel = [cutoff, user = req.strategy_opts.cancel] {
      return Clock::now() >= cutoff || (user && user());
    };
  }
  const std::uint64_t steals_before = scheduler_.steal_count();
  r.strategy = fm::search_table(*req.spec, req.machine, input_proto(req),
                                req.strategy, opts);
  metrics_.on_tune(r.strategy.workers_used,
                   scheduler_.steal_count() - steals_before);
  r.deadline_cut = p.has_deadline && !r.strategy.completed;
  if (r.strategy.found) {
    r.cost = r.strategy.cost;
    const fm::Mapping best = fm::to_mapping(*req.spec, r.strategy.best);
    r.lint =
        analyze::lint_mapping(*req.spec, best, req.machine).diagnostics;
    check_winner_exec(r,
                      analyze::build_exec_witness(*compiled, r.strategy.best));
  }
}

void Service::execute_pipeline_tune(const Pending& p, Response& r) {
  const Request& req = p.req;
  const fm::Pipeline& pipe = *req.pipeline;
  fm::PipelineOptions opts;
  opts.fom = req.fom;
  opts.strategy = req.strategy;
  opts.search = req.search;
  opts.strategy_opts = req.strategy_opts;
  opts.pair_candidates = req.pipeline_pair_candidates;
  // Same execution plumbing as single-spec tunes: the shared scheduler
  // with the per-request lane ask, per-stage compiles through the
  // coalescing compile cache, and a deadline cancel chained over any
  // caller hook — the pipeline tuner polls it between stages, between
  // probes, and inside every stage search, so a cut answers best-so-far.
  opts.scheduler = &scheduler_;
  opts.num_workers = req.tune_workers;
  if (p.has_deadline) {
    if (req.strategy == fm::StrategyKind::kExhaustive &&
        opts.search.grain == fm::kAutoGrain) {
      opts.search.grain = 1;  // bound overshoot, as in the kTune path
    }
    const Clock::time_point cutoff = p.deadline - cfg_.deadline_margin;
    const std::function<bool()> user =
        req.strategy == fm::StrategyKind::kExhaustive
            ? req.search.cancel
            : req.strategy_opts.cancel;
    opts.cancel = [cutoff, user] {
      return Clock::now() >= cutoff || (user && user());
    };
  }
  opts.compile = [this, &req](std::size_t stage, const fm::Mapping& proto,
                              std::uint64_t home_fp) {
    return compiled_for_stage(req, stage, proto, home_fp);
  };

  const std::uint64_t steals_before = scheduler_.steal_count();
  r.pipeline = req.pipeline_paired
                   ? fm::tune_pipeline_paired(pipe, req.machine, opts)
                   : fm::tune_pipeline_greedy(pipe, req.machine, opts);
  unsigned workers_used = 1;
  for (const fm::StageResult& st : r.pipeline.stages) {
    workers_used = std::max(
        {workers_used, st.search.workers_used, st.strategy.workers_used});
  }
  metrics_.on_tune(workers_used, scheduler_.steal_count() - steals_before);
  r.deadline_cut = p.has_deadline && !r.pipeline.completed;
  if (!r.pipeline.found) return;
  r.cost = r.pipeline.total;
  // Certify every committed stage winner with its *resolved* input
  // homes — the producer-substituted prototype each stage actually
  // compiled against — through the linter and the independent axiom
  // checker.  A clean chain means every handoff the cost model priced
  // is one the relational model agrees is legal.
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    const fm::StageResult& st = r.pipeline.stages[s];
    const fm::FunctionSpec& spec = *pipe.stage(s).spec;
    const fm::Mapping proto =
        fm::stage_input_proto(pipe, s, req.strategy, r.pipeline);
    const std::shared_ptr<const fm::CompiledSpec> compiled =
        compiled_for_stage(req, s, proto, st.home_fingerprint);
    if (req.strategy == fm::StrategyKind::kExhaustive) {
      fm::Mapping full = proto;
      const fm::TensorId target = spec.computed_tensors().front();
      full.set_computed(target, st.affine.place_fn(), st.affine.time_fn());
      const auto lint = analyze::lint_mapping(spec, full, req.machine);
      r.lint.insert(r.lint.end(), lint.diagnostics.begin(),
                    lint.diagnostics.end());
      check_winner_exec(r, analyze::build_exec_witness(*compiled, st.affine));
    } else {
      const fm::Mapping full = fm::to_mapping(spec, st.table);
      const auto lint = analyze::lint_mapping(spec, full, req.machine);
      r.lint.insert(r.lint.end(), lint.diagnostics.begin(),
                    lint.diagnostics.end());
      check_winner_exec(r, analyze::build_exec_witness(*compiled, st.table));
    }
  }
}

void Service::check_winner_exec(Response& r,
                                const analyze::ExecWitness& witness) {
  // The independent relational model's verdict on the tune winner: a
  // nonzero EXEC count here means the searcher's legality gate and the
  // axiom checker disagree about this very mapping.  Its share of the
  // tune grows as tunes shrink: analyze.exec_check_share was 0.010 on
  // cold_tunes and 0.116 on mixed_fleet's 81-candidate tunes (traced
  // perfbench, seed 3, 10 s, 4 vCPUs; DESIGN.md §14).
  trace::Span span("serve", "exec_check", 0, 0,
                   static_cast<std::uint64_t>(witness.num_ops));
  const analyze::ExecReport rep = analyze::ExecChecker().check(witness);
  r.exec_checked = true;
  r.exec.insert(r.exec.end(), rep.diagnostics.begin(), rep.diagnostics.end());
  metrics_.on_exec_check(!rep.ok());
}

void Service::warm(const Request& req, Response resp) {
  if (!cacheable(req)) return;
  const CacheKey key = result_key(req);
  resp.cache_hit = false;
  resp.latency = std::chrono::nanoseconds{0};
  cache_.put(key, std::make_shared<Response>(std::move(resp)));
}

void Service::precompile(const Request& req) {
  if (req.kind != RequestKind::kTune || req.spec == nullptr) return;
  if (req.strategy != fm::StrategyKind::kExhaustive) return;
  (void)compiled_for(req);
}

CacheKey Service::spec_fp(
    const std::shared_ptr<const fm::FunctionSpec>& spec) {
  // An entry for a freed spec has expired; one made for an unowned
  // pointer (aliasing an empty shared_ptr) was expired from the start.
  const auto live_owner = [&spec](const SpecFp& e) {
    return !e.owner.expired() && !e.owner.owner_before(spec) &&
           !spec.owner_before(e.owner);
  };
  {
    std::lock_guard<std::mutex> lk(spec_fp_mu_);
    if (const auto it = spec_fps_.find(spec.get());
        it != spec_fps_.end() && live_owner(it->second)) {
      return it->second.fp;
    }
  }
  // Sample outside the lock; a racing duplicate computes the same value.
  const CacheKey fp = spec_fingerprint(*spec);
  std::lock_guard<std::mutex> lk(spec_fp_mu_);
  if (spec_fps_.size() >= kSpecFpCapacity) {
    std::erase_if(spec_fps_,
                  [](const auto& e) { return e.second.owner.expired(); });
    if (spec_fps_.size() >= kSpecFpCapacity) spec_fps_.clear();
  }
  spec_fps_.insert_or_assign(spec.get(), SpecFp{spec, fp});
  return fp;
}

CacheKey Service::result_key(const Request& req) {
  return req.kind == RequestKind::kPipelineTune
             ? make_cache_key(req)
             : make_cache_key(req, spec_fp(req.spec));
}

std::shared_ptr<const fm::CompiledSpec> Service::compiled_for(
    const Request& req) {
  const CacheKey key = make_compile_key(req, spec_fp(req.spec));
  return compiled_cached(key, [&] {
    return fm::compile_spec(*req.spec, req.machine, input_proto(req));
  });
}

std::shared_ptr<const fm::CompiledSpec> Service::compiled_for_stage(
    const Request& req, std::size_t stage, const fm::Mapping& proto,
    std::uint64_t home_fp) {
  const fm::FunctionSpec& spec = *req.pipeline->stage(stage).spec;
  bool hashable = true;
  for (const fm::StageInput& b : req.pipeline->stage(stage).inputs) {
    if (b.kind == fm::StageInput::Kind::kExternal &&
        b.home.kind == fm::InputHome::Kind::kDistributed) {
      hashable = false;  // opaque closure: never share across requests
    }
  }
  if (!hashable) {
    metrics_.on_compile(false);
    return fm::compile_spec(spec, req.machine, proto);
  }
  const CacheKey key =
      make_stage_compile_key(req, stage, home_fp);
  return compiled_cached(
      key, [&] { return fm::compile_spec(spec, req.machine, proto); });
}

std::shared_ptr<const fm::CompiledSpec> Service::compiled_cached(
    const CacheKey& key,
    const std::function<std::shared_ptr<const fm::CompiledSpec>()>& compile) {
  // Leader vs. follower is decided atomically at the probe: the caller
  // that *inserts* the in-flight entry compiles (out of lock, so one
  // slow compile never stalls the pool); every caller that *finds* it
  // blocks on the rendezvous instead of compiling again.  A stampede of
  // identical keys therefore costs exactly one fm::compile_spec and one
  // recorded miss — followers count as hits, since they reuse another
  // request's flat tables.
  std::shared_ptr<InflightCompile> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(compile_mu_);
    if (const auto it = compile_cache_.find(key);
        it != compile_cache_.end()) {
      compile_lru_.splice(compile_lru_.begin(), compile_lru_,
                          it->second.lru);
      metrics_.on_compile(true);
      return it->second.compiled;
    }
    const auto [it, inserted] =
        compile_inflight_.try_emplace(key, nullptr);
    if (inserted) {
      it->second = std::make_shared<InflightCompile>();
      leader = true;
    }
    flight = it->second;
  }
  if (!leader) {
    std::unique_lock<std::mutex> lk(flight->mu);
    flight->cv.wait(lk, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    metrics_.on_compile(true);
    return flight->compiled;
  }

  metrics_.on_compile(false);
  std::shared_ptr<const fm::CompiledSpec> compiled;
  std::exception_ptr error;
  try {
    compiled = compile();
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(compile_mu_);
    if (compiled) {
      compile_lru_.push_front(key);
      compile_cache_.emplace(key,
                             CompiledEntry{compiled, compile_lru_.begin()});
      while (compile_cache_.size() > kCompileCacheCapacity) {
        compile_cache_.erase(compile_lru_.back());
        compile_lru_.pop_back();
      }
    }
    compile_inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lk(flight->mu);
    flight->compiled = compiled;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return compiled;
}

void Service::respond(Pending& p, Response r) {
  trace::Span reply_span("serve", "reply", p.rid);
  r.latency = Clock::now() - p.enqueued;
  metrics_.on_complete(r.latency, r.deadline_cut,
                       r.status == Status::kError);
  p.promise.set_value(std::move(r));
}

}  // namespace harmony::serve

#include "serve/catalog.hpp"

#include <charconv>
#include <cstdint>
#include <utility>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/specs.hpp"

namespace harmony::serve {
namespace {

/// Splits "a,b,c" / "AxB" style dimension lists.  Throws on anything
/// that is not a plain decimal integer that fits in int64 — catalog
/// names come off the wire, so parsing must be as strict as the frame
/// decoder.
std::vector<std::int64_t> parse_dims(const std::string& s, char sep,
                                     const std::string& name) {
  std::vector<std::int64_t> dims;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(sep, pos);
    const std::string tok =
        s.substr(pos, next == std::string::npos ? std::string::npos
                                                : next - pos);
    std::int64_t dim = 0;
    if (tok.empty() ||
        tok.find_first_not_of("0123456789") != std::string::npos ||
        std::from_chars(tok.data(), tok.data() + tok.size(), dim).ec !=
            std::errc{}) {
      throw WireError("SpecCatalog: bad dimension '" + tok + "' in '" +
                      name + "'");
    }
    dims.push_back(dim);
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return dims;
}

std::shared_ptr<const fm::FunctionSpec> build(const std::string& name) {
  const std::size_t colon = name.find(':');
  if (colon == std::string::npos || colon + 1 >= name.size()) {
    throw WireError("SpecCatalog: malformed spec name '" + name + "'");
  }
  const std::string family = name.substr(0, colon);
  const std::string rest = name.substr(colon + 1);
  if (family == "editdist") {
    const auto dims = parse_dims(rest, 'x', name);
    if (dims.size() != 2) {
      throw WireError("SpecCatalog: editdist wants NxM: '" + name + "'");
    }
    return std::make_shared<const fm::FunctionSpec>(
        algos::editdist_spec(dims[0], dims[1], algos::SwScores{}));
  }
  if (family == "stencil") {
    const auto dims = parse_dims(rest, ',', name);
    if (dims.size() != 2) {
      throw WireError("SpecCatalog: stencil wants N,STEPS: '" + name + "'");
    }
    return std::make_shared<const fm::FunctionSpec>(
        algos::stencil1d_spec(dims[0], dims[1]));
  }
  if (family == "conv") {
    const auto dims = parse_dims(rest, ',', name);
    if (dims.size() != 2) {
      throw WireError("SpecCatalog: conv wants N,K: '" + name + "'");
    }
    return std::make_shared<const fm::FunctionSpec>(
        algos::conv1d_spec(dims[0], dims[1]));
  }
  if (family == "matmul") {
    const auto dims = parse_dims(rest, ',', name);
    if (dims.size() != 1) {
      throw WireError("SpecCatalog: matmul wants N: '" + name + "'");
    }
    return std::make_shared<const fm::FunctionSpec>(
        algos::matmul_spec(dims[0]));
  }
  if (family == "irregular") {
    const auto dims = parse_dims(rest, ',', name);
    if (dims.size() != 3) {
      throw WireError("SpecCatalog: irregular wants N,FANIN,SEED: '" +
                      name + "'");
    }
    return std::make_shared<const fm::FunctionSpec>(algos::irregular_dag_spec(
        dims[0], static_cast<int>(dims[1]),
        static_cast<std::uint64_t>(dims[2])));
  }
  throw WireError("SpecCatalog: unknown spec family '" + family + "'");
}

}  // namespace

std::shared_ptr<const fm::FunctionSpec> SpecCatalog::spec(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = specs_.find(name);
    if (it != specs_.end()) return it->second;
  }
  // Build outside the lock (irregular DAGs can be sizable); last writer
  // wins on a race, and both builds are identical by determinism.
  std::shared_ptr<const fm::FunctionSpec> spec = build(name);
  std::lock_guard<std::mutex> lock(mu_);
  return specs_.emplace(name, std::move(spec)).first->second;
}

Request to_request(const WireRequest& wire, SpecCatalog& catalog) {
  Request req;
  req.kind = wire.kind;
  req.spec = catalog.spec(wire.spec);
  req.machine = fm::make_machine(static_cast<int>(wire.machine_cols),
                                 static_cast<int>(wire.machine_rows));
  req.machine.cycle = Time::picoseconds(wire.cycle_ps);
  req.machine.pe_capacity_values = wire.pe_capacity_values;
  req.machine.link_bits_per_cycle = wire.link_bits_per_cycle;
  req.machine.local_access_pitch_fraction = wire.local_access_pitch_fraction;
  req.fom = wire.fom;
  req.inputs = wire.inputs;
  req.map = wire.map;
  req.verify.check_storage = wire.check_storage;
  req.verify.check_bandwidth = wire.check_bandwidth;
  req.verify.max_messages = wire.max_messages;
  if (!wire.time_coeffs.empty()) req.search.space.time_coeffs = wire.time_coeffs;
  if (!wire.space_coeffs.empty()) {
    req.search.space.space_coeffs = wire.space_coeffs;
  }
  req.search.space.search_y = wire.search_y;
  req.search.fom = wire.fom;
  req.search.verify = req.verify;
  req.search.quick_sample = wire.quick_sample;
  req.search.makespan_slack = wire.makespan_slack;
  req.search.top_k = wire.top_k;
  req.strategy = fm::StrategyKind::kExhaustive;
  req.tune_workers = wire.tune_workers;
  req.deadline = std::chrono::nanoseconds(wire.deadline_ns);
  return req;
}

}  // namespace harmony::serve

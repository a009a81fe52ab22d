#include "fm/strategy/table_map.hpp"

#include <unordered_map>
#include <utility>

#include "fm/compiled.hpp"
#include "support/error.hpp"

namespace harmony::fm {

TableMap table_from_affine(const CompiledSpec& cs, const AffineMap& map) {
  TableMap tm;
  tm.target = cs.target;
  tm.domain = cs.domain;
  tm.cols = cs.cols;
  tm.rows = cs.rows;
  tm.pe.resize(static_cast<std::size_t>(cs.num_points));
  tm.cycle.resize(static_cast<std::size_t>(cs.num_points));
  std::int64_t lin = 0;
  cs.domain.for_each([&](const Point& p) {
    const auto v = static_cast<std::size_t>(lin++);
    tm.pe[v] = static_cast<std::int32_t>(cs.pe_index(map.place(p)));
    tm.cycle[v] = map.time(p);
  });
  tm.input_refs = cs.input_refs;
  tm.input_home = cs.input_home;
  return tm;
}

TableMap table_from_mapping(const CompiledSpec& cs, const Mapping& m) {
  TableMap tm;
  tm.target = cs.target;
  tm.domain = cs.domain;
  tm.cols = cs.cols;
  tm.rows = cs.rows;
  tm.pe.resize(static_cast<std::size_t>(cs.num_points));
  tm.cycle.resize(static_cast<std::size_t>(cs.num_points));
  std::int64_t lin = 0;
  cs.domain.for_each([&](const Point& p) {
    const auto v = static_cast<std::size_t>(lin++);
    tm.pe[v] = static_cast<std::int32_t>(cs.pe_index(m.place(cs.target, p)));
    tm.cycle[v] = m.time(cs.target, p);
  });
  // The per-ordinal homes read from the mapping; the compiled kind stays
  // authoritative for DRAM-vs-PE (it came from the same input proto).
  tm.input_refs = cs.input_refs;
  tm.input_home = cs.input_home;
  for (std::size_t ord = 0; ord < tm.input_home.size(); ++ord) {
    if (tm.input_home[ord] < 0) continue;
    const ValueRef& ref = tm.input_refs[ord];
    const InputHome& home = m.input_home(ref.tensor);
    if (home.kind != InputHome::Kind::kDram) {
      tm.input_home[ord] = static_cast<std::int32_t>(
          cs.pe_index(home.home_of(ref.point)));
    }
  }
  return tm;
}

Mapping to_mapping(const FunctionSpec& spec, const TableMap& tm) {
  HARMONY_REQUIRE(tm.target >= 0 && tm.pe.size() == tm.cycle.size() &&
                      static_cast<std::int64_t>(tm.pe.size()) ==
                          tm.domain.size(),
                  "to_mapping: malformed TableMap");
  Mapping m;
  // The closures share one immutable snapshot of the table; the Mapping
  // stays valid after the TableMap that built it mutates or dies.
  auto shared = std::make_shared<const TableMap>(tm);
  m.set_computed(
      tm.target,
      [shared](const Point& p) {
        return shared->coord_of(shared->domain.linearize(p));
      },
      [shared](const Point& p) {
        return shared->cycle[static_cast<std::size_t>(
            shared->domain.linearize(p))];
      });

  // Group the per-ordinal homes by tensor.  A tensor's ordinals are all
  // DRAM or all PE-homed (the kind is fixed per tensor at compile time).
  std::unordered_map<TensorId, std::shared_ptr<
                                   std::unordered_map<std::int64_t, noc::Coord>>>
      homes;
  for (std::size_t ord = 0; ord < tm.input_refs.size(); ++ord) {
    const ValueRef& ref = tm.input_refs[ord];
    if (ref.tensor < 0 || tm.input_home[ord] < 0) continue;
    auto& table = homes[ref.tensor];
    if (table == nullptr) {
      table =
          std::make_shared<std::unordered_map<std::int64_t, noc::Coord>>();
    }
    const std::int32_t q = tm.input_home[ord];
    (*table)[spec.domain(ref.tensor).linearize(ref.point)] =
        noc::Coord{q % tm.cols, q / tm.cols};
  }
  for (TensorId in : spec.input_tensors()) {
    const auto it = homes.find(in);
    if (it == homes.end()) {
      m.set_input(in, InputHome::dram());
      continue;
    }
    const IndexDomain dom = spec.domain(in);
    m.set_input(in, InputHome::distributed(
                        [table = it->second, dom](const Point& p) {
                          const auto f = table->find(dom.linearize(p));
                          return f == table->end() ? noc::Coord{0, 0}
                                                   : f->second;
                        }));
  }
  return m;
}

}  // namespace harmony::fm

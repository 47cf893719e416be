#include "mapping/parametric.hpp"

#include <bit>
#include <cstdint>

namespace qucp {

namespace {

/// Positional tag for (op, param) of the prepared circuit: small exact
/// integers survive routing bit-for-bit and decode uniquely. Stride 4
/// covers the widest parameter list in the gate set (U3's 3 angles).
constexpr std::size_t kTagStride = 4;

double encode_tag(std::size_t op, std::size_t param) {
  return static_cast<double>(op * kTagStride + param + 1);
}

bool decode_tag(double tag, std::size_t num_ops, std::size_t& op,
                std::size_t& param) {
  if (!(tag >= 1.0) || tag > static_cast<double>(num_ops * kTagStride)) {
    return false;
  }
  const auto t = static_cast<std::uint64_t>(tag);
  if (static_cast<double>(t) != tag) return false;  // non-integer tag
  op = static_cast<std::size_t>((t - 1) / kTagStride);
  param = static_cast<std::size_t>((t - 1) % kTagStride);
  return true;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::optional<TranspileTemplate> TranspileTemplate::build(
    const Circuit& logical, const Device& device,
    std::span<const int> partition, const TranspileOptions& options) {
  TranspileTemplate tmpl;
  tmpl.binding0 = ParamBinding(logical).values;

  OptimizeTrace trace;
  // Input ops read binding slots directly, in circuit order.
  std::vector<std::vector<std::uint32_t>> logical_exprs;
  logical_exprs.reserve(logical.size());
  std::int32_t slot = 0;
  for (const Gate& g : logical.ops()) {
    std::vector<std::uint32_t> ids;
    ids.reserve(g.params.size());
    for (std::size_t j = 0; j < g.params.size(); ++j) {
      ids.push_back(trace.leaf(slot++));
    }
    logical_exprs.push_back(std::move(ids));
  }

  // Stage A: input peephole (traced — mirrors transpile_to_partition).
  Circuit prepared;
  std::vector<std::vector<std::uint32_t>> prepared_exprs;
  if (options.optimize_input) {
    prepared = optimize_traced(logical, logical_exprs, trace);
    prepared_exprs = std::move(trace.out_exprs);
    trace.out_exprs.clear();
  } else {
    prepared = logical;
    prepared_exprs = std::move(logical_exprs);
  }

  // Stage B: placement + routing, both parameter-blind. Route the real
  // prepared circuit for the result, and a positionally tagged copy to
  // recover which prepared parameter each routed parameter came from
  // (routing may reorder commuting layers relative to op index).
  const std::vector<int> layout =
      initial_layout(prepared, device, partition, options.placement);
  RoutingResult routed = route_on_partition(prepared, device, partition,
                                            layout, options.router);
  Circuit tagged = prepared;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    for (std::size_t j = 0; j < prepared.ops()[i].params.size(); ++j) {
      tagged.set_param(i, j, encode_tag(i, j));
    }
  }
  const RoutingResult tagged_routed = route_on_partition(
      tagged, device, partition, layout, options.router);

  // Decode provenance, validating that the tagged route replayed the real
  // one gate-for-gate. Any mismatch means the router was not actually
  // parameter-blind on this input — refuse the template rather than risk a
  // wrong bind.
  const auto& real_ops = routed.physical.ops();
  const auto& tag_ops = tagged_routed.physical.ops();
  if (tag_ops.size() != real_ops.size()) return std::nullopt;
  std::vector<std::vector<std::uint32_t>> routed_exprs(real_ops.size());
  for (std::size_t i = 0; i < real_ops.size(); ++i) {
    const Gate& r = real_ops[i];
    const Gate& t = tag_ops[i];
    if (t.kind != r.kind || t.qubits != r.qubits ||
        t.params.size() != r.params.size()) {
      return std::nullopt;
    }
    routed_exprs[i].reserve(r.params.size());
    for (std::size_t j = 0; j < r.params.size(); ++j) {
      std::size_t src_op = 0;
      std::size_t src_param = 0;
      if (!decode_tag(t.params[j], prepared.size(), src_op, src_param)) {
        return std::nullopt;
      }
      if (src_op >= prepared.size() ||
          src_param >= prepared.ops()[src_op].params.size() ||
          !same_bits(r.params[j], prepared.ops()[src_op].params[src_param])) {
        return std::nullopt;
      }
      routed_exprs[i].push_back(prepared_exprs[src_op][src_param]);
    }
  }

  // Stage C: output peephole (traced, same DAG — merges compose).
  tmpl.result.initial_layout = layout;
  tmpl.result.final_layout = std::move(routed.final_layout);
  tmpl.result.swaps_added = routed.swaps_added;
  if (options.optimize_output) {
    tmpl.result.physical = optimize_traced(routed.physical, routed_exprs,
                                           trace);
    tmpl.phys_exprs = std::move(trace.out_exprs);
  } else {
    tmpl.result.physical = std::move(routed.physical);
    tmpl.phys_exprs = std::move(routed_exprs);
  }
  tmpl.nodes = std::move(trace.nodes);
  tmpl.checks = std::move(trace.checks);
  return tmpl;
}

std::optional<TranspiledProgram> TranspileTemplate::bind(
    std::span<const double> binding) const {
  if (binding.size() != binding0.size()) return std::nullopt;

  // Evaluate the DAG in creation order — the same additions, in the same
  // order, the traced optimize performed, so values are bit-identical to a
  // from-scratch transpile of the bound circuit. Typical ansatz DAGs are
  // small; keep the evaluation buffer on the stack for them.
  constexpr std::size_t kStackNodes = 256;
  double stack_vals[kStackNodes];
  std::vector<double> heap_vals;
  double* vals = stack_vals;
  if (nodes.size() > kStackNodes) {
    heap_vals.resize(nodes.size());
    vals = heap_vals.data();
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ParamExpr& e = nodes[i];
    switch (e.kind) {
      case ParamExpr::Kind::Slot:
        vals[i] = binding[static_cast<std::size_t>(e.slot)];
        break;
      case ParamExpr::Kind::Add:
        vals[i] = vals[e.a] + vals[e.b];
        break;
      case ParamExpr::Kind::Const:
        vals[i] = e.value;
        break;
    }
  }

  // The optimizer's control flow is structure plus these decisions; a new
  // binding must take every recorded branch the same way to reuse the
  // template's structure.
  for (const ParamCheck& c : checks) {
    if (angle_is_identity(vals[c.node]) != c.identity) return std::nullopt;
  }

  TranspiledProgram out = result;
  for (std::size_t i = 0; i < phys_exprs.size(); ++i) {
    for (std::size_t j = 0; j < phys_exprs[i].size(); ++j) {
      out.physical.patch_param(i, j, vals[phys_exprs[i][j]]);
    }
  }
  out.physical.invalidate_fingerprints();
  return out;
}

}  // namespace qucp

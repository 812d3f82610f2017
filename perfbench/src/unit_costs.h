// Unit costs of single engine operations, timed through each module's
// public interface. The host-time ledger multiplies them by the run's
// operation counts.
#pragma once

namespace perfbench {

struct UnitCosts {
  double fiber_switch_ns = 0;  // one Fiber::resume: switch in and back out
  double route_lookup_ns = 0;  // RoutingTable::next_hop, 1024-core mesh
  double hop_ns = 0;           // Network::send per hop, 1024-core mesh
  double route_build_s = 0;    // RoutingTable for a 1024-core mesh
  double l1_access_ns = 0;     // PessimisticL1::access
  double setassoc_access_ns = 0;  // SetAssocCache::access
  double block_ns = 0;         // CostModel::block_cost
};

/// Each cost is the median of several timed batches.
[[nodiscard]] UnitCosts measure_unit_costs();

}  // namespace perfbench

#include "unit_costs.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/fiber.h"
#include "core/rng.h"
#include "mem/pessimistic_l1.h"
#include "mem/setassoc_cache.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/topology.h"
#include "spans.h"
#include "timing/cost_model.h"

namespace perfbench {

using namespace simany;

namespace {

constexpr int kBatches = 7;
constexpr std::uint32_t kMeshCores = 1024;

/// Keeps `v` alive so the compiler cannot drop the work producing it.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Median over batches of nanoseconds per unit; `batch` runs one batch
/// and returns how many units it did.
template <class F>
double ns_per_unit(F&& batch) {
  batch();  // warm-up
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    const double units = static_cast<double>(batch());
    per.push_back(seconds_since(t0) * 1e9 / units);
  }
  return median(std::move(per));
}

}  // namespace

UnitCosts measure_unit_costs() {
  UnitCosts u;
  const net::Topology mesh = net::Topology::mesh2d(kMeshCores);

  {
    FiberPool pool(64 * 1024);
    bool stop = false;
    auto fiber = pool.create([&] {
      while (!stop) Fiber::yield();
    });
    u.fiber_switch_ns = ns_per_unit([&] {
      constexpr int kOps = 100000;
      for (int i = 0; i < kOps; ++i) fiber->resume();
      return kOps;
    });
    stop = true;
    fiber->resume();
  }

  {
    const net::RoutingTable table(mesh);
    u.route_lookup_ns = ns_per_unit([&] {
      constexpr std::uint32_t kOps = 1000000;
      for (std::uint32_t i = 0; i < kOps; ++i) {
        keep(table.next_hop(i % kMeshCores, (i * 37 + 11) % kMeshCores));
      }
      return kOps;
    });
  }

  {
    net::Network network(mesh);
    Tick t = 0;
    std::uint32_t i = 0;
    u.hop_ns = ns_per_unit([&] {
      const std::uint64_t hops0 = network.stats().hops;
      for (int k = 0; k < 20000; ++k, ++i, t += 12) {
        keep(network.send(i % kMeshCores, (i * 37 + 11) % kMeshCores, 64, t));
      }
      return network.stats().hops - hops0;
    });
  }

  u.route_build_s = ns_per_unit([&] {
                      const net::RoutingTable table(mesh);
                      keep(table.hops(0, kMeshCores - 1));
                      return 1;
                    }) *
                    1e-9;

  {
    mem::PessimisticL1 l1(32);
    u.l1_access_ns = ns_per_unit([&] {
      constexpr int kOps = 1000000;
      std::uint64_t addr = 0;
      for (int i = 0; i < kOps; ++i) {
        keep(l1.access(addr, 8));
        addr += 8;
        if (addr > 64 * 1024) {
          l1.flush();
          addr = 0;
        }
      }
      return kOps;
    });
  }

  {
    mem::SetAssocCache cache({16 * 1024, 32, 4});
    u.setassoc_access_ns = ns_per_unit([&] {
      constexpr int kOps = 1000000;
      std::uint64_t addr = 0;
      for (int i = 0; i < kOps; ++i) {
        keep(cache.access(addr, false));
        addr = addr * 1664525 + 1013904223;  // pseudo-random walk
      }
      return kOps;
    });
  }

  {
    timing::CostModel model;
    Rng rng(7);
    const timing::InstMix mix{.int_alu = 12, .int_mul = 2, .fp_alu = 4,
                              .fp_mul_div = 1, .branches = 3,
                              .branches_static = 1};
    u.block_ns = ns_per_unit([&] {
      constexpr int kOps = 1000000;
      for (int i = 0; i < kOps; ++i) keep(model.block_cost(mix, rng));
      return kOps;
    });
  }
  return u;
}

}  // namespace perfbench

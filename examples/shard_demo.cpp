// Shard coordinator walkthrough: one query whose N exceeds any single
// device in the pool.
//
// A 4-device pool with per-device capacity capped at 2^22 keys faces a
// query of N = 2^26 — sixteen device-loads of data.  No single-device plan
// can serve it; the shard coordinator splits it into 16 shards (4 rounds
// over the pool), runs the ordinary per-shard selection through the cached
// plan / pooled workspace layer, gathers each shard's candidates with one
// packed copy, and reduces them where merge_site() prices it cheapest: on
// the host for a few thousand candidates, with the hierarchical device-side
// merge beyond that (16 x 256 = 4096 here).  The result is exact —
// verified here against the host reference — and the modeled timing shows
// where the microseconds go, per phase and per shard.
//
// The same query submitted to topk::serve engages the identical path
// automatically: the service notices N above the device ceiling and routes
// the request to its per-worker coordinator, no hint required.

#include <cstddef>
#include <iostream>
#include <random>
#include <vector>

#include "core/topk.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "simgpu/simgpu.hpp"

int main() {
  const std::size_t n = std::size_t{1} << 26;
  const std::size_t k = 256;

  std::vector<float> data(n);
  {
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> dist(-1000.f, 1000.f);
    for (float& v : data) v = dist(rng);
  }

  // A pool of four devices, each capped at 2^22 keys: the query is 16x too
  // large for any one of them.
  topk::shard::ShardConfig cfg;
  cfg.devices = 4;
  cfg.device_spec.max_select_elems = std::size_t{1} << 22;

  std::cout << "query: n=2^26 (" << n << " keys), k=" << k << "\n"
            << "pool:  " << cfg.devices << " devices, capacity 2^22 keys each"
            << " -> at least " << topk::shard::min_shards(n, cfg.device_spec)
            << " shards\n\n";

  topk::shard::Coordinator coord(cfg);
  const topk::shard::ShardedResult r = coord.select(data, k);

  const std::string err = topk::verify_topk(data, k, r.topk);
  std::cout << "result: " << (err.empty() ? "exact (host reference agrees)"
                                          : "WRONG: " + err)
            << "\n";
  std::cout << "shards: " << r.shards << " over " << r.devices
            << " devices (" << topk::algo_name(r.shard_algo)
            << " per shard)\n\n";

  std::cout << "modeled time: " << r.timing.total_us << " us\n"
            << "  select " << r.timing.select_us << " us (busiest device, "
            << (r.shards + r.devices - 1) / r.devices << " rounds)\n"
            << "  gather " << r.timing.gather_us
            << " us (one packed candidate D2H per shard)\n"
            << "  merge  " << r.timing.merge_us << " us (on the "
            << topk::shard::merge_site_name(r.merge)
            << (r.merge == topk::shard::MergeSite::kDevice
                    ? ": candidate H2D + merge tree)\n"
                    : ": selection over the gathered candidates)\n")
            << "  output " << r.timing.output_us
            << " us (packed result D2H; 0 after a host merge)\n\n";

  std::cout << "per-shard breakdown (selection + gather, modeled):\n";
  for (std::size_t s = 0; s < r.shard_us.size(); ++s) {
    std::cout << "  shard " << (s < 10 ? " " : "") << s << " on device "
              << s % r.devices << ": " << r.shard_us[s] << " us\n";
  }
  std::cout << "plan cache: " << coord.plan_cache_hits() << " hits / "
            << coord.plan_cache_misses()
            << " misses (one per distinct shard shape, one for a device "
               "merge)"
            << "\n\n";

  if (!err.empty()) return 1;

  // ---- the serving layer reaches the same path on its own ----------------
  topk::serve::ServiceConfig scfg;
  scfg.device_spec.max_select_elems = std::size_t{1} << 22;
  scfg.shard_devices = 4;
  topk::serve::TopkService svc(scfg);
  auto fut = svc.submit(std::vector<float>(data), k);
  const topk::serve::QueryResult qr = fut.get();
  svc.shutdown();
  if (qr.status != topk::serve::QueryStatus::kOk || qr.shards == 0) {
    std::cerr << "serve path failed: " << qr.error << "\n";
    return 1;
  }
  std::cout << "through topk::serve: auto-engaged sharding (shards="
            << qr.shards << "), modeled " << qr.device_us << " us, "
            << topk::algo_name(qr.algo) << " per shard\n";
  return 0;
}

#include "shard/shard.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "topk/common.hpp"
#include "topk/key_codec.hpp"
#include "topk/key_order.hpp"
#include "topk/partial_sort_common.hpp"

namespace topk::shard {

namespace {

/// Shard-boundary validation with messages that diagnose on their own (the
/// serving layer surfaces them to clients verbatim).
void validate_query(std::size_t n, std::size_t k) {
  std::ostringstream err;
  if (n == 0) {
    err << "sharded_select: n must be > 0";
  } else if (k == 0 || k > n) {
    err << "sharded_select: k must be in [1, n], got k=" << k << " n=" << n;
  } else if (k > kMaxSelectionK) {
    err << "sharded_select: k=" << k << " exceeds the cross-shard merge's "
        << kMaxSelectionK << " candidate-list limit";
  } else if (n > std::numeric_limits<std::uint32_t>::max()) {
    err << "sharded_select: n=" << n << " exceeds the 32-bit index space";
  } else {
    return;
  }
  throw std::invalid_argument(err.str());
}

/// Bytes of one packed result copy: k values followed by k indices (or,
/// after a device merge, k positions into the candidate array).
std::size_t packed_bytes(std::size_t k) {
  return 2 * k * sizeof(std::uint32_t);
}

/// The host merge over m candidates, as the one host step it is booked as.
simgpu::HostComputeEvent host_merge_event(std::size_t m) {
  return {"shard host merge", host_merge_ops(m)};
}

/// Modeled time of an event sequence on one device under `spec`.
double priced_us(const simgpu::DeviceSpec& spec, simgpu::EventLog log) {
  return simgpu::CostModel(spec).total_us(log);
}

}  // namespace

const char* merge_site_name(MergeSite site) {
  switch (site) {
    case MergeSite::kHost:
      return "host";
    case MergeSite::kDevice:
      return "device";
    case MergeSite::kNone:
      return "none";
  }
  return "none";
}

std::uint64_t host_merge_ops(std::size_t m) {
  // m * ceil(log2 m); bit_width(m - 1) is ceil(log2 m) for m >= 1.
  return m == 0 ? 0 : m * static_cast<std::uint64_t>(std::bit_width(m - 1));
}

MergeSite merge_site(std::size_t shards, std::size_t k,
                     const simgpu::DeviceSpec& spec) {
  if (shards <= 1) return MergeSite::kNone;
  const std::size_t m = shards * k;
  // The cheapest device merge there could be: the candidate upload, one
  // launch that does no work (min_kernel_duration_us) and the packed result
  // download.  The real ShardMerge plan only costs more.
  simgpu::KernelStats no_work;
  no_work.name = "ShardMerge floor";
  no_work.grid_blocks = 1;
  no_work.block_threads = 32;
  simgpu::EventLog device;
  device.emplace_back(simgpu::MemcpyEvent{
      simgpu::MemcpyEvent::Dir::kHostToDevice, m * sizeof(float), {}});
  device.emplace_back(simgpu::KernelEvent{no_work});
  device.emplace_back(simgpu::MemcpyEvent{
      simgpu::MemcpyEvent::Dir::kDeviceToHost, packed_bytes(k), {}});
  return priced_us(spec, {host_merge_event(m)}) <= priced_us(spec, device)
             ? MergeSite::kHost
             : MergeSite::kDevice;
}

std::size_t min_shards(std::size_t n, const simgpu::DeviceSpec& spec) {
  const std::size_t cap = std::max<std::size_t>(1, spec.max_select_elems);
  return std::max<std::size_t>(1, (n + cap - 1) / cap);
}

std::size_t max_shards(std::size_t n, std::size_t k) {
  return std::max<std::size_t>(1, n / std::max<std::size_t>(1, k));
}

double estimated_sharded_cost_us(Algo algo, std::size_t shards,
                                 std::size_t devices, std::size_t n,
                                 std::size_t k,
                                 const simgpu::DeviceSpec& spec) {
  shards = std::max<std::size_t>(1, shards);
  devices = std::max<std::size_t>(1, devices);
  const std::size_t n_shard = (n + shards - 1) / shards;
  if (algo == Algo::kAuto) {
    WorkloadHints hints;
    hints.shards = shards;
    algo = recommend_algorithm(n, k, hints);
  }
  const double rounds =
      static_cast<double>((shards + devices - 1) / devices);
  const double lat = spec.pcie_latency_us;
  const double bw = spec.pcie_bytes_per_us();
  const double packed_copy_us =
      lat + static_cast<double>(packed_bytes(k)) / bw;
  // Selection and gather: shards run device-parallel, rounds serialize, and
  // every shard pays one packed copy on its device (for one shard, that
  // copy is the result transfer).
  double cost =
      rounds * (estimated_batch_cost_us(algo, 1, n_shard, k) + packed_copy_us);
  const std::size_t m = shards * k;
  switch (merge_site(shards, k, spec)) {
    case MergeSite::kNone:
      break;
    case MergeSite::kHost:
      cost += priced_us(spec, {host_merge_event(m)});
      break;
    case MergeSite::kDevice:
      // Candidate H2D to device 0, the merge tree, packed result D2H.
      cost += lat + static_cast<double>(m * sizeof(float)) / bw +
              estimated_batch_cost_us(Algo::kShardMerge, 1, m, k) +
              packed_copy_us;
      break;
  }
  return cost;
}

std::size_t recommend_shards(std::size_t n, std::size_t k,
                             std::size_t devices,
                             const simgpu::DeviceSpec& spec) {
  validate_query(n, k);
  devices = std::max<std::size_t>(1, devices);
  const std::size_t lo = min_shards(n, spec);
  const std::size_t hi = max_shards(n, k);
  if (lo > hi) {
    std::ostringstream err;
    err << "recommend_shards: k=" << k << " does not fit a device-sized "
        << "shard (every shard holds at most " << spec.max_select_elems
        << " of n=" << n << " keys but must hold at least k)";
    throw std::invalid_argument(err.str());
  }
  std::size_t best = lo;
  double best_cost = std::numeric_limits<double>::infinity();
  // Race the feasibility floor (the unsharded candidate when lo == 1) and
  // its doublings; stop once shards far outnumber the pool — past that the
  // round count grows linearly and nothing can win.
  for (std::size_t s = lo; s <= hi; s *= 2) {
    const double cost = estimated_sharded_cost_us(Algo::kAuto, s, devices, n,
                                                  k, spec);
    if (cost < best_cost) {
      best = s;
      best_cost = cost;
    }
    if (s > 8 * devices) break;
  }
  return best;
}

ShardedPlan plan_sharded(const simgpu::DeviceSpec& spec, std::size_t n,
                         std::size_t k, std::size_t shards, Algo algo,
                         const SelectOptions& opt, std::size_t devices) {
  validate_query(n, k);
  shards = std::clamp(
      shards == 0 ? recommend_shards(n, k, devices, spec) : shards,
      min_shards(n, spec), max_shards(n, k));
  if (algo == Algo::kAuto) {
    WorkloadHints hints;
    hints.shards = shards;
    algo = recommend_algorithm(n, k, hints);
  }

  ShardedPlan sp;
  sp.shards = shards;
  sp.n = n;
  sp.k = k;
  sp.shard_algo = algo;
  sp.merge = merge_site(shards, k, spec);
  // Shards and the merge plan in the query's direction.
  SelectOptions shard_opt;
  shard_opt.greatest = opt.greatest;
  // block_chunk yields at most two distinct shard lengths (base + 1 for the
  // leading remainder chunks, base for the rest) — the first and last shard
  // between them exhibit both.
  std::size_t prev_len = 0;
  for (const std::size_t s :
       {std::size_t{0}, shards - 1}) {
    const auto [begin, end] =
        topk::block_chunk(n, static_cast<int>(shards), static_cast<int>(s));
    const std::size_t len = end - begin;
    if (len == prev_len) continue;
    prev_len = len;
    std::ostringstream label;
    label << "shard " << algo_key(algo) << " n=" << len << " k=" << k;
    sp.plans.emplace_back(label.str(),
                          plan_select(spec, 1, len, k, algo, shard_opt));
  }
  if (sp.merge == MergeSite::kDevice) {
    std::ostringstream label;
    label << "merge shard-merge n=" << shards * k << " k=" << k;
    sp.plans.emplace_back(
        label.str(),
        plan_select(spec, 1, shards * k, k, Algo::kShardMerge, shard_opt));
  }
  return sp;
}

struct Coordinator::DeviceSlot {
  simgpu::Device dev;
  simgpu::Workspace ws;
  simgpu::DeviceBuffer<float> in;
  /// One contiguous 2·out_cap-word block; a query with k <= out_cap uses
  /// its first 2k words as (k values | k indices), so one copy moves both.
  simgpu::DeviceBuffer<std::uint32_t> out;
  simgpu::DeviceBuffer<float> merge_in;  ///< slot 0 only
  std::size_t in_cap = 0;
  std::size_t out_cap = 0;
  std::size_t merge_cap = 0;

  /// The packed result block of a k-selection.
  [[nodiscard]] simgpu::DeviceBuffer<std::uint32_t> packed(std::size_t k) const {
    return out.subspan(0, 2 * k);
  }

  explicit DeviceSlot(const simgpu::DeviceSpec& spec) : dev(spec), ws(dev) {}
};

Coordinator::Coordinator(const ShardConfig& cfg) : cfg_(cfg) {
  cfg_.devices = std::max<std::size_t>(1, cfg_.devices);
  slots_.reserve(cfg_.devices);
  for (std::size_t d = 0; d < cfg_.devices; ++d) {
    slots_.push_back(std::make_unique<DeviceSlot>(cfg_.device_spec));
  }
}

Coordinator::~Coordinator() = default;

ShardedResult Coordinator::select(std::span<const float> data, std::size_t k,
                                  std::size_t shards, Algo algo) {
  const std::size_t n = data.size();
  validate_query(n, k);

  const simgpu::DeviceSpec& spec = cfg_.device_spec;
  const std::size_t lo = min_shards(n, spec);
  const std::size_t hi = max_shards(n, k);
  if (lo > hi) {
    std::ostringstream err;
    err << "sharded_select: k=" << k << " does not fit a device-sized shard "
        << "(per-device capacity " << spec.max_select_elems << " keys, n="
        << n << ")";
    throw std::invalid_argument(err.str());
  }
  if (shards == 0) shards = cfg_.shards;
  const std::size_t S = std::clamp(
      shards != 0 ? shards : recommend_shards(n, k, slots_.size(), spec), lo,
      hi);

  if (algo == Algo::kAuto) algo = cfg_.algo;
  if (algo == Algo::kAuto) {
    WorkloadHints hints;
    hints.shards = S;
    algo = recommend_algorithm(n, k, hints);
  }

  // Every plan of the query, the merge's included, selects in its
  // direction.
  const KeyOrder<float> ord(cfg_.options.greatest);
  SelectOptions shard_opt;
  shard_opt.greatest = ord.greatest();

  const std::size_t devices_used = std::min(S, slots_.size());
  const bool simcheck = simcheck_env_enabled();
  const simgpu::CostModel model(spec);
  for (std::size_t d = 0; d < devices_used; ++d) {
    if (simcheck && slots_[d]->dev.sanitizer() == nullptr) {
      slots_[d]->dev.enable_sanitizer();
    }
    slots_[d]->dev.clear_events();
  }

  const auto plan_for = [&](std::size_t pn, Algo palgo) -> const ExecutionPlan& {
    const auto key = std::make_tuple(pn, k, palgo);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++plan_hits_;
      return it->second;
    }
    ++plan_misses_;
    return plans_.emplace(key, plan_select(spec, 1, pn, k, palgo, shard_opt))
        .first->second;
  };

  ShardedResult res;
  res.shards = S;
  res.devices = devices_used;
  res.shard_algo = algo;
  res.shard_us.resize(S, 0.0);

  // ---- phase 1: per-shard selection + one packed gather per shard --------
  // Shard s's candidates land at gathered[s·2k, (s+1)·2k): k value words,
  // then k indices (rebased to the query below).
  const std::size_t w = 2 * k;
  std::vector<std::uint32_t> gathered(S * w);
  std::vector<double> dev_select_us(devices_used, 0.0);
  std::vector<double> dev_gather_us(devices_used, 0.0);
  for (std::size_t s = 0; s < S; ++s) {
    const auto [begin, end] =
        topk::block_chunk(n, static_cast<int>(S), static_cast<int>(s));
    const std::size_t len = end - begin;
    DeviceSlot& slot = *slots_[s % devices_used];
    if (slot.in_cap < len) {
      slot.in = slot.dev.alloc<float>(len, "shard input");
      slot.in_cap = len;
    }
    if (slot.out_cap < k) {
      slot.out = slot.dev.alloc<std::uint32_t>(2 * k, "shard out (vals | idx)");
      slot.out_cap = k;
    }
    const ExecutionPlan& plan = plan_for(len, algo);
    // Scatter is an unrecorded upload: like the paper's measured regions
    // (and select()'s own staging), a shard's timed region starts with its
    // slice resident on the device.
    slot.dev.upload(slot.in, data.subspan(begin, len));
    simgpu::Sanitizer* const san = slot.dev.sanitizer();
    const std::size_t issues_before = san != nullptr ? san->issue_count() : 0;
    const double before = model.total_us(slot.dev.events());
    const simgpu::DeviceBuffer<std::uint32_t> out = slot.packed(k);
    run_select(slot.dev, plan, slot.ws, slot.in,
               out.subspan(0, k).as<float>(), out.subspan(k, k));
    const double selected = model.total_us(slot.dev.events());
    slot.dev.copy_to_host(
        out, std::span<std::uint32_t>(gathered).subspan(s * w, w),
        "shard gather");
    const double gathered_at = model.total_us(slot.dev.events());
    res.shard_us[s] = gathered_at - before;
    dev_select_us[s % devices_used] += selected - before;
    dev_gather_us[s % devices_used] += gathered_at - selected;
    if (san != nullptr) throw_if_new_issues(*san, issues_before, algo);
    // Rebase shard-local indices into the query's index space host-side.
    const auto base = static_cast<std::uint32_t>(begin);
    for (std::size_t i = 0; i < k; ++i) gathered[s * w + k + i] += base;
  }
  // Devices run concurrently: each phase costs its busiest device.
  for (std::size_t d = 0; d < devices_used; ++d) {
    res.timing.select_us = std::max(res.timing.select_us, dev_select_us[d]);
    res.timing.gather_us = std::max(res.timing.gather_us, dev_gather_us[d]);
  }
  // Candidate c (shard c / k, rank c % k) in the gathered blocks.
  const auto value_bits = [&](std::size_t c) {
    return gathered[c / k * w + c % k];
  };
  const auto index_of = [&](std::size_t c) {
    return gathered[c / k * w + k + c % k];
  };

  // ---- phase 2: cross-shard merge where merge_site() puts it -------------
  const std::size_t nm = S * k;
  res.merge = merge_site(S, k, spec);
  res.topk.values.resize(k);
  res.topk.indices.resize(k);
  DeviceSlot& m = *slots_[0];
  switch (res.merge) {
    case MergeSite::kNone:
      for (std::size_t i = 0; i < k; ++i) {
        res.topk.values[i] = std::bit_cast<float>(value_bits(i));
        res.topk.indices[i] = index_of(i);
      }
      // Unsharded: the gather copy IS the final result transfer.
      res.timing.output_us = res.timing.gather_us;
      res.timing.gather_us = 0.0;
      break;
    case MergeSite::kHost: {
      // The host already holds every candidate.  Keys pack (key ordinal
      // << 32 | query index): a total order on the float carrier that is
      // deterministic under ties and well-defined for NaN.
      std::vector<std::uint64_t> keys(nm);
      for (std::size_t c = 0; c < nm; ++c) {
        keys[c] = ord.pack(std::bit_cast<float>(value_bits(c)), index_of(c));
      }
      std::nth_element(keys.begin(), keys.begin() + static_cast<long>(k - 1),
                       keys.end());
      for (std::size_t i = 0; i < k; ++i) {
        res.topk.values[i] = ord.unpack(keys[i]);
        res.topk.indices[i] = static_cast<std::uint32_t>(keys[i]);
      }
      const double before = model.total_us(m.dev.events());
      const simgpu::HostComputeEvent step = host_merge_event(nm);
      m.dev.host_compute(step.label, step.host_ops);
      res.timing.merge_us = model.total_us(m.dev.events()) - before;
      break;
    }
    case MergeSite::kDevice: {
      if (m.merge_cap < nm) {
        m.merge_in = m.dev.alloc<float>(nm, "shard merge candidates");
        m.merge_cap = nm;
      }
      std::vector<float> cand_vals(nm);
      for (std::size_t c = 0; c < nm; ++c) {
        cand_vals[c] = std::bit_cast<float>(value_bits(c));
      }
      const ExecutionPlan& mplan = plan_for(nm, Algo::kShardMerge);
      simgpu::Sanitizer* const san = m.dev.sanitizer();
      const std::size_t issues_before =
          san != nullptr ? san->issue_count() : 0;
      const double before = model.total_us(m.dev.events());
      m.dev.upload_recorded(m.merge_in, std::span<const float>(cand_vals),
                            "shard candidate gather");
      const simgpu::DeviceBuffer<std::uint32_t> out = m.packed(k);
      run_select(m.dev, mplan, m.ws, m.merge_in,
                 out.subspan(0, k).as<float>(), out.subspan(k, k));
      const double merged = model.total_us(m.dev.events());
      std::vector<std::uint32_t> result(w);
      m.dev.copy_to_host(out, std::span<std::uint32_t>(result),
                         "merged (vals | pos)");
      res.timing.merge_us = merged - before;
      res.timing.output_us = model.total_us(m.dev.events()) - merged;
      if (san != nullptr) {
        throw_if_new_issues(*san, issues_before, Algo::kShardMerge);
      }
      // The merge ranks the candidate array and returns positions into it;
      // map those back through the gathered (already rebased) indices.
      for (std::size_t i = 0; i < k; ++i) {
        res.topk.values[i] = std::bit_cast<float>(result[i]);
        res.topk.indices[i] = index_of(result[k + i]);
      }
      break;
    }
  }

  if (cfg_.options.sorted) {
    std::vector<std::uint32_t> order;
    sort_result_best_first(res.topk, cfg_.options.greatest, order);
  }
  res.timing.total_us = res.timing.select_us + res.timing.gather_us +
                        res.timing.merge_us + res.timing.output_us;
  return res;
}

ShardedResult Coordinator::select_typed(KeyView keys, std::size_t k,
                                        PayloadView payload,
                                        std::size_t shards, Algo algo) {
  if (key_type_is_integer(keys.dtype)) {
    std::ostringstream err;
    err << "sharded_select: dtype " << key_type_name(keys.dtype)
        << " is not supported by the float-carrier shard pipeline (use the "
           "streaming tier, Algo::kStreamRadix, for integer keys)";
    throw std::invalid_argument(err.str());
  }
  if (payload.present() && payload.size != keys.size) {
    std::ostringstream err;
    err << "sharded_select: payload holds " << payload.size
        << " entries but must cover every key (n=" << keys.size << ")";
    throw std::invalid_argument(err.str());
  }
  ShardedResult res;
  if (keys.dtype == KeyType::kF32) {
    res = select(std::span<const float>(
                     static_cast<const float*>(keys.data), keys.size),
                 k, shards, algo);
  } else {
    // Encode to the exact float carrier (the 16-bit radix ordinal) so the
    // shards and the merge see a totally ordered float stream; decoded back
    // after the merge.  Carrier order is key order, so either direction
    // selects the same keys on the carriers as on the keys.
    typed_stage_.resize(keys.size);
    codec::encode_keys_f32(keys, typed_stage_.data());
    res = select(std::span<const float>(typed_stage_), k, shards, algo);
    codec::decode_result_f32(keys.dtype, res.topk);
  }
  if (payload.present()) {
    res.topk.payload.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      res.topk.payload[i] = codec::payload_at(payload, res.topk.indices[i]);
    }
  }
  return res;
}

ShardedResult sharded_select(std::span<const float> data, std::size_t k,
                             const ShardConfig& cfg) {
  Coordinator coord(cfg);
  return coord.select(data, k);
}

}  // namespace topk::shard

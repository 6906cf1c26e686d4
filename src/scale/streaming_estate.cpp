#include "scale/streaming_estate.h"

#include <algorithm>
#include <stdexcept>

#include "runtime/thread_pool.h"

namespace vmcw {

namespace {

Rng master_for(const WorkloadSpec& spec, std::uint64_t seed) {
  // The same root-and-fork generate_datacenter performs; this is the one
  // sanctioned root Rng of the streaming path.
  Rng root(seed);  // vmcw-lint: allow(rng-construction) streaming estate replays generate_datacenter's root
  return root.fork(spec.name + "/" + spec.industry);
}

}  // namespace

StreamingEstate::StreamingEstate(WorkloadSpec spec, std::uint64_t seed)
    : StreamingEstate(std::move(spec), seed, Options{}) {}

StreamingEstate::StreamingEstate(WorkloadSpec spec, std::uint64_t seed,
                                 Options options)
    : spec_(std::move(spec)),
      options_(options),
      master_(master_for(spec_, seed)) {
  options_.block_servers = std::max<std::size_t>(1, options_.block_servers);
  options_.max_resident_servers =
      std::max(options_.max_resident_servers, options_.block_servers);

  Rng fleet_rng = master_.fork("fleet-events");
  fleet_bursts_ = generate_fleet_events(spec_, fleet_rng);

  // Plan pass: generate_datacenter's pass 1 without the context draws.
  // Each app's size and class come off its own keyed stream, so stopping
  // early on that stream is invisible to every other draw.
  const int target = std::max(spec_.num_servers, 0);
  int produced = 0;
  while (produced < target) {
    const AppDraw app = draw_app(spec_, master_, apps_.size());
    AppSpan span;
    span.first_server = static_cast<std::size_t>(produced);
    span.servers =
        static_cast<std::size_t>(std::min(app.size, target - produced));
    span.klass = app.klass;
    apps_.push_back(span);
    produced += static_cast<int>(span.servers);
  }
  server_count_ = static_cast<std::size_t>(produced);
}

AppContext StreamingEstate::app_context(std::size_t app) const {
  AppDraw draw = draw_app(spec_, master_, app);
  return make_app_context(spec_, apps_[app].klass, draw.rng, fleet_bursts_);
}

const ServerTrace& StreamingEstate::server(std::size_t index) {
  if (index >= server_count_)
    throw std::out_of_range("StreamingEstate::server: index out of range");
  const std::size_t block = index / options_.block_servers;
  Block& b = ensure_block(block);
  b.last_used = ++clock_;
  return b.servers[index - block * options_.block_servers];
}

StreamingEstate::Block& StreamingEstate::ensure_block(std::size_t block) {
  const auto it = blocks_.find(block);
  if (it != blocks_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;

  const std::size_t begin = block * options_.block_servers;
  const std::size_t end =
      std::min(begin + options_.block_servers, server_count_);

  // Make room first so the ceiling bounds peak residency, not post-hoc.
  evict_down_to(options_.max_resident_servers >= (end - begin)
                    ? options_.max_resident_servers - (end - begin)
                    : 0);

  // Apps cover contiguous server ranges, so the block's apps are a
  // contiguous run; rebuild each context once per block.
  const auto first_app = static_cast<std::size_t>(
      std::distance(apps_.begin(),
                    std::upper_bound(apps_.begin(), apps_.end(), begin,
                                     [](std::size_t s, const AppSpan& a) {
                                       return s < a.first_server + a.servers;
                                     })));
  std::vector<AppContext> contexts;
  std::vector<std::size_t> app_of(end - begin);
  for (std::size_t app = first_app;
       app < apps_.size() && apps_[app].first_server < end; ++app) {
    contexts.push_back(app_context(app));
    const AppSpan& span = apps_[app];
    const std::size_t lo = std::max(span.first_server, begin);
    const std::size_t hi = std::min(span.first_server + span.servers, end);
    for (std::size_t s = lo; s < hi; ++s)
      app_of[s - begin] = contexts.size() - 1;
  }

  // generate_datacenter's pass 2 restricted to this block: per-server keyed
  // streams, each slot written by exactly one task.
  Block fresh;
  fresh.servers.resize(end - begin);
  parallel_for(0, end - begin, [&](std::size_t i) {
    const std::size_t s = begin + i;
    const std::size_t app = first_app + app_of[i];
    const std::string id = spec_.name + "-srv-" + std::to_string(s + 1);
    Rng server_rng = master_.fork(id);
    fresh.servers[i] = generate_server(spec_, apps_[app].klass, id, server_rng,
                                       &contexts[app_of[i]]);
    fresh.servers[i].app = spec_.name + "-app-" + std::to_string(app);
  });
  generated_ += fresh.servers.size();
  return blocks_.emplace(block, std::move(fresh)).first->second;
}

void StreamingEstate::evict_down_to(std::size_t resident_ceiling) {
  while (!blocks_.empty() && resident_servers() > resident_ceiling) {
    auto oldest = blocks_.begin();
    for (auto it = std::next(blocks_.begin()); it != blocks_.end(); ++it)
      if (it->second.last_used < oldest->second.last_used) oldest = it;
    blocks_.erase(oldest);
  }
}

std::size_t StreamingEstate::resident_servers() const noexcept {
  std::size_t resident = 0;
  for (const auto& [block, b] : blocks_) resident += b.servers.size();
  return resident;
}

}  // namespace vmcw

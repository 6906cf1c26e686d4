#include "core/dynamic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/admission.h"
#include "core/binpack.h"
#include "core/capacity_index.h"
#include "core/predictor.h"

namespace vmcw {

namespace {

/// Planner state over affinity groups: groups are the atomic unit of
/// placement and migration.
class GroupModel {
 public:
  GroupModel(std::size_t vm_count, const ConstraintSet& constraints)
      : constraints_(constraints) {
    groups_ = placement_groups(vm_count, constraints);

    pinned_.resize(groups_.size(), Placement::kUnplaced);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      for (std::size_t vm : groups_[g]) {
        const std::int32_t p = constraints.pinned_host(vm);
        if (p != Placement::kUnplaced) pinned_[g] = p;
      }
      if (pinned_[g] != Placement::kUnplaced)
        pinned_bound_ = std::max(pinned_bound_,
                                 static_cast<std::size_t>(pinned_[g]) + 1);
    }
  }

  std::size_t count() const { return groups_.size(); }
  const std::vector<std::size_t>& members(std::size_t g) const {
    return groups_[g];
  }
  std::int32_t pinned_host(std::size_t g) const { return pinned_[g]; }
  /// 1 + the highest pinned host index (0 without pins).
  std::size_t pinned_host_bound() const { return pinned_bound_; }

  bool allowed_on(std::size_t g, std::int32_t host,
                  const Placement& placement) const {
    return constraints_.allows_group(groups_[g], host, placement);
  }

 private:
  const ConstraintSet& constraints_;
  std::vector<std::vector<std::size_t>> groups_;
  std::vector<std::int32_t> pinned_;
  std::size_t pinned_bound_ = 0;
};

/// Predicted sizes for the whole plan, filled VM by VM from one batch
/// prediction per VM over all intervals.
struct PredictedSizes {
  /// Row k holds every group's size in interval k, at [k * groups,
  /// (k + 1) * groups). Per entry the members are summed in the same order
  /// as a per-interval pass would.
  std::vector<ResourceVector> groups;
  /// Every VM's size in interval 0, for the initial packing.
  std::vector<ResourceVector> first_interval;
};

/// Groups per block of predict_sizes: a block's scratch columns are
/// accumulated in place, then written out as one short run per row.
constexpr std::size_t kBlockGroups = 32;

PredictedSizes predict_sizes(std::span<const VmWorkload> vms,
                             const GroupModel& model,
                             const PeakPredictor& predictor,
                             const StudySettings& settings) {
  const std::size_t groups = model.count();
  const std::size_t intervals = settings.intervals();
  PredictedSizes sizes;
  sizes.groups.resize(intervals * groups);
  sizes.first_interval.resize(vms.size());
  VmDemandPredictor vm_predictor(predictor);
  // Group-major scratch: column b holds group g0 + b over all intervals.
  std::vector<ResourceVector> block;
  for (std::size_t g0 = 0; g0 < groups; g0 += kBlockGroups) {
    const std::size_t width = std::min(kBlockGroups, groups - g0);
    block.assign(width * intervals, ResourceVector{});
    for (std::size_t b = 0; b < width; ++b) {
      ResourceVector* column = block.data() + b * intervals;
      for (std::size_t vm : model.members(g0 + b)) {
        vm_predictor.predict(vms[vm], settings.eval_begin(),
                             settings.interval_hours, intervals);
        for (std::size_t k = 0; k < intervals; ++k)
          column[k] += vm_predictor.at(k);
        if (intervals > 0) sizes.first_interval[vm] = vm_predictor.at(0);
      }
    }
    for (std::size_t k = 0; k < intervals; ++k)
      for (std::size_t b = 0; b < width; ++b)
        sizes.groups[k * groups + g0 + b] = block[b * intervals + k];
  }
  return sizes;
}

/// Incremental adaptation, one interval at a time. One adapter serves a
/// whole plan: reset() refills its buffers for the next interval.
class IntervalAdapter {
 public:
  IntervalAdapter(const GroupModel& model, const ResourceVector& capacity)
      : model_(model),
        capacity_(capacity),
        group_host_(model.count()),
        group_key_(model.count()) {}

  /// Rebuild host state from `previous` under this interval's group sizes
  /// (host of a group = host of its first member; all members share a host
  /// by construction). Host lists fill in ascending group order, and each
  /// load sums its groups in that order from zero, so every list, load and
  /// key is what a fresh adapter would build.
  void reset(std::span<const ResourceVector> group_sizes,
             const Placement& previous) {
    sizes_ = group_sizes;
    placement_ = previous;
    const std::size_t hosts =
        std::max(placement_.host_index_bound(), model_.pinned_host_bound());
    host_groups_.resize(hosts);
    for (auto& list : host_groups_) list.clear();
    host_load_.assign(hosts, ResourceVector{});
    key_.assign(hosts, 0.0);
    for (std::size_t g = 0; g < model_.count(); ++g) {
      group_key_[g] = normalized_load(sizes_[g], capacity_);
      const std::size_t vm0 = model_.members(g).front();
      const std::int32_t h = placement_.host_of(vm0);
      group_host_[g] = h;
      if (h != Placement::kUnplaced) {
        host_groups_[static_cast<std::size_t>(h)].push_back(g);
        host_load_[static_cast<std::size_t>(h)] += sizes_[g];
      }
    }
    by_load_.clear();
    for (std::size_t h = 0; h < hosts; ++h) {
      if (host_groups_[h].empty()) continue;
      key_[h] = normalized_load(host_load_[h], capacity_);
      by_load_.push_back(h);
    }
    std::sort(by_load_.begin(), by_load_.end(), load_order());
  }

  /// False when an evicted group has no host its constraints allow.
  bool adapt() {
    repair_overloaded_hosts();
    if (!place_pending()) return false;
    consolidate();
    return true;
  }

  Placement take_placement() { return std::move(placement_); }

 private:
  static constexpr std::size_t kNoHost =
      std::numeric_limits<std::size_t>::max();

  /// A drain trial's target as the trial would leave it: its load with
  /// the groups the trial has sent it so far, and the key of that load.
  struct Shadow {
    std::size_t host;
    ResourceVector load;
    double key;
  };

  /// A group in largest_first, with its key and its position in the input.
  struct Ranked {
    double key;
    std::size_t position;
    std::size_t group;
  };

  bool fits(std::size_t host, const ResourceVector& extra) const {
    return (host_load_[host] + extra).fits_within(capacity_);
  }

  /// by_load_'s order: normalized load descending, host index ascending
  /// among equal loads.
  static bool precedes(double key_a, std::size_t a, double key_b,
                       std::size_t b) {
    return key_a > key_b || (key_a == key_b && a < b);
  }
  struct LoadOrder {
    const std::vector<double>& key;
    bool operator()(std::size_t a, std::size_t b) const {
      return precedes(key[a], a, key[b], b);
    }
  };
  LoadOrder load_order() const { return {key_}; }

  /// `groups` largest first (stable: equal sizes keep their order), valid
  /// until the next call. Each entry carries its key and position, so an
  /// unstable sort under (key descending, position ascending) gives the
  /// stable permutation without the buffer std::stable_sort allocates.
  const std::vector<Ranked>& largest_first(
      const std::vector<std::size_t>& groups) {
    ranked_.clear();
    for (std::size_t i = 0; i < groups.size(); ++i)
      ranked_.push_back({group_key_[groups[i]], i, groups[i]});
    std::sort(ranked_.begin(), ranked_.end(),
              [](const Ranked& a, const Ranked& b) {
                return a.key > b.key ||
                       (a.key == b.key && a.position < b.position);
              });
    return ranked_;
  }

  /// Remove `host` from by_load_; key_[host] must be the key it was listed
  /// under.
  void unlist(std::size_t host) {
    by_load_.erase(std::lower_bound(by_load_.begin(), by_load_.end(), host,
                                    load_order()));
  }

  /// Key `host` by its current load and insert it into by_load_.
  void enlist(std::size_t host) {
    key_[host] = normalized_load(host_load_[host], capacity_);
    by_load_.insert(std::lower_bound(by_load_.begin(), by_load_.end(), host,
                                     load_order()),
                    host);
  }

  /// Put every member of group `g` on `host` (kUnplaced: on none) in
  /// placement_, the state the constraint checks read.
  void assign_members(std::size_t g, std::int32_t host) {
    for (std::size_t vm : model_.members(g)) placement_.assign(vm, host);
  }

  void detach(std::size_t g) {
    const std::int32_t h = group_host_[g];
    if (h == Placement::kUnplaced) return;
    const auto host = static_cast<std::size_t>(h);
    unlist(host);
    auto& list = host_groups_[host];
    list.erase(std::remove(list.begin(), list.end(), g), list.end());
    host_load_[host] -= sizes_[g];
    if (!list.empty()) enlist(host);
    group_host_[g] = Placement::kUnplaced;
    assign_members(g, Placement::kUnplaced);
  }

  void attach(std::size_t g, std::size_t host) {
    if (!host_groups_[host].empty()) unlist(host);
    host_groups_[host].push_back(g);
    host_load_[host] += sizes_[g];
    enlist(host);
    group_host_[g] = static_cast<std::int32_t>(host);
    assign_members(g, static_cast<std::int32_t>(host));
  }

  /// The lowest empty host that group `g`'s constraints allow, growing the
  /// host set when it lies past the end; kNoHost when there is none. A
  /// pinned group can only land on its pin, so the probe stops there, as
  /// admit_group's does. Any other group finds a host: plan_dynamic takes
  /// only structurally feasible constraint sets, under which an empty host
  /// is refused only by a forbid or a spread domain already at its cap,
  /// and there are finitely many of both.
  std::size_t open_host(std::size_t g) {
    const std::int32_t pin = model_.pinned_host(g);
    for (std::size_t h = 0;; ++h) {
      if (pin != Placement::kUnplaced && h > static_cast<std::size_t>(pin))
        return kNoHost;
      if (h < host_groups_.size() && !host_groups_[h].empty()) continue;
      if (!model_.allowed_on(g, static_cast<std::int32_t>(h), placement_))
        continue;
      if (h >= host_groups_.size()) {
        host_groups_.resize(h + 1);
        host_load_.resize(h + 1);
        key_.resize(h + 1);
      }
      return h;
    }
  }

  /// The largest key a host can have and still take `need`. fits_within
  /// passes only if load_d <= C_d (1 + 1e-9) + 1e-9 - need_d in each
  /// dimension d, and a host's key is max_d load_d / C_d, so a host keyed
  /// above the largest of those bounds over C_d fits nowhere. The slack,
  /// CapacityIndex::slack_for(C_d) plus 1e-8 |need_d|, dominates the
  /// rounding of the sums, the difference and both divisions, so a host
  /// that fits is never above the limit. A zero capacity dimension bounds
  /// nothing.
  double key_limit(const ResourceVector& need) const {
    const auto limit = [](double cap, double n) {
      if (cap <= 0.0) return std::numeric_limits<double>::infinity();
      return (cap * (1.0 + 1e-9) + 1e-9 - n + CapacityIndex::slack_for(cap) +
              1e-8 * std::abs(n)) /
             cap;
    };
    return std::max(limit(capacity_.cpu_rpe2, need.cpu_rpe2),
                    limit(capacity_.memory_mb, need.memory_mb));
  }

  bool in_shadow(std::size_t host) const {
    return std::any_of(shadow_.begin(), shadow_.end(),
                       [&](const Shadow& s) { return s.host == host; });
  }

  /// The most-loaded active host other than `skip` that takes group `g` on
  /// capacity and constraints. During a drain trial the list scanned is
  /// the merge, in load order, of shadow_ and the untouched rest of
  /// by_load_. The untouched hosts keyed above key_limit are a prefix of
  /// by_load_ that fails the capacity check; the scan starts past it, so
  /// it returns the host a full scan would.
  std::size_t first_fit(std::size_t g, std::size_t skip) const {
    const ResourceVector& need = sizes_[g];
    const Shadow* shadow = nullptr;
    for (const Shadow& s : shadow_)
      if ((s.load + need).fits_within(capacity_) &&
          model_.allowed_on(g, static_cast<std::int32_t>(s.host),
                            placement_)) {
        shadow = &s;
        break;
      }
    const double limit = key_limit(need);
    const auto from = std::partition_point(
        by_load_.begin(), by_load_.end(),
        [&](std::size_t host) { return key_[host] > limit; });
    for (auto it = from; it != by_load_.end(); ++it) {
      const std::size_t host = *it;
      if (host == skip || !fits(host, need)) continue;
      if (shadow != nullptr &&
          precedes(shadow->key, shadow->host, key_[host], host))
        break;
      if (!in_shadow(host) &&
          model_.allowed_on(g, static_cast<std::int32_t>(host), placement_))
        return host;
    }
    return shadow != nullptr ? shadow->host : kNoHost;
  }

  /// Evict groups from hosts whose predicted load violates the bound.
  /// Cheapest adequate action: the smallest group whose departure resolves
  /// the overload; otherwise the largest evictable group, repeated.
  void repair_overloaded_hosts() {
    for (std::size_t host = 0; host < host_groups_.size(); ++host) {
      while (!host_load_[host].fits_within(capacity_)) {
        const ResourceVector excess = host_load_[host] - capacity_;
        std::size_t best_single = model_.count();
        double best_single_key = 0.0;
        std::size_t largest = model_.count();
        double largest_key = -1.0;
        for (std::size_t g : host_groups_[host]) {
          if (model_.pinned_host(g) != Placement::kUnplaced) continue;
          const double key = group_key_[g];
          const bool resolves =
              sizes_[g].cpu_rpe2 >= excess.cpu_rpe2 - 1e-9 &&
              sizes_[g].memory_mb >= excess.memory_mb - 1e-9;
          if (resolves &&
              (best_single == model_.count() || key < best_single_key)) {
            best_single = g;
            best_single_key = key;
          }
          if (key > largest_key) {
            largest = g;
            largest_key = key;
          }
        }
        const std::size_t victim =
            best_single != model_.count() ? best_single : largest;
        if (victim == model_.count()) break;  // only pinned groups remain
        detach(victim);
        pending_.push_back(victim);
      }
    }
  }

  /// First-fit pending groups onto the most-loaded feasible hosts, else
  /// onto an allowed empty one (which always fits a single group); false
  /// when a group has neither.
  bool place_pending() {
    for (const Ranked& r : largest_first(pending_)) {
      std::size_t host = first_fit(r.group, kNoHost);
      if (host == kNoHost) host = open_host(r.group);
      if (host == kNoHost) return false;
      attach(r.group, host);
    }
    pending_.clear();
    return true;
  }

  /// Try to empty the most lightly loaded hosts entirely; commit only when
  /// every group of the candidate host relocates. Ascending load is the
  /// reverse walk of by_load_ (equal loads: higher index first). A failed
  /// trial leaves by_load_ exactly as it was, so the walk goes on by
  /// position; a successful one changes the host set and restarts it.
  void consolidate() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = by_load_.size(); i-- > 0;) {
        const std::size_t candidate = by_load_[i];
        bool has_pinned = false;
        for (std::size_t g : host_groups_[candidate])
          if (model_.pinned_host(g) != Placement::kUnplaced) has_pinned = true;
        if (has_pinned) continue;
        if (try_empty_host(candidate)) {
          progress = true;
          break;
        }
      }
    }
  }

  /// Trial relocation: groups in decreasing size, targets in decreasing
  /// load, excluding the candidate itself, planned on shadow_ before
  /// anything moves (target loads summed in trial order, as attach sums
  /// them). placement_ follows the trial group by group for the constraint
  /// checks. A failed trial only puts placement_ back; a complete one is
  /// committed by the same detach and attach per group.
  bool try_empty_host(std::size_t candidate) {
    const std::vector<Ranked>& ranked = largest_first(host_groups_[candidate]);
    bool placed = true;
    for (const Ranked& r : ranked) {
      assign_members(r.group, Placement::kUnplaced);
      const std::size_t target = first_fit(r.group, candidate);
      if (target == kNoHost) {
        placed = false;
        break;
      }
      auto it = std::find_if(shadow_.begin(), shadow_.end(),
                             [&](const Shadow& s) { return s.host == target; });
      if (it == shadow_.end())
        it = shadow_.insert(it, {target, host_load_[target], 0.0});
      it->load += sizes_[r.group];
      it->key = normalized_load(it->load, capacity_);
      std::sort(shadow_.begin(), shadow_.end(),
                [](const Shadow& a, const Shadow& b) {
                  return precedes(a.key, a.host, b.key, b.host);
                });
      assign_members(r.group, static_cast<std::int32_t>(target));
    }
    shadow_.clear();
    if (!placed) {
      for (const Ranked& r : ranked)
        assign_members(r.group, static_cast<std::int32_t>(candidate));
      return false;
    }
    // Commit: the trial left each group's members on its target.
    for (const Ranked& r : ranked) {
      const std::int32_t target =
          placement_.host_of(model_.members(r.group).front());
      detach(r.group);
      attach(r.group, static_cast<std::size_t>(target));
    }
    return true;
  }

  const GroupModel& model_;
  std::span<const ResourceVector> sizes_;  ///< this interval's group sizes
  ResourceVector capacity_;
  Placement placement_;
  std::vector<std::vector<std::size_t>> host_groups_;
  std::vector<ResourceVector> host_load_;
  std::vector<double> key_;  ///< per host: the load it is listed under
  std::vector<std::size_t> by_load_;  ///< active hosts, in load_order()
  std::vector<std::int32_t> group_host_;
  std::vector<double> group_key_;  ///< per group: normalized predicted size
  std::vector<std::size_t> pending_;
  /// The current drain trial's targets in load order; empty outside one.
  std::vector<Shadow> shadow_;
  std::vector<Ranked> ranked_;  ///< largest_first's result, reused
};

}  // namespace

std::optional<DynamicPlan> plan_dynamic(std::span<const VmWorkload> vms,
                                        const StudySettings& settings,
                                        const ConstraintSet& constraints) {
  if (!constraints.structurally_feasible()) return std::nullopt;
  const GroupModel model(vms.size(), constraints);
  const PeakPredictor predictor(settings.predictor);
  const ResourceVector capacity =
      settings.capacity(settings.dynamic_utilization_bound);
  const std::size_t intervals = settings.intervals();
  const PredictedSizes sizes = predict_sizes(vms, model, predictor, settings);

  DynamicPlan plan;
  plan.per_interval.reserve(intervals);
  plan.migrations.reserve(intervals);
  IntervalAdapter adapter(model, capacity);

  for (std::size_t k = 0; k < intervals; ++k) {
    Placement current;
    if (k == 0) {
      // Initial placement: plain constrained FFD on the predicted sizes
      // (ffd_pack re-aggregates members by affinity group internally).
      auto packed = ffd_pack(sizes.first_interval, capacity, constraints);
      if (!packed) return std::nullopt;
      current = std::move(packed->placement);
    } else {
      adapter.reset(
          std::span(sizes.groups).subspan(k * model.count(), model.count()),
          plan.per_interval.back());
      if (!adapter.adapt()) return std::nullopt;
      current = adapter.take_placement();
    }

    const std::size_t moved =
        k == 0 ? 0
               : Placement::migrations_between(plan.per_interval.back(),
                                               current);
    plan.migrations.push_back(moved);
    plan.total_migrations += moved;
    plan.max_active_hosts =
        std::max(plan.max_active_hosts, current.active_host_count());
    plan.per_interval.push_back(std::move(current));
  }
  return plan;
}

}  // namespace vmcw

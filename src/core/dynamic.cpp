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
  for (std::size_t g = 0; g < groups; ++g)
    for (std::size_t vm : model.members(g)) {
      vm_predictor.predict(vms[vm], settings.eval_begin(),
                           settings.interval_hours, intervals);
      for (std::size_t k = 0; k < intervals; ++k)
        sizes.groups[k * groups + g] += vm_predictor.at(k);
      if (intervals > 0) sizes.first_interval[vm] = vm_predictor.at(0);
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

  void adapt() {
    repair_overloaded_hosts();
    place_pending();
    consolidate();
  }

  Placement take_placement() { return std::move(placement_); }

 private:
  static constexpr std::size_t kNoHost =
      std::numeric_limits<std::size_t>::max();

  /// One target of a drain trial and its load before the group arrived.
  struct TrialMove {
    std::size_t host;
    ResourceVector load;
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
  struct LoadOrder {
    const std::vector<double>& key;
    bool operator()(std::size_t a, std::size_t b) const {
      return key[a] > key[b] || (key[a] == key[b] && a < b);
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
    for (std::size_t vm : model_.members(g)) placement_.unassign(vm);
  }

  void attach(std::size_t g, std::size_t host) {
    if (!host_groups_[host].empty()) unlist(host);
    host_groups_[host].push_back(g);
    host_load_[host] += sizes_[g];
    enlist(host);
    group_host_[g] = static_cast<std::int32_t>(host);
    for (std::size_t vm : model_.members(g))
      placement_.assign(vm, static_cast<std::int32_t>(host));
  }

  std::size_t open_host() {
    for (std::size_t h = 0; h < host_groups_.size(); ++h)
      if (host_groups_[h].empty()) return h;
    host_groups_.emplace_back();
    host_load_.emplace_back();
    key_.emplace_back();
    return host_groups_.size() - 1;
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

  /// The most-loaded active host other than `skip` that takes group `g`: on
  /// capacity and constraints, or on capacity alone when `constrained` is
  /// false. The hosts keyed above key_limit are a prefix of by_load_ that
  /// fails the capacity check; the scan starts past it and visits the rest
  /// in order, so it returns the host a full scan would.
  std::size_t first_fit(std::size_t g, std::size_t skip,
                        bool constrained = true) const {
    const double limit = key_limit(sizes_[g]);
    const auto from = std::partition_point(
        by_load_.begin(), by_load_.end(),
        [&](std::size_t host) { return key_[host] > limit; });
    for (auto it = from; it != by_load_.end(); ++it) {
      const std::size_t host = *it;
      if (host != skip && fits(host, sizes_[g]) &&
          (!constrained ||
           model_.allowed_on(g, static_cast<std::int32_t>(host), placement_)))
        return host;
    }
    return kNoHost;
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

  /// First-fit pending groups onto the most-loaded feasible hosts.
  void place_pending() {
    for (const Ranked& r : largest_first(pending_)) {
      const std::size_t host = first_fit(r.group, kNoHost);
      // A fresh host always fits a single group.
      attach(r.group, host != kNoHost ? host : open_host());
    }
    pending_.clear();
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

  bool try_empty_host(std::size_t candidate) {
    // Trial relocation: groups in decreasing size, targets in decreasing
    // load, excluding the candidate itself. Most trials fail at the first
    // group, and that is known before anything changes: the first group's
    // targets are judged on the untouched state (leaving the candidate
    // changes no other host's load or relative order), and a group no host
    // takes on capacity fits none under constraints either. A failed trial
    // rolls back bit for bit, so rejecting it up front leaves the same
    // state.
    const std::vector<Ranked>& ranked = largest_first(host_groups_[candidate]);
    if (first_fit(ranked.front().group, candidate, false) == kNoHost)
      return false;
    trial_groups_ = host_groups_[candidate];
    const ResourceVector candidate_load = host_load_[candidate];
    moves_.clear();
    for (const Ranked& r : ranked) {
      const std::size_t g = r.group;
      detach(g);
      const std::size_t target = first_fit(g, candidate);
      if (target == kNoHost) {
        roll_back(candidate, candidate_load);
        return false;
      }
      moves_.push_back({target, host_load_[target]});
      attach(g, target);
    }
    return true;
  }

  /// Undo a failed drain trial from moves_: every target gives back the
  /// group it took last and gets its pre-move load back bit for bit, then
  /// the candidate gets its group list (trial_groups_), load and VMs back.
  void roll_back(std::size_t candidate, const ResourceVector& candidate_load) {
    for (auto move = moves_.rbegin(); move != moves_.rend(); ++move) {
      unlist(move->host);
      host_groups_[move->host].pop_back();
      host_load_[move->host] = move->load;
      enlist(move->host);  // a target was active before the trial
    }
    if (!host_groups_[candidate].empty()) unlist(candidate);
    host_groups_[candidate] = trial_groups_;
    host_load_[candidate] = candidate_load;
    enlist(candidate);
    for (std::size_t g : trial_groups_) {
      group_host_[g] = static_cast<std::int32_t>(candidate);
      for (std::size_t vm : model_.members(g))
        placement_.assign(vm, static_cast<std::int32_t>(candidate));
    }
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
  std::vector<TrialMove> moves_;  ///< the current drain trial's targets
  // Reused across drain trials and sorts.
  std::vector<std::size_t> trial_groups_;  ///< the drain candidate's groups
  std::vector<Ranked> ranked_;             ///< largest_first's result
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
      adapter.adapt();
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

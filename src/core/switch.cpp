#include "core/switch.hpp"

#include <algorithm>
#include <climits>

#include "util/contract.hpp"

namespace soda::core {

namespace {

/// Nginx-style smooth weighted round-robin: each pick, every backend's
/// current weight grows by its capacity; the largest current weight wins and
/// is decremented by the total capacity. Produces evenly interleaved 2:1
/// patterns (A B A A B A ...), which is what keeps per-node response times
/// flat in Figure 4.
///
/// Current weights live in a dense per-slot array (re-seeded to zero on
/// membership changes, preserved across health flips — same lifecycle the
/// old map-keyed state had, minus the per-pick tree lookups).
class SmoothWrr final : public SwitchPolicy {
 public:
  std::optional<std::size_t> pick(const RoutableView& view) override {
    if (view.empty()) return std::nullopt;
    if (current_.size() != view.slot_count()) {
      current_.assign(view.slot_count(), 0);
    }
    // Totals accumulate in long long: many backends with near-INT_MAX
    // capacities must not overflow the running sum.
    long long total = 0;
    std::size_t best = 0;
    long long best_weight = LLONG_MIN;
    for (std::size_t i = 0; i < view.size(); ++i) {
      const std::uint32_t slot = view.slot(i);
      const int capacity = view[i].entry.capacity;
      current_[slot] += capacity;
      total += capacity;
      if (current_[slot] > best_weight) {
        best_weight = current_[slot];
        best = i;
      }
    }
    current_[view.slot(best)] -= total;
    return best;
  }
  [[nodiscard]] std::string name() const override { return "weighted-round-robin"; }
  void on_backends_changed(const std::vector<BackEndState>& slots) override {
    current_.assign(slots.size(), 0);
  }

 private:
  void state(snapshot::Writer& ar) override { fields(ar); }
  void state(snapshot::Reader& ar) override { fields(ar); }
  template <class Ar>
  void fields(Ar& ar) {
    ar.seq(current_, [&ar](auto& weight) { ar.i64(weight); });
  }

  std::vector<long long> current_;  // indexed by backend slot
};

class PlainRr final : public SwitchPolicy {
 public:
  std::optional<std::size_t> pick(const RoutableView& view) override {
    if (view.empty()) return std::nullopt;
    return next_++ % view.size();
  }
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  void on_backends_changed(const std::vector<BackEndState>&) override {
    next_ = 0;
  }

 private:
  void state(snapshot::Writer& ar) override { ar.u64(next_); }
  void state(snapshot::Reader& ar) override { ar.u64(next_); }

  std::size_t next_ = 0;
};

class RandomPolicy final : public SwitchPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}
  std::optional<std::size_t> pick(const RoutableView& view) override {
    if (view.empty()) return std::nullopt;
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(view.size()) - 1));
  }
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  void state(snapshot::Writer& ar) override { ar.walk(rng_); }
  void state(snapshot::Reader& ar) override { ar.walk(rng_); }

  sim::Rng rng_;
};

class LeastConnections final : public SwitchPolicy {
 public:
  std::optional<std::size_t> pick(const RoutableView& view) override {
    if (view.empty()) return std::nullopt;
    std::size_t best = 0;
    double best_load = load(view[0]);
    for (std::size_t i = 1; i < view.size(); ++i) {
      const double l = load(view[i]);
      if (l < best_load) {
        best_load = l;
        best = i;
      }
    }
    return best;
  }
  [[nodiscard]] std::string name() const override { return "least-connections"; }

 private:
  static double load(const BackEndState& b) {
    return static_cast<double>(b.active_connections) /
           static_cast<double>(std::max(1, b.entry.capacity));
  }
};

/// EWMA-of-response-time policy. Estimates are kept per backend slot; the
/// score divides by capacity so that, at equal observed response times, the
/// larger node is preferred (it has more headroom to absorb the next
/// request). Unsampled backends win ties so every backend gets probed.
class FastestResponse final : public SwitchPolicy {
 public:
  explicit FastestResponse(double alpha) : alpha_(alpha) {
    SODA_EXPECTS(alpha > 0 && alpha <= 1);
  }

  std::optional<std::size_t> pick(const RoutableView& view) override {
    if (view.empty()) return std::nullopt;
    if (sampled_.size() != view.slot_count()) reseed(view.slot_count());
    std::size_t best = view.size();
    double best_score = 0;
    for (std::size_t i = 0; i < view.size(); ++i) {
      const std::uint32_t slot = view.slot(i);
      if (!sampled_[slot]) return i;  // explore unsampled backends first
      const double score =
          ewma_[slot] / static_cast<double>(std::max(1, view[i].entry.capacity));
      if (best == view.size() || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    return best;
  }

  void on_response_time(std::uint32_t slot, const BackEndEntry&,
                        double seconds) override {
    if (slot >= sampled_.size()) reseed(slot + 1);
    if (!sampled_[slot]) {
      sampled_[slot] = 1;
      ewma_[slot] = seconds;
    } else {
      ewma_[slot] = alpha_ * seconds + (1 - alpha_) * ewma_[slot];
    }
  }

  [[nodiscard]] std::string name() const override { return "fastest-response"; }
  void on_backends_changed(const std::vector<BackEndState>& slots) override {
    reseed(slots.size());
  }

 private:
  void state(snapshot::Writer& ar) override { fields(ar); }
  void state(snapshot::Reader& ar) override { fields(ar); }
  template <class Ar>
  void fields(Ar& ar) {
    ar.f64(alpha_);
    // Parallel per-slot arrays, interleaved one slot at a time.
    std::size_t slots = ewma_.size();
    ar.count(slots);
    if constexpr (Ar::kLoading) reseed(0);
    for (std::size_t i = 0; i < slots && ar.ok(); ++i) {
      if constexpr (Ar::kLoading) {
        ewma_.emplace_back();
        sampled_.emplace_back();
      }
      ar.f64(ewma_[i]);
      ar.u8(sampled_[i]);
    }
  }

  void reseed(std::size_t n) {
    ewma_.assign(n, 0);
    sampled_.assign(n, 0);
  }

  double alpha_;
  std::vector<double> ewma_;            // indexed by backend slot
  std::vector<unsigned char> sampled_;  // 1 once a sample arrived
};

/// Adapter for the ASP function hook: materializes the view into a reused
/// buffer (element-wise assignment, so string capacity is recycled) and
/// hands the legacy vector shape to the user function.
class CustomPolicy final : public SwitchPolicy {
 public:
  CustomPolicy(std::string name,
               std::function<std::optional<std::size_t>(
                   const std::vector<BackEndState>&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {
    SODA_EXPECTS(fn_ != nullptr);
  }
  std::optional<std::size_t> pick(const RoutableView& view) override {
    scratch_.resize(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) scratch_[i] = view[i];
    return fn_(scratch_);
  }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  std::function<std::optional<std::size_t>(const std::vector<BackEndState>&)> fn_;
  std::vector<BackEndState> scratch_;
};

}  // namespace

std::unique_ptr<SwitchPolicy> make_weighted_round_robin() {
  return std::make_unique<SmoothWrr>();
}
std::unique_ptr<SwitchPolicy> make_plain_round_robin() {
  return std::make_unique<PlainRr>();
}
std::unique_ptr<SwitchPolicy> make_random_policy(std::uint64_t seed) {
  return std::make_unique<RandomPolicy>(seed);
}
std::unique_ptr<SwitchPolicy> make_least_connections() {
  return std::make_unique<LeastConnections>();
}
std::unique_ptr<SwitchPolicy> make_fastest_response(double alpha) {
  return std::make_unique<FastestResponse>(alpha);
}

Result<std::unique_ptr<SwitchPolicy>> make_switch_policy_by_name(
    std::string_view name, std::uint64_t seed) {
  if (name == "weighted-round-robin") return make_weighted_round_robin();
  if (name == "round-robin") return make_plain_round_robin();
  if (name == "random") return make_random_policy(seed);
  if (name == "least-connections") return make_least_connections();
  if (name == "fastest-response") return make_fastest_response();
  return Error{"unknown switch policy '" + std::string(name) + "'"};
}

std::unique_ptr<SwitchPolicy> make_custom_policy(
    std::string name,
    std::function<std::optional<std::size_t>(const std::vector<BackEndState>&)> fn) {
  return std::make_unique<CustomPolicy>(std::move(name), std::move(fn));
}

ServiceSwitch::ServiceSwitch(std::string service_name, net::Ipv4Address listen,
                             int port)
    : service_name_(std::move(service_name)),
      listen_(listen),
      port_(port),
      policy_(make_weighted_round_robin()) {
  SODA_EXPECTS(port_ > 0);
}

BackEndState* ServiceSwitch::find(net::Ipv4Address address, int port) {
  auto it = std::find_if(backends_.begin(), backends_.end(),
                         [&](const BackEndState& b) {
                           return b.entry.address == address &&
                                  b.entry.port == port;
                         });
  return it == backends_.end() ? nullptr : &*it;
}

void ServiceSwitch::on_membership_changed() {
  touch();
  policy_->on_backends_changed(backends_);
}

Status ServiceSwitch::add_backend(const BackEndEntry& entry) {
  if (find(entry.address, entry.port)) {
    return Error{"backend already present: " + entry.address.to_string() + ":" +
                 std::to_string(entry.port)};
  }
  backends_.push_back(BackEndState{entry, 0, 0, true, false});
  on_membership_changed();
  return {};
}

Status ServiceSwitch::remove_backend(net::Ipv4Address address, int port) {
  BackEndState* backend = find(address, port);
  if (!backend) {
    return Error{"no backend " + address.to_string() + ":" +
                 std::to_string(port)};
  }
  if (backend->active_connections > 0) {
    // In-flight requests keep the backend alive; the routable snapshot
    // hides draining entries, so no new requests arrive, and the last
    // on_request_complete() erases it.
    backend->draining = true;
  } else {
    backends_.erase(backends_.begin() + (backend - backends_.data()));
  }
  on_membership_changed();
  return {};
}

Status ServiceSwitch::set_backend_capacity(net::Ipv4Address address, int port,
                                           int capacity) {
  SODA_EXPECTS(capacity >= 1);
  BackEndState* backend = find(address, port);
  if (!backend) {
    return Error{"no backend " + address.to_string() + ":" +
                 std::to_string(port)};
  }
  backend->entry.capacity = capacity;
  on_membership_changed();
  return {};
}

void ServiceSwitch::load_config(const ServiceConfigFile& file) {
  backends_.clear();
  for (const auto& entry : file.entries()) {
    backends_.push_back(BackEndState{entry, 0, 0, true, false});
  }
  on_membership_changed();
}

Status ServiceSwitch::set_backend_health(net::Ipv4Address address, int port,
                                         bool healthy) {
  BackEndState* backend = find(address, port);
  if (!backend) {
    return Error{"no backend " + address.to_string() + ":" +
                 std::to_string(port)};
  }
  if (backend->healthy != healthy) {
    backend->healthy = healthy;
    touch();  // routable set changed; policy state survives health flips
  }
  return {};
}

void ServiceSwitch::set_policy(std::unique_ptr<SwitchPolicy> policy) {
  SODA_EXPECTS(policy != nullptr);
  policy_ = std::move(policy);
  policy_->on_backends_changed(backends_);
}

void ServiceSwitch::rehome(net::Ipv4Address listen, int port) {
  SODA_EXPECTS(port > 0);
  listen_ = listen;
  port_ = port;
}

void ServiceSwitch::rebuild_snapshots() {
  // Reuse the snapshot vectors across rebuilds: clear() keeps their
  // capacity, so a rebuild after a health flip usually allocates nothing
  // either. Snapshots for components that vanished stay behind empty (they
  // route-refuse exactly like a missing snapshot, and components per
  // service are few).
  for (auto& snapshot : snapshots_) snapshot.slots.clear();
  for (std::uint32_t i = 0; i < backends_.size(); ++i) {
    const BackEndState& backend = backends_[i];
    if (!backend.healthy || backend.draining) continue;
    ComponentSnapshot* snapshot = nullptr;
    for (auto& existing : snapshots_) {
      if (existing.component == backend.entry.component) {
        snapshot = &existing;
        break;
      }
    }
    if (!snapshot) {
      snapshots_.push_back(ComponentSnapshot{backend.entry.component, {}});
      snapshot = &snapshots_.back();
    }
    snapshot->slots.push_back(i);
  }
  snapshot_epoch_ = epoch_;
}

const ServiceSwitch::ComponentSnapshot* ServiceSwitch::routable_snapshot(
    std::string_view component) {
  if (snapshot_epoch_ != epoch_) rebuild_snapshots();
  for (const auto& snapshot : snapshots_) {
    if (snapshot.component == component) {
      return snapshot.slots.empty() ? nullptr : &snapshot;
    }
  }
  return nullptr;
}

void ServiceSwitch::set_component_route(std::string prefix,
                                        std::string component) {
  SODA_EXPECTS(!prefix.empty());
  routes_.push_back(PrefixRoute{std::move(prefix), std::move(component)});
  route_order_.resize(routes_.size());
  for (std::uint32_t i = 0; i < route_order_.size(); ++i) route_order_[i] = i;
  std::sort(route_order_.begin(), route_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const std::size_t la = routes_[a].prefix.size();
              const std::size_t lb = routes_[b].prefix.size();
              if (la != lb) return la > lb;
              return a > b;  // equal length: later registration wins
            });
}

std::string_view ServiceSwitch::component_for(std::string_view target) const {
  // route_order_ is sorted longest-prefix-first (ties: latest rule first),
  // so the first match is the winning rule — no full scan, no copy.
  for (const std::uint32_t index : route_order_) {
    const PrefixRoute& route = routes_[index];
    if (route.prefix.size() <= target.size() &&
        target.substr(0, route.prefix.size()) == route.prefix) {
      return route.component;
    }
  }
  return {};
}

Result<BackEndEntry> ServiceSwitch::route_target(std::string_view target) {
  return route(component_for(target));
}

Result<BackEndEntry> ServiceSwitch::route(std::string_view component) {
  const ComponentSnapshot* snapshot = routable_snapshot(component);
  if (!snapshot) {
    ++refused_;
    return Error{"switch " + service_name_ + ": no healthy backend" +
                 (component.empty() ? std::string()
                                    : " for component '" + std::string(component) +
                                          "'")};
  }
  const RoutableView view(backends_, snapshot->slots.data(),
                          snapshot->slots.size());
  const auto choice = policy_->pick(view);
  if (!choice || *choice >= view.size()) {
    ++refused_;
    return Error{"switch " + service_name_ + ": policy '" + policy_->name() +
                 "' refused the request"};
  }
  // The winning view position maps straight back to its backend slot — no
  // post-pick rescan of the backend table.
  BackEndState& backend = backends_[snapshot->slots[*choice]];
  ++backend.requests_routed;
  ++backend.active_connections;
  ++routed_;
  return backend.entry;
}

void ServiceSwitch::on_request_complete(net::Ipv4Address backend_address,
                                        int port) {
  BackEndState* backend = find(backend_address, port);
  if (!backend) return;
  if (backend->active_connections > 0) --backend->active_connections;
  if (backend->draining && backend->active_connections == 0) {
    backends_.erase(backends_.begin() + (backend - backends_.data()));
    on_membership_changed();
  }
}

void ServiceSwitch::report_response_time(net::Ipv4Address backend_address,
                                         int port, double seconds) {
  BackEndState* backend = find(backend_address, port);
  if (backend) {
    policy_->on_response_time(
        static_cast<std::uint32_t>(backend - backends_.data()), backend->entry,
        seconds);
  }
}

void ServiceSwitch::report_backend_failure(net::Ipv4Address backend_address,
                                           int port) {
  BackEndState* backend = find(backend_address, port);
  if (!backend) return;
  backend->healthy = false;
  touch();
  if (backend->active_connections > 0) --backend->active_connections;
}

Result<BackEndEntry> ServiceSwitch::route_failover(const BackEndEntry& dead,
                                                   std::string_view component) {
  report_backend_failure(dead.address, dead.port);
  auto retried = route(component);
  if (retried.ok()) ++failovers_;
  return retried;
}

std::string ServiceSwitch::config_text() const {
  ServiceConfigFile file;
  for (const auto& backend : backends_) must(file.add(backend.entry));
  return file.serialize();
}

std::uint64_t ServiceSwitch::routed_to(net::Ipv4Address backend_address,
                                       int port) const {
  for (const auto& backend : backends_) {
    if (backend.entry.address == backend_address && backend.entry.port == port) {
      return backend.requests_routed;
    }
  }
  return 0;
}

template <class Ar>
void ServiceSwitch::serialize(Ar& ar) {
  ar.begin_section("switch");
  ar.walk(listen_);
  ar.i64(port_);
  ar.seq(backends_, [&ar](auto& backend) {
    ar.walk(backend.entry.address);
    ar.i64(backend.entry.port);
    ar.i64(backend.entry.capacity);
    ar.str(backend.entry.component);
    ar.u64(backend.requests_routed);
    ar.u64(backend.active_connections);
    ar.boolean(backend.healthy);
    ar.boolean(backend.draining);
  });
  ar.seq(routes_, [&ar](auto& route) {
    ar.str(route.prefix);
    ar.str(route.component);
  });
  ar.seq(route_order_, [&](auto& index) {
    ar.u32(index, snapshot::Below{routes_.size()});
  });
  // The policy travels by registry name; custom (ASP-function) policies
  // cannot be re-created from one.
  std::string policy_name = policy_->name();
  ar.str(policy_name);
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;
    auto policy = make_switch_policy_by_name(policy_name);
    if (!policy.ok()) {
      ar.fail("cannot restore switch policy '" + policy_name +
              "' (custom policies are not checkpointable)");
      return;
    }
    policy_ = std::move(policy.value());
  }
  ar.walk(*policy_);
  ar.u64(epoch_);
  ar.u64(routed_);
  ar.u64(refused_);
  ar.u64(failovers_);
  ar.end_section();
  if constexpr (Ar::kLoading) {
    // The routable snapshots are cache: force a deterministic lazy rebuild.
    snapshots_.clear();
    snapshot_epoch_ = epoch_ - 1;
  }
}
template void ServiceSwitch::serialize(snapshot::Writer&);
template void ServiceSwitch::serialize(snapshot::Reader&);

}  // namespace soda::core

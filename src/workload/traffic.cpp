#include "workload/traffic.hpp"

#include <cmath>
#include <fstream>
#include <numbers>

#include "snapshot/format.hpp"
#include "util/contract.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace soda::workload {

namespace {

/// Floor on the instantaneous rate while a trace is active: a diurnal
/// trough or ramp origin at 0 req/s would otherwise draw a gap with
/// infinite mean and stall the arrival chain.
constexpr double kMinActiveRate = 1e-3;

Error phase_error(std::string_view spec) {
  return Error{"bad traffic phase: '" + std::string(spec) +
               "' (want const:RATExSECS, ramp:FROM..TOxSECS, burst:RATExSECS,"
               " or diurnal:BASE~AMPxSECS[/PERIOD])"};
}

}  // namespace

// ---------- TrafficTrace ----------

TrafficTrace& TrafficTrace::constant(double rate, double seconds) {
  SODA_EXPECTS(rate > 0 && seconds > 0 && !is_file());
  TrafficPhase phase;
  phase.shape = TrafficPhase::Shape::kConstant;
  phase.rate = rate;
  phase.seconds = seconds;
  phases_.push_back(phase);
  return *this;
}

TrafficTrace& TrafficTrace::ramp(double from, double to, double seconds) {
  SODA_EXPECTS(from >= 0 && to >= 0 && (from > 0 || to > 0) && seconds > 0 &&
               !is_file());
  TrafficPhase phase;
  phase.shape = TrafficPhase::Shape::kRamp;
  phase.rate = from;
  phase.rate_to = to;
  phase.seconds = seconds;
  phases_.push_back(phase);
  return *this;
}

TrafficTrace& TrafficTrace::burst(double rate, double seconds) {
  SODA_EXPECTS(rate > 0 && seconds > 0 && !is_file());
  TrafficPhase phase;
  phase.shape = TrafficPhase::Shape::kBurst;
  phase.rate = rate;
  phase.seconds = seconds;
  phases_.push_back(phase);
  return *this;
}

TrafficTrace& TrafficTrace::diurnal(double base, double amplitude,
                                    double seconds, double period_s) {
  SODA_EXPECTS(base > 0 && amplitude >= 0 && amplitude <= base && seconds > 0 &&
               !is_file());
  TrafficPhase phase;
  phase.shape = TrafficPhase::Shape::kDiurnal;
  phase.rate = base;
  phase.amplitude = amplitude;
  phase.seconds = seconds;
  phase.period_s = period_s > 0 ? period_s : seconds;
  phases_.push_back(phase);
  return *this;
}

Result<TrafficTrace> TrafficTrace::parse(std::string_view spec) {
  // A recorded trace replays exact timestamps — there is no meaningful way
  // to splice shaped phases around it, so `file:` must be the whole spec.
  if (const std::string_view whole = util::trim(spec);
      whole.starts_with("file:")) {
    if (whole.find(',') != std::string_view::npos) {
      return Error{"file: traces are single-phase; cannot mix '" +
                   std::string(whole) + "' with shaped phases"};
    }
    return from_file(std::string(whole.substr(5)));
  }
  TrafficTrace trace;
  double total_s = 0;
  for (const std::string& raw : util::split(spec, ',')) {
    const std::string_view part = util::trim(raw);
    const std::size_t colon = part.find(':');
    if (colon == std::string_view::npos) return phase_error(part);
    const std::string_view kind = part.substr(0, colon);
    if (kind == "file") {
      return Error{"file: traces are single-phase; cannot mix '" +
                   std::string(part) + "' with shaped phases"};
    }
    std::string_view rest = part.substr(colon + 1);

    // Every form ends in xSECS.
    const std::size_t x = rest.rfind('x');
    if (x == std::string_view::npos) return phase_error(part);
    std::string_view tail = rest.substr(x + 1);
    rest = rest.substr(0, x);

    // diurnal may append /PERIOD after the duration.
    double period = 0;
    if (const std::size_t slash = tail.find('/');
        slash != std::string_view::npos) {
      if (kind != "diurnal") return phase_error(part);
      const auto parsed = util::parse_double(tail.substr(slash + 1));
      if (!parsed || *parsed <= 0 || *parsed > sim::kMaxInputSeconds) {
        return phase_error(part);
      }
      period = *parsed;
      tail = tail.substr(0, slash);
    }
    const auto seconds = util::parse_double(tail);
    if (!seconds || *seconds <= 0) return phase_error(part);
    total_s += *seconds;
    if (total_s > sim::kMaxInputSeconds) {
      return Error{"bad traffic phase: '" + std::string(part) +
                   "' ends past t=" + std::to_string(sim::kMaxInputSeconds) +
                   "s"};
    }

    if (kind == "const" || kind == "burst") {
      const auto rate = util::parse_double(rest);
      if (!rate || *rate <= 0) return phase_error(part);
      if (kind == "const") {
        trace.constant(*rate, *seconds);
      } else {
        trace.burst(*rate, *seconds);
      }
    } else if (kind == "ramp") {
      const std::size_t dots = rest.find("..");
      if (dots == std::string_view::npos) return phase_error(part);
      const auto from = util::parse_double(rest.substr(0, dots));
      const auto to = util::parse_double(rest.substr(dots + 2));
      if (!from || !to || (*from <= 0 && *to <= 0)) return phase_error(part);
      trace.ramp(*from, *to, *seconds);
    } else if (kind == "diurnal") {
      const std::size_t tilde = rest.find('~');
      if (tilde == std::string_view::npos) return phase_error(part);
      const auto base = util::parse_double(rest.substr(0, tilde));
      const auto amp = util::parse_double(rest.substr(tilde + 1));
      if (!base || !amp || *base <= 0 || *amp > *base) return phase_error(part);
      trace.diurnal(*base, *amp, *seconds, period);
    } else {
      return phase_error(part);
    }
  }
  if (trace.phases_.empty()) {
    return Error{"empty traffic spec"};
  }
  return trace;
}

Result<TrafficTrace> TrafficTrace::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Error{"cannot open traffic trace file '" + path + "'"};
  }
  TrafficTrace trace;
  trace.file_path_ = path;
  std::string line;
  int lineno = 0;
  double prev = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view entry = util::trim(line);
    if (entry.empty() || entry.front() == '#') continue;
    const auto offset = util::parse_double(entry);
    if (!offset || *offset > sim::kMaxInputSeconds) {
      return Error{"bad arrival offset '" + std::string(entry) + "' at " +
                   path + ":" + std::to_string(lineno)};
    }
    if (!trace.file_offsets_.empty() && *offset < prev) {
      return Error{"arrival offsets must be non-decreasing at " + path + ":" +
                   std::to_string(lineno)};
    }
    prev = *offset;
    trace.file_offsets_.push_back(*offset);
  }
  if (trace.file_offsets_.empty()) {
    return Error{"traffic trace file '" + path + "' has no arrivals"};
  }
  return trace;
}

double TrafficTrace::rate_at(double t) const noexcept {
  if (t < 0) return 0;
  if (is_file()) {
    // Recorded traces have no analytic rate curve; report the average so
    // dashboards and sanity checks get a sane number.
    const double span = file_offsets_.back();
    if (t > span) return 0;
    return span > 0 ? static_cast<double>(file_offsets_.size()) / span : 0;
  }
  for (const TrafficPhase& phase : phases_) {
    if (t < phase.seconds) {
      switch (phase.shape) {
        case TrafficPhase::Shape::kConstant:
        case TrafficPhase::Shape::kBurst:
          return phase.rate;
        case TrafficPhase::Shape::kRamp:
          return phase.rate +
                 (phase.rate_to - phase.rate) * (t / phase.seconds);
        case TrafficPhase::Shape::kDiurnal:
          return phase.rate +
                 phase.amplitude *
                     std::sin(2.0 * std::numbers::pi * t / phase.period_s);
      }
    }
    t -= phase.seconds;
  }
  return 0;
}

double TrafficTrace::duration_s() const noexcept {
  if (is_file()) return file_offsets_.back();
  double total = 0;
  for (const TrafficPhase& phase : phases_) total += phase.seconds;
  return total;
}

double TrafficTrace::expected_arrivals() const noexcept {
  if (is_file()) return static_cast<double>(file_offsets_.size());
  double total = 0;
  for (const TrafficPhase& phase : phases_) {
    switch (phase.shape) {
      case TrafficPhase::Shape::kConstant:
      case TrafficPhase::Shape::kBurst:
        total += phase.rate * phase.seconds;
        break;
      case TrafficPhase::Shape::kRamp:
        total += 0.5 * (phase.rate + phase.rate_to) * phase.seconds;
        break;
      case TrafficPhase::Shape::kDiurnal: {
        // ∫ base + amp·sin(2πt/T) dt over [0, S]
        const double two_pi = 2.0 * std::numbers::pi;
        total += phase.rate * phase.seconds +
                 phase.amplitude * phase.period_s / two_pi *
                     (1.0 - std::cos(two_pi * phase.seconds / phase.period_s));
        break;
      }
    }
  }
  return total;
}

// ---------- TrafficEngine ----------

TrafficEngine::TrafficEngine(sim::Engine& engine, TrafficEngineConfig config)
    : engine_(engine), config_(config) {}

void TrafficEngine::add_stream(std::string name, SiegeClient& client,
                               TrafficTrace trace) {
  SODA_EXPECTS(!started_);
  SODA_EXPECTS(!trace.phases().empty() || trace.is_file());
  Stream stream;
  stream.name = std::move(name);
  stream.client = &client;
  stream.trace = std::move(trace);
  // Per-stream deterministic RNG: splitmix-style spread so streams added in
  // the same order draw identical sequences on every replica.
  stream.rng = sim::Rng(config_.seed + 0x9E3779B97F4A7C15ULL *
                                           (streams_.size() + 1));
  stream.stats = sim::StreamingStats(config_.stats);
  stream.stats.reserve_duration(
      sim::SimTime::seconds(stream.trace.duration_s() * 2.0));
  streams_.push_back(std::move(stream));
}

void TrafficEngine::start() {
  SODA_EXPECTS(!started_ && !streams_.empty());
  started_ = true;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Stream& stream = streams_[i];
    stream.t0 = engine_.now();
    install_observer(i);
    schedule_next(stream);
  }
}

void TrafficEngine::install_observer(std::size_t index) {
  streams_[index].client->set_observer(
      [this, index](const SiegeClient::RequestOutcome& o) {
        Stream& s = streams_[index];
        if (o.refused) {
          s.stats.record_error(o.finished);
        } else {
          s.stats.record_latency(o.finished, o.latency_s);
        }
        ++s.resolved;
      });
}

void TrafficEngine::schedule_next(Stream& stream) {
  const std::size_t index =
      static_cast<std::size_t>(&stream - streams_.data());
  if (stream.trace.is_file()) {
    // Recorded replay: the cursor is the scheduled-arrival count, so the
    // checkpoint format already carries it.
    const std::vector<double>& offsets = stream.trace.file_offsets();
    if (stream.scheduled >= offsets.size()) {
      stream.arrivals_done = true;
      return;
    }
    stream.next_arrival =
        stream.t0 + sim::SimTime::seconds(offsets[stream.scheduled]);
  } else {
    // Non-homogeneous Poisson via rate-chasing: each gap is exponential at
    // the instantaneous rate where the previous arrival landed. Exact for
    // constant/burst phases; for ramps and diurnal curves the rate drifts
    // within one gap by at most rate'(t)/rate(t)² — negligible at the rates
    // the benches drive.
    const double offset = (engine_.now() - stream.t0).to_seconds();
    if (offset >= stream.trace.duration_s()) {
      stream.arrivals_done = true;
      return;
    }
    const double rate =
        std::max(stream.trace.rate_at(offset), kMinActiveRate);
    const sim::SimTime gap =
        sim::SimTime::seconds(stream.rng.exponential(1.0 / rate));
    stream.next_arrival = engine_.now() + gap;
  }
  // The queue is shared — from a sharded arrival the schedule is an effect.
  const sim::SimTime when = stream.next_arrival;
  engine_.defer([this, index, when] {
    engine_.schedule_at_sharded(when, sim::Engine::shard_for_stream(
                                          static_cast<std::uint32_t>(index)),
                                [this, index] { arrival_fire(index); });
  });
}

void TrafficEngine::arrival_fire(std::size_t index) {
  // Stream-sharded event: the body touches only this stream (counter, RNG,
  // next-arrival cursor). The injection walks the shared switch/FlowNetwork
  // and the reschedule touches the queue, so both are deferred — and in
  // inject-then-schedule order, matching the serial engine's seq
  // allocation. Moving the RNG draw ahead of the inject is unobservable:
  // injection never reads the stream's RNG.
  Stream& s = streams_[index];
  if (!s.trace.is_file()) {
    const double at = (engine_.now() - s.t0).to_seconds();
    if (at >= s.trace.duration_s()) {
      s.arrivals_done = true;
      return;
    }
  }
  ++s.scheduled;
  // Open loop: the arrival fires regardless of outstanding completions;
  // its latency clock starts *now*, the scheduled time.
  const sim::SimTime at = engine_.now();
  engine_.defer([&s, at] { s.client->inject(at); });
  schedule_next(s);
}

bool TrafficEngine::finished() const noexcept {
  for (const Stream& stream : streams_) {
    if (!stream.arrivals_done) return false;
    if (stream.resolved != stream.scheduled) return false;
  }
  return true;
}

const TrafficEngine::Stream& TrafficEngine::find(std::string_view name) const {
  for (const Stream& stream : streams_) {
    if (stream.name == name) return stream;
  }
  SODA_EXPECTS(false && "unknown traffic stream");
  return streams_.front();
}

const sim::StreamingStats& TrafficEngine::stats(std::string_view name) const {
  return find(name).stats;
}

std::uint64_t TrafficEngine::scheduled(std::string_view name) const {
  return find(name).scheduled;
}

void TrafficEngine::register_gauges(core::MetricsRegistry& metrics) const {
  for (const Stream& stream : streams_) {
    const std::string prefix = "traffic." + stream.name + ".";
    const sim::StreamingStats* stats = &stream.stats;
    metrics.register_gauge(prefix + "p50", [stats] { return stats->p50(); });
    metrics.register_gauge(prefix + "p99", [stats] { return stats->p99(); });
    metrics.register_gauge(prefix + "p999", [stats] { return stats->p999(); });
    metrics.register_gauge(prefix + "error_rate",
                           [stats] { return stats->error_rate(); });
  }
}

template <class Ar>
void TrafficEngine::serialize(Ar& ar) {
  ar.begin_section("traffic_engine");
  ar.boolean(started_);
  ar.expect("traffic stream count mismatch (register the same streams "
            "before load)")
      .u64(streams_.size());
  for (std::size_t i = 0; i < streams_.size() && ar.ok(); ++i) {
    Stream& stream = streams_[i];
    std::string name = stream.name;
    ar.str(name);
    if constexpr (Ar::kLoading) {
      ar.check(name == stream.name, "traffic stream name mismatch: saved '" +
                                        name + "', registered '" +
                                        stream.name + "'");
    }
    ar.walk(stream.rng);
    ar.time(stream.t0);
    ar.time(stream.next_arrival);
    ar.u64(stream.scheduled);
    ar.u64(stream.resolved);
    ar.boolean(stream.arrivals_done);
    ar.walk(stream.stats);
    if constexpr (Ar::kLoading) {
      if (ar.ok() && started_) install_observer(i);
    }
  }
  ar.end_section();
}
template void TrafficEngine::serialize(snapshot::Writer&);
template void TrafficEngine::serialize(snapshot::Reader&);

void TrafficEngine::rearm_arrivals() {
  SODA_EXPECTS(started_);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Stream& stream = streams_[i];
    if (stream.arrivals_done) continue;
    SODA_EXPECTS(stream.next_arrival >= engine_.now());
    engine_.schedule_at_sharded(
        stream.next_arrival,
        sim::Engine::shard_for_stream(static_cast<std::uint32_t>(i)),
        [this, i] { arrival_fire(i); });
  }
}

std::uint64_t TrafficEngine::digest() const noexcept {
  std::uint64_t hash = util::kFnvBasis;
  for (const Stream& stream : streams_) {
    hash = util::fnv1a_word(hash, stream.scheduled);
    hash = util::fnv1a_word(hash, stream.resolved);
    hash = util::fnv1a_word(hash, stream.stats.digest());
  }
  return hash;
}

}  // namespace soda::workload

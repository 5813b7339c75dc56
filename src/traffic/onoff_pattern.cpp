#include "traffic/onoff_pattern.hpp"

#include "sim/error.hpp"

namespace slowcc::traffic {

OnOffPattern::OnOffPattern(sim::Simulator& sim, CbrSource& source,
                           PatternKind kind, double peak_rate_bps,
                           sim::Time on_time, sim::Time off_time,
                           int ramp_steps)
    : sim_(sim),
      source_(source),
      kind_(kind),
      peak_rate_bps_(peak_rate_bps),
      on_time_(on_time),
      off_time_(off_time),
      ramp_steps_(ramp_steps),
      phase_timer_(sim, [this] {
        if (on_phase_) {
          begin_off_phase();
        } else {
          begin_on_phase();
        }
      }),
      ramp_timer_(sim, [this] { ramp_step(current_step_ + 1); }) {
  if (on_time.is_negative() || off_time.is_negative()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "OnOffPattern",
                        "times must be >= 0");
  }
  if (on_time + off_time == sim::Time()) {
    // A zero period would toggle the phases forever at one instant.
    throw sim::SimError(sim::SimErrc::kBadConfig, "OnOffPattern",
                        "on_time + off_time must be > 0");
  }
  if (ramp_steps < 1) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "OnOffPattern",
                        "ramp_steps must be >= 1");
  }
}

void OnOffPattern::start_at(sim::Time at) {
  active_ = true;
  source_.set_rate_bps(0.0);
  source_.start();
  sim_.schedule_at(at, [this] {
    if (active_) begin_on_phase();
  });
}

void OnOffPattern::stop() {
  active_ = false;
  phase_timer_.cancel();
  ramp_timer_.cancel();
  source_.set_rate_bps(0.0);
}

void OnOffPattern::force_on() {
  source_.start();
  source_.set_rate_bps(peak_rate_bps_);
}

void OnOffPattern::force_off() { source_.set_rate_bps(0.0); }

void OnOffPattern::begin_on_phase() {
  if (!active_) return;
  on_phase_ = true;
  switch (kind_) {
    case PatternKind::kSquare:
      source_.set_rate_bps(peak_rate_bps_);
      break;
    case PatternKind::kSawtooth:
      current_step_ = 0;
      ramp_step(1);
      break;
    case PatternKind::kReverseSawtooth:
      current_step_ = 0;
      source_.set_rate_bps(peak_rate_bps_);
      ramp_step(1);
      break;
  }
  phase_timer_.schedule_in(on_time_);
}

void OnOffPattern::begin_off_phase() {
  if (!active_) return;
  on_phase_ = false;
  ramp_timer_.cancel();
  source_.set_rate_bps(0.0);
  phase_timer_.schedule_in(off_time_);
}

void OnOffPattern::ramp_step(int step) {
  if (!active_ || !on_phase_ || step > ramp_steps_) return;
  current_step_ = step;
  const double frac =
      static_cast<double>(step) / static_cast<double>(ramp_steps_);
  if (kind_ == PatternKind::kSawtooth) {
    source_.set_rate_bps(peak_rate_bps_ * frac);
  } else if (kind_ == PatternKind::kReverseSawtooth) {
    source_.set_rate_bps(peak_rate_bps_ * (1.0 - frac) +
                         peak_rate_bps_ / static_cast<double>(ramp_steps_));
  }
  if (step < ramp_steps_) {
    ramp_timer_.schedule_in(
        sim::Time::seconds(on_time_.as_seconds() /
                           static_cast<double>(ramp_steps_)));
  }
}

}  // namespace slowcc::traffic

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace slowcc::exp {

/// Fully-resolved description of one trial in a sweep: a point in the
/// parameter grid plus its deterministically derived seed. TrialDescs
/// are value types handed to worker threads; everything a trial needs
/// is inside (no shared mutable state).
struct TrialDesc {
  std::uint64_t trial_id = 0;  // position in expansion order
  std::string experiment;
  std::string algorithm;     // e.g. "tcp:8", "tfrc:6:c", "tcp+tfrc:6"
  double bandwidth_bps = 0;  // 0 => keep the experiment's default
  double rtt_ms = 0;         // 0 => keep the experiment's default
  /// Experiment-specific numeric parameters (fixed overrides plus the
  /// swept axis value), in deterministic order.
  std::vector<std::pair<std::string, double>> params;
  int trial_index = 0;  // 0..trials-1 within this grid cell
  std::uint64_t seed = 0;
  /// Retry attempt this descriptor is running as (0 = first try). Set
  /// by the runner's retry loop; never part of the grid or cell key.
  /// On retries `seed` is re-derived on a dedicated sub-stream, so a
  /// retried trial sees fresh randomness but the same grid point.
  int attempt = 0;
  /// Multiplier on every warmup/measure duration — lets tests and smoke
  /// sweeps run the full pipeline in milliseconds of simulated time.
  double duration_scale = 1.0;

  /// Value of `params[name]`, or `fallback` when unset.
  [[nodiscard]] double param(std::string_view name,
                             double fallback) const noexcept;

  /// Grid-cell key: every coordinate except trial_index/seed. Rows
  /// sharing a key are replicates of the same configuration.
  [[nodiscard]] std::string cell_key() const;
};

/// A parameter grid over one experiment. `expand()` turns it into the
/// full cross product of trial descriptors with per-trial seeds.
struct SweepSpec {
  /// Required: expand() refuses an unnamed experiment rather than
  /// running some default grid the caller never asked for.
  std::string experiment;
  std::vector<std::string> algorithms = {"tcp"};
  std::vector<double> bandwidths_bps;  // empty => experiment default
  std::vector<double> rtts_ms;         // empty => experiment default
  /// Fixed experiment-specific overrides applied to every trial.
  std::map<std::string, double> fixed;
  /// Optional swept experiment parameter (one extra grid axis).
  std::string sweep_param;
  std::vector<double> sweep_values;
  int trials = 1;  // replicates per grid cell
  std::uint64_t base_seed = 1;
  double duration_scale = 1.0;

  /// Cross product in deterministic order: algorithm (outer) ×
  /// bandwidth × rtt × sweep value × trial (inner). Throws
  /// `sim::SimError` (kBadConfig) on an empty or inconsistent spec.
  [[nodiscard]] std::vector<TrialDesc> expand() const;

  [[nodiscard]] std::size_t trial_count() const noexcept;

  /// Apply one `key = value` assignment (the shared grammar of spec
  /// files and CLI flags). Recognized keys: experiment, algorithms,
  /// bandwidths_mbps, bandwidths_bps, rtts_ms, trials, base_seed,
  /// duration_scale, `sweep <name>`, `set <name>`. Throws on unknown
  /// keys or malformed values.
  void assign(std::string_view key, std::string_view value);

  /// Parse a spec from text: one `key = value` per line, `#` comments.
  [[nodiscard]] static SweepSpec parse_text(std::string_view text);

  /// Parse a spec file from disk. Throws on I/O failure.
  [[nodiscard]] static SweepSpec parse_file(const std::string& path);

  /// Canonical `key = value` rendering: `parse_text(to_text())` equals
  /// this spec, and two specs with identical expansions render
  /// identically. Checkpoint directories store this to refuse a
  /// `--resume` under a different grid.
  [[nodiscard]] std::string to_text() const;

  /// One-line human summary ("oscillation: 3 algs x 7 on_off_length x
  /// 5 trials = 105 trials").
  [[nodiscard]] std::string describe() const;
};

/// Parse all of `text` as an unsigned decimal integer: digits only (no
/// sign, blanks or trailing junk) and no overflow. Throws
/// `sim::SimError` (kBadConfig) under component `what` otherwise, so a
/// CLI flag or spec key never silently runs with a truncated or wrapped
/// value.
[[nodiscard]] std::uint64_t parse_unsigned(std::string_view text,
                                           const std::string& what);

/// Parse all of `text` as a finite double (strtod syntax, no blanks or
/// trailing junk, no overflow or underflow). Throws `sim::SimError` (kBadConfig) under component
/// `what` otherwise.
[[nodiscard]] double parse_finite(std::string_view text,
                                  const std::string& what);

/// Parse a comma-separated list of doubles ("0.05, 0.2,0.8"). Throws
/// `sim::SimError` (kBadConfig) on malformed input.
[[nodiscard]] std::vector<double> parse_double_list(std::string_view text);

/// Parse a comma-separated list of non-empty tokens, trimming blanks.
[[nodiscard]] std::vector<std::string> parse_token_list(
    std::string_view text);

}  // namespace slowcc::exp

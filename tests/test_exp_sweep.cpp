// End-to-end sweep subsystem tests: spec parsing/expansion, the
// experiment registry, and — the property everything else leans on —
// byte-identical results whether trials run on 1 worker or 8.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "exp/aggregator.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/registry.hpp"
#include "exp/result_sink.hpp"
#include "exp/sweep_spec.hpp"
#include "sim/error.hpp"

namespace slowcc {
namespace {

TEST(ExpSweepSpec, ParseTextRoundTrip) {
  const exp::SweepSpec spec = exp::SweepSpec::parse_text(
      "# figure 14 grid\n"
      "experiment = oscillation\n"
      "algorithms = tcp:8, tcp:2, tfrc:6\n"
      "sweep on_off_length = 0.05, 0.2, 0.8\n"
      "set cbr_peak_fraction = 0.5\n"
      "trials = 4\n"
      "base_seed = 7\n"
      "duration_scale = 0.1\n");
  EXPECT_EQ(spec.experiment, "oscillation");
  ASSERT_EQ(spec.algorithms.size(), 3u);
  EXPECT_EQ(spec.algorithms[1], "tcp:2");
  EXPECT_EQ(spec.sweep_param, "on_off_length");
  ASSERT_EQ(spec.sweep_values.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.fixed.at("cbr_peak_fraction"), 0.5);
  EXPECT_EQ(spec.trials, 4);
  EXPECT_EQ(spec.base_seed, 7u);
  EXPECT_EQ(spec.trial_count(), 36u);
}

TEST(ExpSweepSpec, ExpandOrderAndCells) {
  exp::SweepSpec spec;
  spec.experiment = "static_compat";
  spec.algorithms = {"tcp", "tfrc:6"};
  spec.trials = 2;
  const auto trials = spec.expand();
  ASSERT_EQ(trials.size(), 4u);
  // Algorithm is the outer axis, trial the inner; ids follow order.
  EXPECT_EQ(trials[0].algorithm, "tcp");
  EXPECT_EQ(trials[1].algorithm, "tcp");
  EXPECT_EQ(trials[2].algorithm, "tfrc:6");
  EXPECT_EQ(trials[1].trial_index, 1);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].trial_id, i);
  }
  // Replicates share the cell, different algorithms do not.
  EXPECT_EQ(trials[0].cell_key(), trials[1].cell_key());
  EXPECT_NE(trials[0].cell_key(), trials[2].cell_key());
  EXPECT_NE(trials[0].seed, trials[1].seed);
}

TEST(ExpSweepSpec, RejectsMalformedInput) {
  EXPECT_THROW(exp::SweepSpec::parse_text("bogus_key = 1\n"), sim::SimError);
  EXPECT_THROW(exp::SweepSpec::parse_text("trials\n"), sim::SimError);
  EXPECT_THROW((void)exp::parse_double_list("1,x,3"), sim::SimError);
  exp::SweepSpec spec;
  EXPECT_THROW((void)spec.expand(), sim::SimError);  // no experiment named
  spec.experiment = "static_compat";
  spec.trials = 0;
  EXPECT_THROW((void)spec.expand(), sim::SimError);
  spec.trials = 1;
  spec.sweep_param = "x";  // values missing
  EXPECT_THROW((void)spec.expand(), sim::SimError);
}

// CLI flags and spec integers parse the whole string or fail: no
// truncation at junk ("12abc" once ran 12), no wrap of a sign ("-1" once
// ran 2^64 - 1), no overflow, no non-finite doubles.
TEST(ExpSweepSpec, StrictNumberParsing) {
  EXPECT_EQ(exp::parse_unsigned("0", "f"), 0u);
  EXPECT_EQ(exp::parse_unsigned("18446744073709551615", "f"), UINT64_MAX);
  for (const char* bad : {"", "12abc", "-1", "+1", " 1", "1 ", "0x10",
                          "18446744073709551616"}) {
    try {
      (void)exp::parse_unsigned(bad, "--seed");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.code(), sim::SimErrc::kBadConfig);
      EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
    }
  }
  EXPECT_DOUBLE_EQ(exp::parse_finite("0.05", "f"), 0.05);
  EXPECT_DOUBLE_EQ(exp::parse_finite("-3", "f"), -3.0);
  for (const char* bad : {"", "abc", "0.05x", " 1", "inf", "nan", "1e999",
                          "1e-400", "-1e-400"}) {
    EXPECT_THROW((void)exp::parse_finite(bad, "--scale"), sim::SimError)
        << bad;
  }
  EXPECT_THROW(exp::SweepSpec::parse_text("base_seed = -1\n"), sim::SimError);
}

TEST(ExpRunner, PolicyRejectsNegativeWallBudgetAndNanChaos) {
  exp::ParallelRunner runner(1);
  exp::RunnerPolicy policy;
  policy.max_trial_wall_seconds = -3.0;
  EXPECT_THROW(runner.set_policy(policy), sim::SimError);
  policy.max_trial_wall_seconds = 0.0;
  policy.chaos_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(runner.set_policy(policy), sim::SimError);
  policy.chaos_rate = 0.0;
  runner.set_policy(policy);
}

TEST(ExpRegistry, EveryExperimentIsRunnable) {
  // Smoke every registered adapter at a tiny duration scale; no adapter
  // may throw (errors must come back inside the Row).
  for (const exp::Experiment& e : exp::experiments()) {
    exp::TrialDesc d;
    d.experiment = e.name;
    d.algorithm = e.name == "fairness" ? "tcp:2+tfrc:6" : "tcp";
    d.seed = 3;
    d.duration_scale = 0.01;
    const exp::Row row = exp::run_trial(d);
    EXPECT_EQ(row.experiment, e.name) << e.name;
    EXPECT_TRUE(row.error.empty()) << e.name << ": " << row.error;
    EXPECT_FALSE(row.metrics.empty()) << e.name;
    // Declared metrics and emitted metrics must agree (by name; values
    // at this tiny duration scale may legitimately be degenerate).
    for (const std::string& name : e.metrics) {
      bool present = false;
      for (const auto& [k, v] : row.metrics) {
        (void)v;
        if (k == name) present = true;
      }
      EXPECT_TRUE(present) << e.name << " missing metric " << name;
    }
  }
}

TEST(ExpRegistry, BadTokensBecomeRowErrors) {
  exp::TrialDesc d;
  d.experiment = "static_compat";
  d.algorithm = "warp_drive";
  d.duration_scale = 0.01;
  const exp::Row row = exp::run_trial(d);
  EXPECT_FALSE(row.error.empty());
  EXPECT_TRUE(row.metrics.empty());

  d.algorithm = "iiad:c";  // ':c' is tfrc-only
  EXPECT_FALSE(exp::run_trial(d).error.empty());
}

TEST(ExpRunner, JobsOneAndEightAreByteIdentical) {
  // The acceptance property of the whole subsystem: scheduling must not
  // leak into results. Run a real 2x2x2-trial grid both ways and
  // byte-compare the full serialization of rows and aggregates.
  exp::SweepSpec spec;
  spec.experiment = "static_compat";
  spec.algorithms = {"tcp", "tfrc:6"};
  spec.assign("bandwidths_mbps", "10,15");
  spec.trials = 2;
  spec.duration_scale = 0.02;
  const auto trials = spec.expand();
  ASSERT_EQ(trials.size(), 8u);

  const std::vector<exp::Row> serial = exp::ParallelRunner(1).run(trials);
  const std::vector<exp::Row> parallel = exp::ParallelRunner(8).run(trials);
  for (const exp::Row& r : serial) {
    EXPECT_TRUE(r.error.empty()) << r.cell << ": " << r.error;
  }
  EXPECT_EQ(exp::rows_to_jsonl(serial), exp::rows_to_jsonl(parallel));
  EXPECT_EQ(exp::cells_to_jsonl(exp::aggregate(serial)),
            exp::cells_to_jsonl(exp::aggregate(parallel)));
}

TEST(ExpRunner, ExceptionsBecomeRowsNotCrashes) {
  exp::SweepSpec spec;
  spec.experiment = "static_compat";
  spec.algorithms = {"nonsense"};
  spec.trials = 3;
  const std::vector<exp::Row> rows =
      exp::ParallelRunner(4).run(spec.expand());
  ASSERT_EQ(rows.size(), 3u);
  for (const exp::Row& r : rows) {
    EXPECT_FALSE(r.error.empty());
  }
  const auto cells = exp::aggregate(rows);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].errors, 3u);
  EXPECT_EQ(cells[0].trials, 0u);
}

}  // namespace
}  // namespace slowcc

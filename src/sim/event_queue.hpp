#pragma once

#include "sim/wheel_scheduler.hpp"

namespace slowcc::sim {

/// The simulator's event queue: a priority queue of timestamped
/// callbacks, backed by the hierarchical timer wheel. Events with equal
/// timestamps fire in insertion order, which keeps simulations
/// deterministic; tests/engine_diff.hpp holds the wheel to a reference
/// binary heap on every observable.
using EventQueue = WheelScheduler;

}  // namespace slowcc::sim

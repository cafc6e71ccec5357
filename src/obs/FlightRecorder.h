//===- FlightRecorder.h - Per-candidate tuner event log --------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuner flight recorder: one structured record per candidate of
/// every tuning sweep — what was tried, what it hashed to, why it was
/// pruned (or how fast it was predicted to be), whether the evaluation
/// was shared through the structural-hash memo, and how long the
/// evaluation took on the wall.
///
/// The paper's searches evaluate on the order of a thousand candidate
/// kernels per benchmark; this log is what lets us replay such a
/// search after the fact ("which constraint ate the space?", "how much
/// did the memo save?") without rerunning it.
///
/// A sweep is recorded whole, once its candidates are all evaluated,
/// so every recorder call takes the one lock and logs are immutable
/// once recorded.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_OBS_FLIGHTRECORDER_H
#define LIFT_OBS_FLIGHTRECORDER_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lift {
namespace obs {

/// One evaluated (or pruned) point of a tuning search.
struct CandidateRecord {
  std::uint64_t Index = 0;     ///< enumeration order within the sweep
  std::string Variant;         ///< lowering options + launch knobs
  std::uint64_t LoweredHash = 0; ///< structural hash of the lowered IR
                                 ///< (0 when pruned before lowering)
  double PredictedTime = 0;    ///< device-model runtime (s); 0 if pruned
  double GElemsPerSec = 0;     ///< paper's Figure-7 metric; 0 if pruned
  std::string PruneReason;     ///< empty when the candidate was valid
  bool FromMemo = false;       ///< simulation shared via the eval memo
  bool Valid = false;
  double WallMicros = 0;       ///< wall time of this evaluation
  /// Native wall-clock seconds of one kernel execution when the sweep
  /// ran under the measured objective; 0 under the modeled objective.
  double MeasuredTime = 0;
  /// What this sweep ranked candidates by: "modeled" or "measured".
  std::string Objective = "modeled";
};

/// The process-wide recorder. Disabled (and free) by default; the
/// --trace/--metrics/--obs-report driver paths enable it.
class FlightRecorder {
public:
  static FlightRecorder &global();

  void setEnabled(bool On) {
    EnabledFlag.store(On, std::memory_order_relaxed);
  }
  bool enabled() const {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  /// Appends one finished sweep: \p Records in enumeration order.
  void recordSweep(std::string Label, std::vector<CandidateRecord> Records);

  struct TuneLog {
    std::string Label;
    std::vector<CandidateRecord> Records;
  };

  /// Copies all completed sweep logs.
  std::vector<TuneLog> logs() const;

  /// Human-readable replay: per sweep, candidate totals, prune counts
  /// by reason, memo share rate, best variant and wall time.
  std::string summary() const;

  /// JSON array of sweeps:
  /// [{"label":...,"candidates":[{...}, ...]}, ...]
  std::string exportJsonArray() const;

  /// Drops all logs.
  void clear();

private:
  std::atomic<bool> EnabledFlag{false};
  mutable std::mutex M; ///< guards Logs
  std::vector<TuneLog> Logs;
};

} // namespace obs
} // namespace lift

#endif // LIFT_OBS_FLIGHTRECORDER_H

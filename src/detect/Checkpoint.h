//===- detect/Checkpoint.h - Window checkpoint/resume ------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable per-window checkpoints for the detection drivers
/// (`--checkpoint=dir`, docs/ROBUSTNESS.md). The drivers process windows
/// strictly in trace order, so the whole resumable state is "everything
/// accumulated after window K": the store keeps one cumulative snapshot
/// file per completed window and a killed run restarted with the same
/// flags reloads the newest one and continues at window K+1, producing a
/// byte-identical final report.
///
/// File layout inside the directory:
///
///   window-<K>.ckpt     cumulative driver state after window K, written
///                       tmp+rename so a crash never leaves a torn file
///
/// Every file opens with `rvpckpt 1 <fingerprint>`; the fingerprint hashes
/// the trace contents and the detection-relevant flags, so a checkpoint
/// directory can never resume a different analysis. Snapshots with the
/// wrong fingerprint or version are ignored (the run starts from scratch
/// and overwrites them).
///
/// The payload format is owned by the window driver (serializeState/
/// restoreState in WindowDriver.cpp, one format for every property); this
/// class only handles framing, atomicity, and discovery.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_CHECKPOINT_H
#define RVP_DETECT_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <string_view>

namespace rvp {

/// FNV-1a over \p Data folded into \p Seed — the fingerprint hash (stable
/// across platforms and runs, unlike std::hash).
uint64_t checkpointHash(std::string_view Data, uint64_t Seed = 0xcbf29ce484222325ULL);

/// What loadLatest found in the directory, beyond the snapshot itself.
/// FingerprintMismatch means the newest well-formed snapshot was written
/// by a *different* analysis (other trace or flags): resuming over it
/// would silently reanalyze and then overwrite someone else's snapshots,
/// so the drivers refuse with a usage error instead (docs/ROBUSTNESS.md).
/// Stale-version files (a pre-`rvpckpt 1` build) still count as None —
/// overwriting an obsolete format is the upgrade path, not an error.
enum class CheckpointLoad : uint8_t { None, Loaded, FingerprintMismatch };

class CheckpointStore {
public:
  /// Opens (creating if needed) \p Dir for snapshots guarded by
  /// \p Fingerprint. An empty \p Dir disables the store.
  CheckpointStore(std::string Dir, uint64_t Fingerprint);

  bool enabled() const { return !Dir.empty(); }

  /// Loads the newest snapshot whose header matches the fingerprint.
  /// Returns the window index it covers and fills \p Payload (the bytes
  /// after the header line); -1 when there is none. \p Outcome (when
  /// non-null) distinguishes an empty directory from one holding another
  /// analysis' snapshots (CheckpointLoad::FingerprintMismatch).
  int64_t loadLatest(std::string &Payload,
                     CheckpointLoad *Outcome = nullptr) const;

  const std::string &directory() const { return Dir; }

  /// Shared driver reaction to CheckpointLoad::FingerprintMismatch:
  /// diagnose on stderr and exit with the usage code (2). Resuming would
  /// silently reanalyze from scratch and overwrite another analysis'
  /// snapshots — a clear operator error, never something to paper over.
  [[noreturn]] static void refuseMismatch(const CheckpointStore &Store);

  /// Atomically writes the cumulative \p Payload for completed window
  /// \p Index. Returns false on I/O failure (the run continues without
  /// checkpoint coverage; never fatal).
  bool save(uint64_t Index, const std::string &Payload) const;

private:
  std::string fileFor(uint64_t Index) const;

  std::string Dir;
  uint64_t Fingerprint;
};

} // namespace rvp

#endif // RVP_DETECT_CHECKPOINT_H

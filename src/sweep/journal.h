// Crash-safe cell journal: the durability layer under SweepDriver.
//
// A production-scale sweep is hours of grid computation; an OOM kill or a
// preempted container must not forfeit the cells already finished. The
// journal is a thin typed wrapper over the one durable record log
// (runtime/record_log), which owns the file format, the checksum scan,
// torn-tail truncation and every write and sync. What is left here:
//  - the header: magic "VMCWJNL1", version 2, and two binding words, a
//    content hash over every SweepCell (spec, settings, strategy, seed,
//    faults, chaos options) and the cell count. A journal for another grid
//    is stale (the grid was edited since it was written); it is discarded
//    and rewritten, so resuming never mixes results across grids.
//  - the records: each completed SweepCellResult is one record, written
//    with a single write() and fdatasync'd, so it is either fully present
//    or detectably torn. A torn tail is truncated away on resume and the
//    interrupted cell simply recomputes.
//  - the replay policy: one record kind, a cell's outcome (success,
//    planner failure, or the failure text of a cell that threw); the last
//    one per cell wins. A cell runs once, so an outcome is final and a
//    resume replays it; a cell interrupted by the crash leaves no record
//    and is computed again. A version-1 journal, whose records carried an
//    attempt count, has another header: it is stale and recomputed, never
//    decoded with the wrong layout.
//  - the failure policy: a journal that cannot be opened, or whose write
//    or sync fails, closes, and the sweep runs on unjournaled. Journaling
//    is a cache of pure computations, so losing it costs time, not results.
//
// Replayed cells are byte-identical to recomputed ones because a cell is a
// pure function of its SweepCell and the serialization round-trips every
// field bit-exactly (doubles as IEEE-754 bit patterns).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/record_log.h"
#include "sweep/sweep.h"

namespace vmcw {

/// Content hash of an entire sweep grid: every field of every cell, in
/// order. Any edit — a changed knob, an added seed, a reordered strategy —
/// yields a different hash, which is how stale journals are detected.
std::uint64_t sweep_grid_hash(std::span<const SweepCell> cells);

class SweepJournal {
 public:
  /// What open() recovered from an existing journal.
  struct Recovery {
    /// Cell outcome records in index order, one per index (the last one
    /// journaled for an index wins).
    std::vector<SweepCellResult> results;
    bool stale = false;      ///< existing journal was for a different grid
    bool torn_tail = false;  ///< trailing partial/corrupt record dropped
    std::size_t bytes_discarded = 0;  ///< size of the discarded tail
  };

  /// Open (creating if needed) the journal at `path` for the grid
  /// identified by (grid_hash, cell_count). With `resume`, an existing
  /// matching journal's records are recovered; without it — or when the
  /// journal is stale or unreadable — the file is rewritten with a fresh
  /// header. When the file cannot be opened or rewritten the journal stays
  /// closed (is_open() is false).
  Recovery open(const std::string& path, std::uint64_t grid_hash,
                std::size_t cell_count, bool resume);

  bool is_open() const { return log_.is_open(); }

  /// Append the outcome record of one cell. Thread-safe; the record is a
  /// single write() followed by fdatasync, so a crash leaves either no
  /// trace or a complete, replayable record. Returns whether the record is
  /// durable; a failed write or sync closes the journal.
  bool append_result(const SweepCellResult& result);

  void close() { log_.close(); }

  /// Install I/O hooks (nullptr restores the real default); call before
  /// the sweep starts.
  void set_io_hooks(WalIoHooks* hooks) noexcept { log_.set_io_hooks(hooks); }

 private:
  RecordLog log_;
};

}  // namespace vmcw

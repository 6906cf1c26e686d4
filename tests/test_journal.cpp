// Durable sweep execution: crash-safe journal, resume byte-identity and
// per-cell failure isolation.

#include "sweep/journal.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/sweep.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"
#include "test_helpers.h"
#include "trace/presets.h"

namespace vmcw {
namespace {

using testing::small_settings;

/// Two estates x two strategies x two seeds, with fault injection on so
/// the journal round-trips the full RobustnessReport (incidents, SLA
/// windows, per-VM downtime) and not just the fault-free fields.
std::vector<SweepCell> faulted_grid() {
  const WorkloadSpec specs[] = {
      scaled_down(banking_spec(), 16, 168),
      scaled_down(airlines_spec(), 16, 168),
  };
  StudySettings settings = small_settings();
  settings.domains.spread = true;
  const StudySettings all_settings[] = {settings};
  const Strategy strategies[] = {Strategy::kSemiStatic, Strategy::kDynamic};
  const std::uint64_t seeds[] = {7, 99};
  auto cells = SweepDriver::grid(specs, all_settings, strategies, seeds);
  for (auto& cell : cells) {
    cell.faults = FaultSpec::at_intensity(0.5);
    cell.faults.rack_outages_per_month = 20.0;
    cell.faults.domain_outage_hours_min = 2;
    cell.faults.domain_outage_hours_max = 6;
  }
  return cells;
}

void expect_reports_equal(const EmulationReport& a, const EmulationReport& b) {
  EXPECT_EQ(a.eval_hours, b.eval_hours);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.provisioned_hosts, b.provisioned_hosts);
  EXPECT_EQ(a.active_hosts_per_interval, b.active_hosts_per_interval);
  EXPECT_EQ(a.host_avg_cpu_util, b.host_avg_cpu_util);
  EXPECT_EQ(a.host_peak_cpu_util, b.host_peak_cpu_util);
  EXPECT_EQ(a.cpu_contention_samples, b.cpu_contention_samples);
  EXPECT_EQ(a.mem_contention_samples, b.mem_contention_samples);
  EXPECT_EQ(a.hours_with_contention, b.hours_with_contention);
  EXPECT_EQ(a.vm_contention_hours, b.vm_contention_hours);
  EXPECT_EQ(a.total_vm_contention_hours, b.total_vm_contention_hours);
  EXPECT_EQ(a.energy_wh, b.energy_wh);  // bit-exact, not approximate
}

void expect_robustness_equal(const RobustnessReport& a,
                             const RobustnessReport& b) {
  expect_reports_equal(a.emulation, b.emulation);
  EXPECT_EQ(a.host_crashes, b.host_crashes);
  EXPECT_EQ(a.capacity_lost_host_hours, b.capacity_lost_host_hours);
  EXPECT_EQ(a.stale_intervals, b.stale_intervals);
  EXPECT_EQ(a.migration_attempts, b.migration_attempts);
  EXPECT_EQ(a.failed_migration_attempts, b.failed_migration_attempts);
  EXPECT_EQ(a.migration_retries, b.migration_retries);
  EXPECT_EQ(a.migrations_completed, b.migrations_completed);
  EXPECT_EQ(a.migrations_deferred, b.migrations_deferred);
  EXPECT_EQ(a.evacuations, b.evacuations);
  EXPECT_EQ(a.failed_evacuations, b.failed_evacuations);
  EXPECT_EQ(a.vm_downtime_hours, b.vm_downtime_hours);
  EXPECT_EQ(a.vm_down_hours, b.vm_down_hours);
  EXPECT_EQ(a.max_vms_down_simultaneously, b.max_vms_down_simultaneously);
  ASSERT_EQ(a.incidents.size(), b.incidents.size());
  for (std::size_t i = 0; i < a.incidents.size(); ++i) {
    EXPECT_EQ(a.incidents[i].cause, b.incidents[i].cause);
    EXPECT_EQ(a.incidents[i].domain, b.incidents[i].domain);
    EXPECT_EQ(a.incidents[i].start_hour, b.incidents[i].start_hour);
    EXPECT_EQ(a.incidents[i].hosts_lost, b.incidents[i].hosts_lost);
    EXPECT_EQ(a.incidents[i].vms_affected, b.incidents[i].vms_affected);
    EXPECT_EQ(a.incidents[i].vms_stranded, b.incidents[i].vms_stranded);
    EXPECT_EQ(a.incidents[i].recovery_hours, b.incidents[i].recovery_hours);
    EXPECT_EQ(a.incidents[i].max_app_blast_fraction,
              b.incidents[i].max_app_blast_fraction);
  }
  EXPECT_EQ(a.worst_incident_recovery_hours, b.worst_incident_recovery_hours);
  EXPECT_EQ(a.max_app_blast_radius, b.max_app_blast_radius);
  EXPECT_EQ(a.sla_violation_intervals, b.sla_violation_intervals);
}

/// Everything except wall_seconds, which the determinism contract excludes
/// (a replayed cell carries the original cell's wall time).
void expect_results_equal(const SweepCellResult& a, const SweepCellResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.planned, b.planned);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.provisioned_hosts, b.provisioned_hosts);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  expect_reports_equal(a.report, b.report);
  expect_robustness_equal(a.robustness, b.robustness);
}

struct TempFile {
  explicit TempFile(std::string name) : path(std::move(name)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(SweepGridHash, DetectsEveryKindOfGridEdit) {
  const auto cells = faulted_grid();
  const std::uint64_t base = sweep_grid_hash(cells);
  EXPECT_EQ(base, sweep_grid_hash(faulted_grid()));  // stable across builds

  auto edited = faulted_grid();
  edited[2].seed += 1;
  EXPECT_NE(base, sweep_grid_hash(edited));

  edited = faulted_grid();
  edited[0].strategy = Strategy::kStochastic;
  EXPECT_NE(base, sweep_grid_hash(edited));

  edited = faulted_grid();
  edited[1].settings.dynamic_utilization_bound += 0.01;
  EXPECT_NE(base, sweep_grid_hash(edited));

  edited = faulted_grid();
  edited[3].faults.rack_outages_per_month += 1.0;
  EXPECT_NE(base, sweep_grid_hash(edited));

  edited = faulted_grid();
  edited[0].spec.target_avg_cpu_util *= 1.5;
  EXPECT_NE(base, sweep_grid_hash(edited));

  // Reordering and resizing are edits too.
  edited = faulted_grid();
  std::swap(edited[0], edited[1]);
  EXPECT_NE(base, sweep_grid_hash(edited));
  edited = faulted_grid();
  edited.pop_back();
  EXPECT_NE(base, sweep_grid_hash(edited));
}

TEST(SweepJournal, RoundTripsEveryResultField) {
  const auto cells = faulted_grid();
  const auto reference = SweepDriver().run(cells);

  TempFile journal_file("test_journal_roundtrip.bin");
  SweepOptions options;
  options.journal_path = journal_file.path;
  const auto journaled = SweepDriver().run(cells, options);
  ASSERT_EQ(journaled.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_results_equal(journaled[i], reference[i]);

  // Resume against the complete journal: every cell replays, none
  // recomputes, and the replayed bytes equal the originals.
  options.resume = true;
  const std::uint64_t replayed_before =
      MetricsRegistry::global().counter("sweep.journal.cells_replayed");
  const auto resumed = SweepDriver().run(cells, options);
  EXPECT_EQ(
      MetricsRegistry::global().counter("sweep.journal.cells_replayed"),
      replayed_before + cells.size());
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_results_equal(resumed[i], reference[i]);
}

TEST(SweepJournal, KilledSweepResumesByteIdenticalAtAnyThreadCount) {
  const auto cells = faulted_grid();
  const auto reference = SweepDriver().run(cells);

  // A complete journal to carve kill points from.
  TempFile full_journal("test_journal_resume_full.bin");
  SweepOptions options;
  options.journal_path = full_journal.path;
  (void)SweepDriver().run(cells, options);
  const auto full_size = std::filesystem::file_size(full_journal.path);

  // SIGKILL simulation: truncate the journal at an arbitrary byte — the
  // tail record is torn exactly as a crash mid-write would leave it. The
  // resumed run must replay the intact prefix, recompute the rest, and be
  // byte-identical to the uninterrupted reference at any thread count.
  const double kill_points[] = {0.35, 0.6, 0.85};
  const std::size_t threads[] = {1, 2, 8};
  for (std::size_t k = 0; k < 3; ++k) {
    TempFile partial("test_journal_resume_partial_" + std::to_string(k) +
                     ".bin");
    std::filesystem::copy_file(
        full_journal.path, partial.path,
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(
        partial.path,
        static_cast<std::uintmax_t>(kill_points[k] *
                                    static_cast<double>(full_size)));

    ThreadPool pool(threads[k]);
    ScopedPoolOverride scope(pool);
    SweepOptions resume = options;
    resume.journal_path = partial.path;
    resume.resume = true;
    const auto resumed = SweepDriver(&pool).run(cells, resume);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_results_equal(resumed[i], reference[i]);
  }
}

TEST(SweepJournal, StaleJournalFromEditedGridIsDiscarded) {
  auto cells = faulted_grid();
  TempFile journal_file("test_journal_stale.bin");
  SweepOptions options;
  options.journal_path = journal_file.path;
  (void)SweepDriver().run(cells, options);

  // Edit the grid the way a user would between runs: one knob, one cell.
  cells[1].seed = 1234;
  const auto reference = SweepDriver().run(cells);

  options.resume = true;
  const std::uint64_t stale_before =
      MetricsRegistry::global().counter("sweep.journal.stale_discarded");
  const auto resumed = SweepDriver().run(cells, options);
  EXPECT_EQ(
      MetricsRegistry::global().counter("sweep.journal.stale_discarded"),
      stale_before + 1);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_results_equal(resumed[i], reference[i]);
}

TEST(SweepJournal, GarbageTailIsTruncatedNotTrusted) {
  const auto cells = faulted_grid();
  TempFile journal_file("test_journal_garbage.bin");
  SweepOptions options;
  options.journal_path = journal_file.path;
  const auto reference = SweepDriver().run(cells, options);

  {
    std::FILE* f = std::fopen(journal_file.path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x01garbage-that-is-not-a-record";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }

  options.resume = true;
  const auto resumed = SweepDriver().run(cells, options);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_results_equal(resumed[i], reference[i]);
}

TEST(SweepJournal, VersionOneJournalIsStaleAndRecomputed) {
  const auto cells = faulted_grid();
  const std::uint64_t hash = sweep_grid_hash(cells);
  const auto reference = SweepDriver().run(cells);

  // One record in the version-1 layout, built from this build's record of
  // a real cell: the same payload with the little-endian u32 attempt count
  // that layout carried after the error text spliced back in.
  TempFile current("test_journal_v1_source.bin");
  SweepOptions options;
  options.journal_path = current.path;
  (void)SweepDriver().run(cells, options);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(current.path, bytes));
  const std::size_t header_size = 8 + 4 + 8 + 8;
  ASSERT_GT(bytes.size(), header_size + kRecordHeaderSize);
  const std::uint8_t* record = bytes.data() + header_size;
  wire::ByteReader framing(record, kRecordHeaderSize);
  ASSERT_EQ(framing.u8(), 1u);  // the result record kind
  const std::uint64_t length = framing.u64();
  const std::vector<std::uint8_t> payload(
      record + kRecordHeaderSize, record + kRecordHeaderSize + length);
  wire::ByteReader fields(payload.data(), payload.size());
  (void)fields.u64();  // index
  const std::string workload = fields.str();
  (void)fields.u8();  // strategy
  (void)fields.u64();  // seed
  (void)fields.u8();  // planned
  (void)fields.u8();  // status
  const std::string error = fields.str();
  const std::size_t after_error =
      8 + (8 + workload.size()) + 1 + 8 + 1 + 1 + (8 + error.size());
  std::vector<std::uint8_t> v1_payload = payload;
  v1_payload.insert(v1_payload.begin() + after_error, {1, 0, 0, 0});

  const char magic[8] = {'V', 'M', 'C', 'W', 'J', 'N', 'L', '1'};
  std::vector<std::uint8_t> v1 =
      RecordHeader{magic, 1, 2, {hash, cells.size()}}.encode();
  const std::vector<std::uint8_t> v1_record = encode_record(1, v1_payload);
  v1.insert(v1.end(), v1_record.begin(), v1_record.end());
  const auto write_v1 = [&v1](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(v1.data(), 1, v1.size(), f), v1.size());
    std::fclose(f);
  };

  // Opened for resume, the journal is stale and replays nothing.
  TempFile old_journal("test_journal_v1.bin");
  write_v1(old_journal.path);
  {
    SweepJournal journal;
    const auto recovery =
        journal.open(old_journal.path, hash, cells.size(), /*resume=*/true);
    EXPECT_TRUE(recovery.stale);
    EXPECT_TRUE(recovery.results.empty());
  }

  // A resumed sweep over it recomputes every cell.
  write_v1(old_journal.path);
  options.journal_path = old_journal.path;
  options.resume = true;
  const std::uint64_t replayed_before =
      MetricsRegistry::global().counter("sweep.journal.cells_replayed");
  const auto resumed = SweepDriver().run(cells, options);
  EXPECT_EQ(MetricsRegistry::global().counter("sweep.journal.cells_replayed"),
            replayed_before);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_results_equal(resumed[i], reference[i]);
}

/// A cell result with every journaled field set from `i` alone (wall time
/// included), so the byte pin below depends on the journal format only.
SweepCellResult pin_result(std::size_t i) {
  SweepCellResult r;
  r.index = i;
  r.workload = "pin-estate-" + std::to_string(i);
  r.strategy = i % 2 == 0 ? Strategy::kSemiStatic : Strategy::kDynamic;
  r.seed = 1000 + i;
  r.planned = i != 2;
  r.status = i == 2 ? CellStatus::kFailed : CellStatus::kOk;
  r.error = i == 2 ? "pinned failure" : "";
  r.provisioned_hosts = 10 + i;
  r.total_migrations = 3 * i;
  r.report.eval_hours = 48;
  r.report.intervals = 24;
  r.report.provisioned_hosts = 10 + i;
  r.report.active_hosts_per_interval = {9, 10, 10 + i};
  r.report.host_avg_cpu_util = {0.25, 0.5 + 0.01 * static_cast<double>(i)};
  r.report.host_peak_cpu_util = {0.75, 1.25};
  r.report.cpu_contention_samples = {0.125};
  r.report.mem_contention_samples = {};
  r.report.hours_with_contention = i;
  r.report.vm_contention_hours = {0, i, 2};
  r.report.total_vm_contention_hours = i + 2;
  r.report.energy_wh = 1234.5 + static_cast<double>(i);
  r.robustness.emulation = r.report;
  r.robustness.host_crashes = i;
  r.robustness.capacity_lost_host_hours = 0.5 * static_cast<double>(i);
  r.robustness.migration_attempts = 7;
  r.robustness.vm_down_hours = {1, 0, i};
  r.robustness.incidents.push_back(
      IncidentRecord{OutageCause::kRack, 1, 12, 2, 5, 1, 3.5, 0.25});
  r.robustness.sla_violation_intervals = {{1, 3}, {7, 8 + i}};
  r.wall_seconds = 0.5;
  return r;
}

TEST(SweepJournal, FileBytesMatchTheirPin) {
  TempFile journal_file("test_journal_pin.bin");
  {
    SweepJournal journal;
    journal.open(journal_file.path, 0xfeedfacecafebeefULL, /*cell_count=*/4,
                 /*resume=*/false);
    journal.append_result(pin_result(0));
    journal.append_result(pin_result(1));
    journal.append_result(pin_result(2));
    journal.close();
  }
  std::FILE* f = std::fopen(journal_file.path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes;
  for (int c; (c = std::fgetc(f)) != EOF;)
    bytes.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  EXPECT_EQ(bytes.size(), 2169u);
  EXPECT_EQ(wire::fnv1a64(bytes.data(), bytes.size()), 0x85097c2fc13b17c7ULL);
}

/// Journal hooks that fail the `nth` record append: its write with EIO, or
/// — the record having landed — its fdatasync.
class JournalFaultHooks : public WalIoHooks {
 public:
  enum class Fault { kWrite, kSync };
  JournalFaultHooks(Fault fault, std::uint64_t nth) : fault_(fault), nth_(nth) {}

  long write_some(int fd, const std::uint8_t* data,
                  std::size_t size) override {
    if (fault_ == Fault::kWrite && ++writes_ == nth_) {
      errno = EIO;
      return -1;
    }
    return WalIoHooks::write_some(fd, data, size);
  }
  int sync(int fd) override {
    if (fault_ == Fault::kSync && ++syncs_ == nth_) {
      errno = EIO;
      return -1;
    }
    return WalIoHooks::sync(fd);
  }

 private:
  Fault fault_;
  std::uint64_t nth_;
  std::uint64_t writes_ = 0;
  std::uint64_t syncs_ = 0;
};

TEST(SweepJournal, InjectedWriteAndSyncFailuresLeaveAResumablePrefix) {
  const auto cells = faulted_grid();
  const auto reference = SweepDriver().run(cells);
  const struct {
    const char* name;
    JournalFaultHooks::Fault fault;
    std::size_t prefix;  ///< intact records the failure leaves on disk
  } cases[] = {
      {"eio_on_third_write", JournalFaultHooks::Fault::kWrite, 2},
      {"failed_third_sync", JournalFaultHooks::Fault::kSync, 3},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    TempFile journal_file(std::string("test_journal_") + c.name + ".bin");
    SweepOptions options;
    options.journal_path = journal_file.path;
    JournalFaultHooks hooks(c.fault, 3);
    ThreadPool pool(2);
    ScopedPoolOverride scope(pool);

    // The journal closes at the failure; the sweep computes on, unjournaled.
    // Only the two records confirmed durable count as appended.
    const std::uint64_t appended_before =
        MetricsRegistry::global().counter("sweep.journal.cells_appended");
    const auto faulted = SweepDriver(&pool, &hooks).run(cells, options);
    EXPECT_EQ(
        MetricsRegistry::global().counter("sweep.journal.cells_appended"),
        appended_before + 2);
    ASSERT_EQ(faulted.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_results_equal(faulted[i], reference[i]);

    // What is on disk is an intact prefix of the records appended.
    std::vector<bool> journaled(cells.size(), false);
    {
      SweepJournal journal;
      const auto recovery = journal.open(
          journal_file.path, sweep_grid_hash(cells), cells.size(), true);
      EXPECT_FALSE(recovery.torn_tail);
      EXPECT_EQ(recovery.results.size(), c.prefix);
      for (const SweepCellResult& result : recovery.results)
        journaled[result.index] = true;
    }

    // A resume replays exactly that prefix and recomputes every other cell.
    std::vector<int> computed(cells.size(), 0);
    options.resume = true;
    options.cell_hook = [&computed](const SweepCell&, std::size_t index) {
      ++computed[index];
    };
    const auto resumed = SweepDriver(&pool).run(cells, options);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(computed[i], journaled[i] ? 0 : 1) << "cell " << i;
      expect_results_equal(resumed[i], reference[i]);
    }
  }
}

TEST(SweepIsolation, ThrowingCellFailsInItsSlotWithoutPerturbingSiblings) {
  const auto cells = faulted_grid();
  const auto reference = SweepDriver().run(cells);

  const std::size_t victim = 2;
  SweepOptions options;
  options.cell_hook = [victim](const SweepCell&, std::size_t index) {
    if (index == victim) throw std::runtime_error("injected cell failure");
  };
  const auto results = SweepDriver().run(cells, options);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == victim) {
      EXPECT_EQ(results[i].status, CellStatus::kFailed);
      EXPECT_FALSE(results[i].planned);
      EXPECT_EQ(results[i].error, "injected cell failure");
    } else {
      expect_results_equal(results[i], reference[i]);
    }
  }
}

}  // namespace
}  // namespace vmcw

// Adapters binding an IoFaultPlan (chaos/io_faults) onto the service
// layer's injection surfaces: TransportFaults on the collector side and
// WalIoHooks (runtime/record_log) under the telemetry WAL. Header-only so that tests and tools
// can compose a plan with real sockets and a real daemon without adding a
// chaos -> service link edge; consumers link vmcw_service and vmcw_chaos
// themselves.
#pragma once

#include <cstdint>

#include "chaos/io_faults.h"
#include "service/collector.h"
#include "service/telemetry_log.h"

namespace vmcw {

/// One collector's view of the transport fault schedule: forwards every
/// hook to the plan under this collector's key, so N clients sharing one
/// plan fail independently and reproducibly.
class PlannedTransportFaults : public service::TransportFaults {
 public:
  PlannedTransportFaults(const IoFaultPlan& plan, std::uint64_t collector)
      : plan_(&plan), collector_(collector) {}

  bool disconnect_after(std::uint64_t message) override {
    return plan_->disconnect_after(collector_, message);
  }
  bool corrupt_message(std::uint64_t message) override {
    return plan_->corrupt_message(collector_, message);
  }
  std::size_t corrupt_byte(std::uint64_t message, std::size_t size) override {
    return plan_->corrupt_byte(collector_, message, size);
  }
  bool split_write(std::uint64_t message) override {
    return plan_->split_write(collector_, message);
  }
  std::size_t split_point(std::uint64_t message, std::size_t size) override {
    return plan_->split_point(collector_, message, size);
  }

 private:
  const IoFaultPlan* plan_;
  std::uint64_t collector_;
};

/// WAL hooks with a *virtual* fsync clock: writes and fdatasyncs are real,
/// but the latency the FrameLog measures is the plan's injected stall for
/// that sync index — zero when healthy — so shed/recover cycles run in
/// tests without a slow disk or a real sleep. now() is called once before
/// and once after each sync; advancing the clock inside sync() makes the
/// measured latency exactly the injected stall.
class StallingWalHooks : public WalIoHooks {
 public:
  explicit StallingWalHooks(const IoFaultPlan& plan) : plan_(&plan) {}

  int sync(int fd) override {
    const int rc = WalIoHooks::sync(fd);
    clock_ += plan_->fsync_stall(sync_index_++);
    return rc;
  }
  double now() override { return clock_; }

  std::uint64_t syncs() const noexcept { return sync_index_; }

 private:
  const IoFaultPlan* plan_;
  std::uint64_t sync_index_ = 0;
  double clock_ = 0.0;
};

}  // namespace vmcw

// VM-level demand prediction: applies the seasonal-max PeakPredictor
// (analysis/predictor.h) to both resources of a VmWorkload with their
// per-resource safety margins.
#pragma once

#include <vector>

#include "analysis/predictor.h"
#include "core/vm.h"
#include "hardware/server_spec.h"

namespace vmcw {

/// Predicted (CPU, memory) peaks of one VM over consecutive windows. The
/// buffers, the window-peak table among them, are overwritten by every
/// call, so one instance serves a whole fleet and nothing is kept per VM.
class VmDemandPredictor {
 public:
  explicit VmDemandPredictor(PeakPredictor predictor) noexcept
      : predictor_(predictor) {}

  /// Predict the `count` windows [begin + i*len, begin + (i+1)*len) of
  /// `vm`; at(i) reads window i until the next call.
  void predict(const VmWorkload& vm, std::size_t begin, std::size_t len,
               std::size_t count);

  ResourceVector at(std::size_t i) const noexcept {
    return ResourceVector{cpu_[i], mem_[i]};
  }

 private:
  PeakPredictor predictor_;
  std::vector<double> cpu_;
  std::vector<double> mem_;
  std::vector<double> table_;
};

}  // namespace vmcw

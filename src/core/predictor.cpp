#include "core/predictor.h"

namespace vmcw {

void VmDemandPredictor::predict(const VmWorkload& vm, std::size_t begin,
                                std::size_t len, std::size_t count) {
  cpu_.resize(count);
  mem_.resize(count);
  predictor_.predict(vm.cpu_rpe2, begin, len,
                     predictor_.options().cpu_safety_margin, cpu_, table_);
  predictor_.predict(vm.mem_mb, begin, len,
                     predictor_.options().mem_safety_margin, mem_, table_);
}

}  // namespace vmcw

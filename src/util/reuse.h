// Refilling buffers that are kept across calls.
//
// A caller that runs once per tick (the daemon's controller and its
// re-plan) keeps its scratch arrays and refills them in place. When one
// must grow it grows geometrically: assign() would size each new block
// exactly, and reallocate on every tick of a fleet that creeps up one host
// at a time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace vmcw {

/// `v` becomes `n` copies of `value`, in its own storage when that holds
/// `n`, else in a block at least twice the old one.
template <typename T>
void refill(std::vector<T>& v, std::size_t n, const T& value) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
  v.assign(n, value);
}

}  // namespace vmcw

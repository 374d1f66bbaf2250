#ifndef LIFECYCLE_BENCH_COUNTING_ALLOC_H_
#define LIFECYCLE_BENCH_COUNTING_ALLOC_H_

#include <cstdint>

// A counting global allocator for the traced run. The benchmark binary
// replaces operator new/delete with malloc/free wrappers; while
// counting is on they tally allocations and the net heap bytes
// (malloc_usable_size) allocated minus freed, with its running peak.
// Off, the wrappers cost one relaxed load per call, so untraced code
// (the untraced runs, and the traced run's untraced reference builds)
// measures the plain allocator.

namespace lcb::alloc {

// Counting is on between Enable() and Disable(). The byte figures are
// net of what was allocated and freed while it was on, so they read
// heap growth since the first Enable(), not the whole heap.
void Enable();
void Disable();

uint64_t Allocations();
int64_t LiveBytes();
int64_t PeakBytes();
// Restarts peak tracking from the current live bytes.
void ResetPeak();

}  // namespace lcb::alloc

#endif  // LIFECYCLE_BENCH_COUNTING_ALLOC_H_

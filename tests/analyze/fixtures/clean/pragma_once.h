#pragma once

// Clean twin: the header is guarded by #pragma once.
// Expected: no findings.

namespace fixture {
inline int one() { return 1; }
}  // namespace fixture

#ifndef FIXTURE_BAD_GUARD_H_
#define FIXTURE_BAD_GUARD_H_

// Seeded bug: an #ifndef guard instead of #pragma once.
// Expected: ssr-analyze flags [pragma-once] at the guard.

namespace fixture {
inline int one() { return 1; }
}  // namespace fixture

#endif  // FIXTURE_BAD_GUARD_H_

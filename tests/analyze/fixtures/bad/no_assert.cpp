// Seeded bug: assert(), std::abort() and an assert inside a macro body
// terminate without a catchable error.
// Expected: ssr-analyze flags [no-assert] three times.
#include <cassert>
#include <cstdlib>

#define FIXTURE_EXPECT(cond) \
  do {                       \
    assert(cond);            \
  } while (false)

namespace fixture {

inline void check(int v) {
  assert(v >= 0);
  if (v > 100) {
    std::abort();
  }
  FIXTURE_EXPECT(v != 7);
}

}  // namespace fixture

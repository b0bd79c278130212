// Clean twin: a static_assert, a macro that throws, and assert()/abort()
// named only in comments and string literals are not calls.
// Expected: no findings.
#include <stdexcept>
#include <string>

#define FIXTURE_CHECK(cond)                     \
  do {                                          \
    if (!(cond)) {                              \
      throw std::runtime_error("check failed"); \
    }                                           \
  } while (false)

namespace fixture {

static_assert(sizeof(int) >= 4, "int is at least 32 bits");

inline std::string check(int v) {
  FIXTURE_CHECK(v >= 0);  // not assert(v >= 0)
  return "assert(v) and std::abort() are only text here";
}

}  // namespace fixture

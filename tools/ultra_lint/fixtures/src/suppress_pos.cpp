// Fixture: reasonless and unknown-rule suppressions fire ultra-suppress, and
// a reasonless NOLINT does NOT hide the finding it points at. A suppression
// naming a retired rule is an unknown rule id, so it cannot linger.
#include <cassert>

int reasonless(int b) {
  assert(b != 0);  // NOLINT(ultra-check)
  return b;
}

// NOLINTNEXTLINE(ultra-made-up-rule): the rule id does not exist
int unknown_rule(int b) { return b; }

int retired_rule(int b) {
  return b;  // NOLINT(ultra-span-escape): names a rule that no longer exists
}

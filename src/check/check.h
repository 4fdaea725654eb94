// Correctness-enforcement micro-framework: ULTRA_CHECK / ULTRA_DCHECK and
// friends. The paper's guarantees are all invariants (valid clusterings,
// certified distortion, per-round word caps); these macros make violating one
// loud, uniform and cheap to write down.
//
// Families (all stream extra context: `ULTRA_CHECK(x > 0) << "x=" << x;`):
//
//   ULTRA_CHECK(cond)        always-on internal invariant. On failure the
//                            streamed message (with file:line and the failed
//                            expression) is raised as check::CheckError, which
//                            derives from std::logic_error.
//   ULTRA_CHECK_EQ/NE/LT/LE/GT/GE(a, b)
//                            comparison invariants; evaluate a and b exactly
//                            once and print both values on failure.
//   ULTRA_CHECK_ARG(cond)    caller-facing precondition; failure throws
//                            std::invalid_argument (the library's documented
//                            API-misuse exception).
//   ULTRA_CHECK_BOUNDS(cond) index/range precondition; std::out_of_range.
//   ULTRA_CHECK_RUNTIME(cond)
//                            runtime/resource condition (e.g. a protocol
//                            exceeding its round budget); std::runtime_error.
//   ULTRA_DCHECK(cond)       as ULTRA_CHECK but compiled out under NDEBUG;
//                            for O(n)-ish validation in hot paths. The
//                            condition is never evaluated when disabled.
//
// An uncaught CheckError terminates with the full message — so in
// non-test binaries a failed check is still effectively abort-with-message,
// while tests can assert rejection with EXPECT_THROW.
// The header is dependency-free and header-only so that every layer —
// including the util headers at the bottom of the stack — can use the macros
// without linking anything; the certify validators live in the compiled
// ultra_check library.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace ultra::check {

// Raised by failed ULTRA_CHECK / ULTRA_DCHECK (invariant kind).
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace internal {

enum class Kind : unsigned char {
  kInvariant,  // CheckError
  kArgument,   // std::invalid_argument
  kBounds,     // std::out_of_range
  kRuntime,    // std::runtime_error
};

constexpr const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kArgument:
      return "ULTRA_CHECK_ARG";
    case Kind::kBounds:
      return "ULTRA_CHECK_BOUNDS";
    case Kind::kRuntime:
      return "ULTRA_CHECK_RUNTIME";
    case Kind::kInvariant:
      break;
  }
  return "ULTRA_CHECK";
}

// Accumulates the streamed context for one failing check; its destructor
// raises. Only ever constructed on the failure path, and only as a
// full-expression temporary, so the throwing destructor (noexcept(false))
// can never run during unwinding.
class FailureStream {
 public:
  FailureStream(Kind kind, const char* file, int line, const char* expr)
      : kind_(kind) {
    stream_ << kind_name(kind) << " failed: " << expr << " [" << file << ":"
            << line << "] ";
  }
  FailureStream(const FailureStream&) = delete;
  FailureStream& operator=(const FailureStream&) = delete;

  [[noreturn]] ~FailureStream() noexcept(false) {
    const std::string message = stream_.str();
    switch (kind_) {
      case Kind::kArgument:
        throw std::invalid_argument(message);
      case Kind::kBounds:
        throw std::out_of_range(message);
      case Kind::kRuntime:
        throw std::runtime_error(message);
      case Kind::kInvariant:
        break;
    }
    throw CheckError(message);
  }

  [[nodiscard]] std::ostream& stream() noexcept { return stream_; }

 private:
  Kind kind_;
  std::ostringstream stream_;
};

// Swallows the stream expression in the ?: below so both branches are void.
struct Voidify {
  void operator&(std::ostream&) const noexcept {}
};

// Single-evaluation comparison support: returns the formatted "lhs vs rhs"
// text on failure, empty string on success (empty => check passed).
template <typename A, typename B, typename Pred>
[[nodiscard]] std::string check_op(const A& a, const B& b, Pred pred) {
  if (pred(a, b)) return {};
  std::ostringstream os;
  os << "(" << a << " vs " << b << ") ";
  std::string text = os.str();
  if (text == "( vs ) ") text = "(values unprintable) ";
  return text;
}

}  // namespace internal
}  // namespace ultra::check

#define ULTRA_CHECK_IMPL_(kind, cond)                                        \
  (cond) ? (void)0                                                           \
         : ::ultra::check::internal::Voidify() &                             \
               ::ultra::check::internal::FailureStream(                      \
                   ::ultra::check::internal::Kind::kind, __FILE__, __LINE__, \
                   #cond)                                                    \
                   .stream()

#define ULTRA_CHECK(cond) ULTRA_CHECK_IMPL_(kInvariant, cond)
#define ULTRA_CHECK_ARG(cond) ULTRA_CHECK_IMPL_(kArgument, cond)
#define ULTRA_CHECK_BOUNDS(cond) ULTRA_CHECK_IMPL_(kBounds, cond)
#define ULTRA_CHECK_RUNTIME(cond) ULTRA_CHECK_IMPL_(kRuntime, cond)

// `for` (not `if`) avoids dangling-else; the body raises, so it runs at
// most once. The operands are evaluated exactly once, inside check_op.
#define ULTRA_CHECK_OP_IMPL_(a, b, op, pred)                                  \
  for (const std::string ultra_check_op_text_ =                               \
           ::ultra::check::internal::check_op((a), (b), pred);                \
       !ultra_check_op_text_.empty();)                                        \
  ::ultra::check::internal::FailureStream(                                    \
      ::ultra::check::internal::Kind::kInvariant, __FILE__, __LINE__,         \
      #a " " #op " " #b)                                                      \
          .stream()                                                           \
      << ultra_check_op_text_

#define ULTRA_CHECK_EQ(a, b) \
  ULTRA_CHECK_OP_IMPL_(a, b, ==, [](const auto& x, const auto& y) { return x == y; })
#define ULTRA_CHECK_NE(a, b) \
  ULTRA_CHECK_OP_IMPL_(a, b, !=, [](const auto& x, const auto& y) { return x != y; })
#define ULTRA_CHECK_LT(a, b) \
  ULTRA_CHECK_OP_IMPL_(a, b, <, [](const auto& x, const auto& y) { return x < y; })
#define ULTRA_CHECK_LE(a, b) \
  ULTRA_CHECK_OP_IMPL_(a, b, <=, [](const auto& x, const auto& y) { return x <= y; })
#define ULTRA_CHECK_GT(a, b) \
  ULTRA_CHECK_OP_IMPL_(a, b, >, [](const auto& x, const auto& y) { return x > y; })
#define ULTRA_CHECK_GE(a, b) \
  ULTRA_CHECK_OP_IMPL_(a, b, >=, [](const auto& x, const auto& y) { return x >= y; })

// Debug-only: under NDEBUG the condition (and any streamed context) is never
// evaluated; `true || (cond)` keeps it parsed so it cannot rot.
#ifdef NDEBUG
#define ULTRA_DCHECK(cond) ULTRA_CHECK(true || (cond))
#else
#define ULTRA_DCHECK(cond) ULTRA_CHECK(cond)
#endif

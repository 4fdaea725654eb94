// Lexer fixture, positive: after a raw string full of decoy tokens and a
// digraph block, the real rand() call must still be a token at exactly its
// own line (the lexer resynchronized). Read by tests/ultra_lint_test.cpp.
#include <cstdlib>

const char* decoy = R"del(rand() is only text here; so is time(0))del";

int roll() <%
  return rand();  // the one real rand token, line 9
%>

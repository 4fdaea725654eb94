// Lexer fixture, negative: banned identifiers inside raw strings (default
// and custom delimiters, every encoding prefix), digraph punctuation and a
// line-continued preprocessor directive must yield no banned token.
// Everything scary here is string content or plain syntax.
const char* a = R"(rand() and std::random_device are just text)";
const char* b = R"seed(time(nullptr) hides behind a custom delimiter)seed";
const wchar_t* c = LR"x(getenv("HOME") in a wide raw string)x";
const char* d = u8R"tag(steady_clock::now() as UTF-8 text)tag";
const char16_t* e = uR"(srand(7))";
const char32_t* f = UR"y(a quote " and a paren ) inside)y";
#define CONTINUED_HELPER(x) \
  consume_value(x)
int digraph_array<:3:> = <%1, 2, 3%>;
void consume_value(int);
void use_all() {
  CONTINUED_HELPER(digraph_array<:0:>);
}

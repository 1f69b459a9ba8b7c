#include "devil/compiler.h"

#include <sstream>

#include "devil/lexer.h"
#include "devil/parser.h"

namespace devil {

namespace {

CompileResult run(const std::string& name, const std::string& text,
                  std::optional<CodegenMode> mode) {
  CompileResult result;
  support::SourceBuffer buf(name, text);
  Lexer lexer(buf, result.diags);
  auto tokens = lexer.lex_all();
  if (result.diags.has_errors()) return result;
  Parser parser(tokens, result.diags);
  auto spec = parser.parse();
  if (!spec) return result;
  result.spec = std::make_unique<Specification>(std::move(*spec));
  result.info = Sema(result.diags).check(*result.spec);
  if (result.info && mode) {
    result.stubs = generate_stubs(*result.info, *mode, name);
  }
  return result;
}

}  // namespace

CompileResult compile_spec(const std::string& name, const std::string& text,
                           CodegenMode mode) {
  return run(name, text, mode);
}

CompileResult check_spec(const std::string& name, const std::string& text) {
  return run(name, text, std::nullopt);
}

std::string describe_device(const DeviceInfo& info) {
  std::ostringstream os;
  os << "device " << info.decl->name << ": " << info.decl->params.size()
     << " port(s), " << info.decl->registers.size() << " register(s), "
     << info.decl->variables.size() << " variable(s)\n";
  for (const auto& r : info.decl->registers) {
    const RegInfo& ri = info.registers.at(r.name);
    os << "  register " << r.name << " : bit[" << r.size_bits << "] "
       << (ri.access == Access::kRead
               ? "read-only"
               : ri.access == Access::kWrite ? "write-only" : "read-write")
       << " mask '" << ri.mask << "'\n";
  }
  for (const auto& v : info.decl->variables) {
    const VarInfo& vi = info.variables.at(v.name);
    os << "  " << (v.is_private ? "private " : "") << "variable " << v.name
       << " : " << vi.width_bits << " bit(s), type-id " << vi.type_id << "\n";
  }
  return os.str();
}

}  // namespace devil

#include "util/error.hpp"

namespace mltc {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::None: return "none";
      case ErrorCode::Io: return "io";
      case ErrorCode::Truncated: return "truncated";
      case ErrorCode::BadMagic: return "bad-magic";
      case ErrorCode::BadOpcode: return "bad-opcode";
      case ErrorCode::Corrupt: return "corrupt";
      case ErrorCode::Timeout: return "timeout";
      case ErrorCode::Transient: return "transient";
      case ErrorCode::RetryExhausted: return "retry-exhausted";
      case ErrorCode::OutOfRange: return "out-of-range";
      case ErrorCode::BadArgument: return "bad-argument";
      case ErrorCode::VersionMismatch: return "version-mismatch";
      case ErrorCode::AuditViolation: return "audit-violation";
    }
    return "?";
}

std::string
Error::describe() const
{
    // Appended piecewise: the equivalent `"[" + std::string(...)` chain
    // trips a GCC 12 -Wrestrict false positive inside libstdc++.
    std::string out(1, '[');
    out += errorCodeName(code);
    out += "] ";
    out += message;
    return out;
}

} // namespace mltc

#include "runtime/resident_cache.h"

#include "common/env.h"

namespace trinity {
namespace runtime {

size_t
budgetFromEnv(const char *var, size_t fallback)
{
    u64 v = fallback;
    envU64(var, v);
    return static_cast<size_t>(v);
}

} // namespace runtime
} // namespace trinity

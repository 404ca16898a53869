// The untraced binary keeps the standard allocator; nothing is counted.
#include "common.hpp"

std::uint64_t perfbench::allocation_count() noexcept { return 0; }

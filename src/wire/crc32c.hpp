// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// frame trailer checksum of the wire protocol. Portable software
// slicing-by-8: eight constexpr-built 256-entry tables fold eight input
// bytes per step (a byte-at-a-time tail finishes the rest). No CPU dispatch
// and no SSE4.2 path, so every build the tree supports runs the same code.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qosnp::wire {

/// CRC32C of `size` bytes starting at `data`, seeded with `seed` (pass a
/// previous return value to continue a running checksum over split
/// buffers). The empty-input checksum with the default seed is 0.
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed = 0);

}  // namespace qosnp::wire

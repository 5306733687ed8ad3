// Dataset I/O (paper Fig. 1 and Sec. II-C): applications can hand file
// I/O to the library — meshes are declared from container files, and
// "there are API calls to dump entire datasets to disk, even in a
// distributed memory environment".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apl/io/h5lite.hpp"
#include "op2/context.hpp"
#include "op2/dist.hpp"

namespace op2 {

/// A dat's logical content in AoS entry order, independent of its layout.
std::vector<std::uint8_t> pack_entries(const DatBase& dat);

/// The inverse of pack_entries; a size mismatch throws, naming `what`.
void unpack_entries(DatBase& dat, std::span<const std::uint8_t> bytes,
                    const std::string& what);

/// Writes every dat of the context into `file` under "dat/<name>"
/// (AoS order, with a "<name>/dim" attribute dataset).
void dump_dats(Context& ctx, apl::io::File& file);

/// Distributed variant: gathers authoritative owner values from the ranks
/// first, then dumps — usable mid-run for debugging, exactly as in OP2.
void dump_dats(Distributed& dist, apl::io::File& file);

/// Restores previously dumped dats by name (missing names are left
/// untouched; size/dim mismatches throw).
void load_dats(Context& ctx, const apl::io::File& file);

}  // namespace op2

#include "hub/dispatcher.hh"

#include "common/logging.hh"

namespace pimphony {

void
OnModuleDispatcher::registerRequest(RequestId id, Tokens tokens)
{
    if (state_.count(id))
        panic("request %u registered twice", id);
    RequestState st;
    st.tokens = tokens;
    state_.emplace(id, std::move(st));
    ++hostMessages_;
}

void
OnModuleDispatcher::mapChunk(RequestId id, std::uint64_t physical_chunk)
{
    auto it = state_.find(id);
    if (it == state_.end())
        panic("mapChunk on unknown request %u", id);
    it->second.chunks.push_back(physical_chunk);
    ++hostMessages_;
}

void
OnModuleDispatcher::advanceToken(RequestId id)
{
    auto it = state_.find(id);
    if (it == state_.end())
        panic("advanceToken on unknown request %u", id);
    ++it->second.tokens; // local update; no host round-trip
}

void
OnModuleDispatcher::release(RequestId id)
{
    if (state_.erase(id) == 0)
        panic("release on unknown request %u", id);
    ++hostMessages_;
}

const OnModuleDispatcher::RequestState &
OnModuleDispatcher::stateOf(RequestId id) const
{
    auto it = state_.find(id);
    if (it == state_.end())
        panic("unknown request %u", id);
    return it->second;
}

Tokens
OnModuleDispatcher::tokens(RequestId id) const
{
    return stateOf(id).tokens;
}

RowIndex
OnModuleDispatcher::translate(RequestId id, RowIndex virtual_row) const
{
    const RequestState &st = stateOf(id);
    if (virtual_row < 0)
        panic("negative virtual row %lld",
              static_cast<long long>(virtual_row));
    std::uint64_t vchunk =
        static_cast<std::uint64_t>(virtual_row) / params_.rowsPerChunk;
    std::uint64_t offset =
        static_cast<std::uint64_t>(virtual_row) % params_.rowsPerChunk;
    if (vchunk >= st.chunks.size())
        panic("virtual row %lld beyond mapped chunks of request %u",
              static_cast<long long>(virtual_row), id);
    return static_cast<RowIndex>(st.chunks[vchunk] * params_.rowsPerChunk +
                                 offset);
}

std::vector<PimInstruction>
OnModuleDispatcher::expand(const DpaProgram &program, RequestId id) const
{
    const RequestState &st = stateOf(id);
    return program.expand(st.tokens, [this, id](RowIndex v) {
        return translate(id, v);
    });
}

OnModuleDispatcher::Footprint
OnModuleDispatcher::footprint() const
{
    Footprint bytes;
    for (const auto &[id, st] : state_) {
        bytes.config += 16;                  // config entry (id, T_cur, flags)
        bytes.va2pa += st.chunks.size() * 8; // VA2PA entries
    }
    return bytes;
}

Bytes
OnModuleDispatcher::stateBytes() const
{
    Footprint bytes = footprint();
    return bytes.config + bytes.va2pa;
}

bool
OnModuleDispatcher::fitsHardware() const
{
    Footprint bytes = footprint();
    return bytes.config <= params_.configBufferBytes &&
           bytes.va2pa <= params_.va2paBufferBytes;
}

} // namespace pimphony

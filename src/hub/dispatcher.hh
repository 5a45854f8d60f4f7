/**
 * @file
 * On-module PIM instruction dispatcher for DPA (Sec. VI-C).
 *
 * The dispatcher lives in the PIM HUB and holds, per active request:
 * a configuration entry (request id, current token length T_cur) and
 * a VA2PA table mapping virtual KV-cache chunks to physical chunks.
 * At decode time it expands the compact DPA-encoded program against
 * the request's T_cur and resolves virtual MAC rows to physical rows.
 * Decoding is pipelined with execution, so it adds no latency on the
 * critical path; the host is involved only when a request is
 * registered, needs a new chunk, or completes.
 */

#ifndef PIMPHONY_HUB_DISPATCHER_HH
#define PIMPHONY_HUB_DISPATCHER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/dpa.hh"

namespace pimphony {

struct DispatcherParams
{
    /** Rows covered by one physical chunk (1 MiB / row bytes). */
    std::uint64_t rowsPerChunk = 64;

    /** Instruction buffer capacity (compact DPA programs). */
    Bytes instructionBufferBytes = 64 * 1024;

    /** Configuration buffer capacity. */
    Bytes configBufferBytes = 4 * 1024;

    /** VA2PA table capacity. */
    Bytes va2paBufferBytes = 128 * 1024;
};

// paper component: the Sec. VI-C HUB dispatcher (config + VA2PA buffers)
class OnModuleDispatcher
{
  public:
    explicit OnModuleDispatcher(const DispatcherParams &params = {})
        : params_(params)
    {
    }

    /** Host installs a new request with its initial token length. */
    void registerRequest(RequestId id, Tokens tokens);

    /** Host maps one more physical chunk to the request's next
     *  virtual chunk. */
    void mapChunk(RequestId id, std::uint64_t physical_chunk);

    /** Dispatcher-local token increment after each generated token
     *  (no host involvement). */
    void advanceToken(RequestId id);

    /** Host releases a completed request. */
    void release(RequestId id);

    Tokens tokens(RequestId id) const;

    /** Virtual row -> physical row for @p id. Rows beyond the mapped
     *  chunks are a fatal programming error. */
    RowIndex translate(RequestId id, RowIndex virtual_row) const;

    /**
     * Expand a DPA program for @p id: Dyn-Loop bounds resolve against
     * the request's T_cur and MAC rows translate through VA2PA.
     */
    std::vector<PimInstruction> expand(const DpaProgram &program,
                                       RequestId id) const;

    /** Host<->module messages so far (register/map/release only). */
    std::uint64_t hostMessages() const { return hostMessages_; }

    /** Bytes of dispatcher state currently in use. */
    Bytes stateBytes() const;

    /** True when all per-request state fits the hardware buffers. */
    bool fitsHardware() const;

    std::size_t activeRequests() const { return state_.size(); }

    const DispatcherParams &params() const { return params_; }

  private:
    struct RequestState
    {
        Tokens tokens = 0;
        std::vector<std::uint64_t> chunks; // VA chunk -> PA chunk
    };

    /** Config-buffer and VA2PA-buffer bytes in use. */
    struct Footprint
    {
        Bytes config = 0;
        Bytes va2pa = 0;
    };

    const RequestState &stateOf(RequestId id) const;
    Footprint footprint() const;

    DispatcherParams params_;
    std::unordered_map<RequestId, RequestState> state_;
    std::uint64_t hostMessages_ = 0;
};

} // namespace pimphony

#endif // PIMPHONY_HUB_DISPATCHER_HH

/**
 * @file
 * A small tensor-operation IR standing in for the paper's MLIR
 * frontend. The compiler's job in PIMphony is (1) recognize the
 * PIM-amenable subgraphs of a Transformer decoder layer (QK^T, SV,
 * the FC stack), and (2) lower them to PIM instruction programs in
 * either the fully unrolled static form or the compact DPA form.
 * Both products are exercised here; parsing real model files is not,
 * because the evaluated workloads are the fixed Table I decoders.
 */

#ifndef PIMPHONY_COMPILER_IR_HH
#define PIMPHONY_COMPILER_IR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "model/llm.hh"

namespace pimphony {

enum class OpKind : std::uint8_t {
    Input,     ///< layer input activation
    Weight,    ///< model parameter tensor
    KvCache,   ///< K or V cache (token-major, grows at runtime)
    MatMul,    ///< C = A x B (B possibly transposed)
    Softmax,
    RmsNorm,
    SiLU,
    Mul,       ///< elementwise
    Add,       ///< elementwise / residual
    KvAppend,  ///< append current K/V vector to the cache
};

/** Symbolic tensor shape; kTokenDim marks the runtime token axis. */
inline constexpr std::int64_t kTokenDim = -1;

struct TensorShape
{
    std::vector<std::int64_t> dims;
};

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

struct IrNode
{
    NodeId id = kNoNode;
    OpKind kind = OpKind::Input;
    std::string name;
    TensorShape shape;
    std::vector<NodeId> inputs;

    /** MatMul: right operand is transposed. */
    bool transposeB = false;
};

class IrGraph
{
  public:
    NodeId addNode(OpKind kind, std::string name, TensorShape shape,
                   std::vector<NodeId> inputs = {},
                   bool transpose_b = false);

    const IrNode &node(NodeId id) const;
    const std::vector<IrNode> &nodes() const { return nodes_; }
    std::size_t size() const { return nodes_.size(); }

    /** Users of @p id (nodes listing it as an input). */
    std::vector<NodeId> usersOf(NodeId id) const;

  private:
    std::vector<IrNode> nodes_;
};

/**
 * Build one Transformer decoder layer for @p model in decode mode
 * (one new token attending over the KV cache), mirroring Fig. 1.
 */
IrGraph buildDecoderLayer(const LlmConfig &model);

} // namespace pimphony

#endif // PIMPHONY_COMPILER_IR_HH

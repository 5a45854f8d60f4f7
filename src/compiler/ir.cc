#include "compiler/ir.hh"

#include "common/logging.hh"

namespace pimphony {

NodeId
IrGraph::addNode(OpKind kind, std::string name, TensorShape shape,
                 std::vector<NodeId> inputs, bool transpose_b)
{
    for (NodeId in : inputs)
        if (in < 0 || static_cast<std::size_t>(in) >= nodes_.size())
            panic("node '%s' references unknown input %d", name.c_str(),
                  in);
    IrNode n;
    n.id = static_cast<NodeId>(nodes_.size());
    n.kind = kind;
    n.name = std::move(name);
    n.shape = std::move(shape);
    n.inputs = std::move(inputs);
    n.transposeB = transpose_b;
    nodes_.push_back(n);
    return nodes_.back().id;
}

const IrNode &
IrGraph::node(NodeId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
        panic("unknown node id %d", id);
    return nodes_[static_cast<std::size_t>(id)];
}

std::vector<NodeId>
IrGraph::usersOf(NodeId id) const
{
    std::vector<NodeId> out;
    for (const auto &n : nodes_)
        for (NodeId in : n.inputs)
            if (in == id)
                out.push_back(n.id);
    return out;
}

IrGraph
buildDecoderLayer(const LlmConfig &model)
{
    IrGraph g;
    std::int64_t d = model.dModel;
    std::int64_t dh = model.headDim;
    std::int64_t kv_dim =
        static_cast<std::int64_t>(model.kvHeads()) * model.headDim;

    NodeId x = g.addNode(OpKind::Input, "hidden", {{1, d}});
    NodeId norm1 = g.addNode(OpKind::RmsNorm, "attn_norm", {{1, d}}, {x});

    NodeId wq = g.addNode(OpKind::Weight, "w_q", {{d, d}});
    NodeId wk = g.addNode(OpKind::Weight, "w_k", {{kv_dim, d}});
    NodeId wv = g.addNode(OpKind::Weight, "w_v", {{kv_dim, d}});
    NodeId q = g.addNode(OpKind::MatMul, "q_proj", {{1, d}}, {norm1, wq},
                         true);
    NodeId k = g.addNode(OpKind::MatMul, "k_proj", {{1, kv_dim}},
                         {norm1, wk}, true);
    NodeId v = g.addNode(OpKind::MatMul, "v_proj", {{1, kv_dim}},
                         {norm1, wv}, true);

    NodeId kcache = g.addNode(OpKind::KvCache, "k_cache",
                              {{kTokenDim, dh}});
    NodeId vcache = g.addNode(OpKind::KvCache, "v_cache",
                              {{kTokenDim, dh}});
    g.addNode(OpKind::KvAppend, "k_append", {{kTokenDim, dh}},
              {kcache, k});
    g.addNode(OpKind::KvAppend, "v_append", {{kTokenDim, dh}},
              {vcache, v});

    // Per-head attention over the cache: scores = K x q^T.
    NodeId scores = g.addNode(OpKind::MatMul, "qkt", {{1, kTokenDim}},
                              {q, kcache}, true);
    NodeId probs =
        g.addNode(OpKind::Softmax, "softmax", {{1, kTokenDim}}, {scores});
    NodeId ctx = g.addNode(OpKind::MatMul, "sv", {{1, dh}},
                           {probs, vcache}, false);

    NodeId wo = g.addNode(OpKind::Weight, "w_o", {{d, d}});
    NodeId attn_out =
        g.addNode(OpKind::MatMul, "o_proj", {{1, d}}, {ctx, wo}, true);
    NodeId resid1 =
        g.addNode(OpKind::Add, "residual1", {{1, d}}, {x, attn_out});

    NodeId norm2 =
        g.addNode(OpKind::RmsNorm, "ffn_norm", {{1, d}}, {resid1});
    NodeId wg = g.addNode(OpKind::Weight, "w_gate",
                          {{static_cast<std::int64_t>(model.dFfn), d}});
    NodeId wu = g.addNode(OpKind::Weight, "w_up",
                          {{static_cast<std::int64_t>(model.dFfn), d}});
    NodeId wd = g.addNode(OpKind::Weight, "w_down",
                          {{d, static_cast<std::int64_t>(model.dFfn)}});
    NodeId gate = g.addNode(OpKind::MatMul, "gate_proj",
                            {{1, static_cast<std::int64_t>(model.dFfn)}},
                            {norm2, wg}, true);
    NodeId up = g.addNode(OpKind::MatMul, "up_proj",
                          {{1, static_cast<std::int64_t>(model.dFfn)}},
                          {norm2, wu}, true);
    NodeId act = g.addNode(OpKind::SiLU, "silu",
                           {{1, static_cast<std::int64_t>(model.dFfn)}},
                           {gate});
    NodeId fused = g.addNode(OpKind::Mul, "gated",
                             {{1, static_cast<std::int64_t>(model.dFfn)}},
                             {act, up});
    NodeId down = g.addNode(OpKind::MatMul, "down_proj", {{1, d}},
                            {fused, wd}, true);
    g.addNode(OpKind::Add, "residual2", {{1, d}}, {resid1, down});
    return g;
}

} // namespace pimphony

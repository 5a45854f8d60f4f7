#include "isa/pim_command.hh"

#include <cstdio>
#include <vector>

namespace pimphony {

PimCommand
PimCommand::wrInp(std::int32_t gbuf_idx)
{
    PimCommand c;
    c.kind = CommandKind::WrInp;
    c.gbufIdx = gbuf_idx;
    return c;
}

PimCommand
PimCommand::mac(std::int32_t gbuf_idx, std::int32_t out_idx, RowIndex row,
                std::int32_t col)
{
    PimCommand c;
    c.kind = CommandKind::Mac;
    c.gbufIdx = gbuf_idx;
    c.outIdx = out_idx;
    c.row = row;
    c.col = col;
    return c;
}

PimCommand
PimCommand::rdOut(std::int32_t out_idx)
{
    PimCommand c;
    c.kind = CommandKind::RdOut;
    c.outIdx = out_idx;
    return c;
}

std::string
PimCommand::toString() const
{
    char buf[96];
    switch (kind) {
      case CommandKind::WrInp:
        std::snprintf(buf, sizeof(buf), "W%llu(g%d)",
                      static_cast<unsigned long long>(id), gbufIdx);
        break;
      case CommandKind::Mac:
        std::snprintf(buf, sizeof(buf), "M%llu(g%d,o%d,r%lld,c%d)",
                      static_cast<unsigned long long>(id), gbufIdx, outIdx,
                      static_cast<long long>(row), col);
        break;
      case CommandKind::RdOut:
        std::snprintf(buf, sizeof(buf), "R%llu(o%d)",
                      static_cast<unsigned long long>(id), outIdx);
        break;
    }
    return buf;
}

void
CommandStream::append(PimCommand cmd)
{
    cmd.id = commands_.size();
    commands_.push_back(cmd);
}

std::string
CommandStream::validate(unsigned gbuf_entries, unsigned output_entries) const
{
    std::vector<bool> gbuf_written(gbuf_entries, false);
    std::vector<bool> out_written(output_entries, false);
    char buf[128];

    for (const auto &c : commands_) {
        switch (c.kind) {
          case CommandKind::WrInp:
            if (c.gbufIdx < 0 ||
                c.gbufIdx >= static_cast<std::int32_t>(gbuf_entries)) {
                std::snprintf(buf, sizeof(buf),
                              "WR-INP %llu: gbuf index %d out of range",
                              static_cast<unsigned long long>(c.id),
                              c.gbufIdx);
                return buf;
            }
            gbuf_written[static_cast<std::size_t>(c.gbufIdx)] = true;
            break;
          case CommandKind::Mac:
            if (c.gbufIdx < 0 ||
                c.gbufIdx >= static_cast<std::int32_t>(gbuf_entries)) {
                std::snprintf(buf, sizeof(buf),
                              "MAC %llu: gbuf index %d out of range",
                              static_cast<unsigned long long>(c.id),
                              c.gbufIdx);
                return buf;
            }
            if (!gbuf_written[static_cast<std::size_t>(c.gbufIdx)]) {
                std::snprintf(buf, sizeof(buf),
                              "MAC %llu reads unwritten gbuf entry %d",
                              static_cast<unsigned long long>(c.id),
                              c.gbufIdx);
                return buf;
            }
            if (c.outIdx < 0 ||
                c.outIdx >= static_cast<std::int32_t>(output_entries)) {
                std::snprintf(buf, sizeof(buf),
                              "MAC %llu: out index %d out of range",
                              static_cast<unsigned long long>(c.id),
                              c.outIdx);
                return buf;
            }
            if (c.row == kNoRow) {
                std::snprintf(buf, sizeof(buf), "MAC %llu has no row",
                              static_cast<unsigned long long>(c.id));
                return buf;
            }
            out_written[static_cast<std::size_t>(c.outIdx)] = true;
            break;
          case CommandKind::RdOut:
            if (c.outIdx < 0 ||
                c.outIdx >= static_cast<std::int32_t>(output_entries)) {
                std::snprintf(buf, sizeof(buf),
                              "RD-OUT %llu: out index %d out of range",
                              static_cast<unsigned long long>(c.id),
                              c.outIdx);
                return buf;
            }
            if (!out_written[static_cast<std::size_t>(c.outIdx)]) {
                std::snprintf(buf, sizeof(buf),
                              "RD-OUT %llu drains idle out entry %d",
                              static_cast<unsigned long long>(c.id),
                              c.outIdx);
                return buf;
            }
            // Draining frees the accumulator for a new output group.
            out_written[static_cast<std::size_t>(c.outIdx)] = false;
            break;
        }
    }
    return {};
}

} // namespace pimphony

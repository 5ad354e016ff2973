package plan

// Binary plan codec for SessionSpec.Plan. The blob carries only what a
// remote site needs to honor the plan — the node and edge orders — not
// the estimates they were derived from (those stay driver-side, for
// explain output).

import (
	"encoding/binary"
	"fmt"
)

const codecVersion = 1

const flagEmpty = 1 << 0

// Encode renders the plan for SessionSpec.Plan:
//
//	[u8 version=1][u8 flags][u16 nNodes][nNodes × u16][u16 nEdges][nEdges × u16]
//
// little-endian, matching the config blob convention.
func (p *Plan) Encode() []byte {
	out := make([]byte, 0, 6+2*len(p.Nodes)+2*len(p.Edges))
	out = append(out, codecVersion)
	var flags byte
	if p.Empty {
		flags |= flagEmpty
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Nodes)))
	for _, u := range p.Nodes {
		out = binary.LittleEndian.AppendUint16(out, u)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Edges)))
	for _, e := range p.Edges {
		out = binary.LittleEndian.AppendUint16(out, e)
	}
	return out
}

// Decode parses an Encode blob. The decoded plan has no estimates.
func Decode(b []byte) (*Plan, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("plan: blob too short (%d bytes)", len(b))
	}
	if b[0] != codecVersion {
		return nil, fmt.Errorf("plan: unknown codec version %d", b[0])
	}
	if b[1]&^flagEmpty != 0 {
		return nil, fmt.Errorf("plan: unknown flags %#x", b[1])
	}
	p := &Plan{Empty: b[1]&flagEmpty != 0}
	rest := b[2:]
	var err error
	if p.Nodes, rest, err = readU16s(rest, "node order"); err != nil {
		return nil, err
	}
	if p.Edges, rest, err = readU16s(rest, "edge order"); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("plan: %d trailing bytes", len(rest))
	}
	return p, nil
}

func readU16s(b []byte, what string) ([]uint16, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("plan: truncated %s length", what)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < 2*n {
		return nil, nil, fmt.Errorf("plan: truncated %s (want %d entries)", what, n)
	}
	out := make([]uint16, n)
	for i := 0; i < n; i++ {
		out[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return out, b[2*n:], nil
}

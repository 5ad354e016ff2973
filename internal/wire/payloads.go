package wire

import (
	"encoding/binary"
	"fmt"
)

// Falsify is dGPM's workhorse message: the variables X(u,v) newly
// evaluated to false at the sender. Receivers treat every listed variable
// as permanently false (truth values are monotone, §4.1 "once updated from
// true to false, it never changes back").
type Falsify struct {
	Pairs []VarRef
}

func (*Falsify) Kind() Kind { return KindFalsify }

func (m *Falsify) AppendTo(dst []byte) []byte { return appendRefs(dst, m.Pairs) }

func decodeFalsify(b []byte) (Payload, error) {
	r := &reader{b: b}
	pairs, err := r.refs()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &Falsify{Pairs: pairs}, nil
}

// RankBatch is dGPMd's scheduled message: all falsified variables whose
// query node has topological rank Rank, shipped as one batch (§5.1).
// An empty batch is meaningful — it releases the receiver's wait for this
// rank.
type RankBatch struct {
	Rank  uint16
	Pairs []VarRef
}

func (*RankBatch) Kind() Kind { return KindRankBatch }

func (m *RankBatch) AppendTo(dst []byte) []byte {
	dst = appendU16(dst, m.Rank)
	return appendRefs(dst, m.Pairs)
}

func decodeRankBatch(b []byte) (Payload, error) {
	r := &reader{b: b}
	rank, err := r.u16()
	if err != nil {
		return nil, err
	}
	pairs, err := r.refs()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &RankBatch{Rank: rank, Pairs: pairs}, nil
}

// Equation is one Boolean equation X(Target) = ∧ groups (∨ of refs), the
// form derived in §4.1: "X(u,v) is defined by a Boolean equation in terms
// of the variables associated with the children of v". A target with zero
// groups is the constant true (leaf query node).
type Equation struct {
	Target VarRef
	Groups [][]VarRef
}

// EncodedSize reports the wire footprint of one equation; the benefit
// function's m (total size of the equations to be sent, §4.2) sums these.
func (e *Equation) EncodedSize() int {
	n := varRefSize + 2
	for _, g := range e.Groups {
		n += 4 + varRefSize*len(g)
	}
	return n
}

func appendEquations(dst []byte, eqs []Equation) []byte {
	dst = appendU32(dst, uint32(len(eqs)))
	for _, e := range eqs {
		dst = appendRef(dst, e.Target)
		dst = appendU16(dst, uint16(len(e.Groups)))
		for _, g := range e.Groups {
			dst = appendRefs(dst, g)
		}
	}
	return dst
}

func readEquations(r *reader) ([]Equation, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*(varRefSize+2) > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wire: equation count %d exceeds buffer", n)
	}
	eqs := make([]Equation, n)
	for i := range eqs {
		if eqs[i].Target, err = r.ref(); err != nil {
			return nil, err
		}
		ng, err := r.u16()
		if err != nil {
			return nil, err
		}
		eqs[i].Groups = make([][]VarRef, ng)
		for j := range eqs[i].Groups {
			if eqs[i].Groups[j], err = r.refs(); err != nil {
				return nil, err
			}
		}
	}
	return eqs, nil
}

// Push outsources computation to a parent site (§4.2): the closed
// subsystem of still-unevaluated equations reachable from the in-nodes the
// parent watches. The parent inlines equations whose leaves it owns and
// learns which third-party sites feed the rest.
type Push struct {
	Origin uint16 // pushing site's ID
	Eqs    []Equation
}

func (*Push) Kind() Kind { return KindPush }

func (m *Push) AppendTo(dst []byte) []byte {
	dst = appendU16(dst, m.Origin)
	return appendEquations(dst, m.Eqs)
}

func decodePush(b []byte) (Payload, error) {
	r := &reader{b: b}
	origin, err := r.u16()
	if err != nil {
		return nil, err
	}
	eqs, err := readEquations(r)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &Push{Origin: origin, Eqs: eqs}, nil
}

// Reroute implements the dependency-graph rewiring of a push: the sender
// asks the receiver to deliver future falsifications of variables on the
// listed in-nodes to site Dest as well (edge (Sj,Si) replaced by (Sj,Sk),
// §4.2).
type Reroute struct {
	Dest  uint16
	Nodes []uint32
}

func (*Reroute) Kind() Kind { return KindReroute }

func (m *Reroute) AppendTo(dst []byte) []byte {
	dst = appendU16(dst, m.Dest)
	dst = appendU32(dst, uint32(len(m.Nodes)))
	for _, v := range m.Nodes {
		dst = appendU32(dst, v)
	}
	return dst
}

func decodeReroute(b []byte) (Payload, error) {
	r := &reader{b: b}
	dest, err := r.u16()
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*4 > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wire: node count %d exceeds buffer", n)
	}
	nodes := make([]uint32, n)
	for i := range nodes {
		if nodes[i], err = r.u32(); err != nil {
			return nil, err
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &Reroute{Dest: dest, Nodes: nodes}, nil
}

// Subgraph ships graph structure: global node IDs with labels plus edges.
// disHHK ships candidate-induced subgraphs; Match ships entire fragments.
// This is exactly the shipment the paper's partition-bounded algorithms
// avoid.
type Subgraph struct {
	Nodes  []uint32 // global IDs
	Labels []uint16 // parallel to Nodes
	Edges  [][2]uint32
}

func (*Subgraph) Kind() Kind { return KindSubgraph }

func (m *Subgraph) AppendTo(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(m.Nodes)))
	for i, v := range m.Nodes {
		dst = appendU32(dst, v)
		dst = appendU16(dst, m.Labels[i])
	}
	dst = appendU32(dst, uint32(len(m.Edges)))
	for _, e := range m.Edges {
		dst = appendU32(dst, e[0])
		dst = appendU32(dst, e[1])
	}
	return dst
}

func decodeSubgraph(b []byte) (Payload, error) {
	r := &reader{b: b}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*6 > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wire: subgraph node count %d exceeds buffer", n)
	}
	m := &Subgraph{Nodes: make([]uint32, n), Labels: make([]uint16, n)}
	for i := range m.Nodes {
		if m.Nodes[i], err = r.u32(); err != nil {
			return nil, err
		}
		if m.Labels[i], err = r.u16(); err != nil {
			return nil, err
		}
	}
	ne, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(ne)*8 > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wire: subgraph edge count %d exceeds buffer", ne)
	}
	m.Edges = make([][2]uint32, ne)
	for i := range m.Edges {
		if m.Edges[i][0], err = r.u32(); err != nil {
			return nil, err
		}
		if m.Edges[i][1], err = r.u32(); err != nil {
			return nil, err
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Vectors is dMes's vertex-centric message: per boundary vertex, the bit
// vector of query nodes it still matches (one bit per query node). This
// full-vector-per-superstep traffic is why dMes ships ~2 orders of
// magnitude more data than dGPM in Exp-1.
type Vectors struct {
	NumQ    uint16 // |Vq|, fixes the per-vertex bit width
	Nodes   []uint32
	Bitsets [][]byte // each ceil(NumQ/8) bytes
}

func (*Vectors) Kind() Kind { return KindVectors }

func (m *Vectors) AppendTo(dst []byte) []byte {
	dst = appendU16(dst, m.NumQ)
	dst = appendU32(dst, uint32(len(m.Nodes)))
	for i, v := range m.Nodes {
		dst = appendU32(dst, v)
		dst = append(dst, m.Bitsets[i]...)
	}
	return dst
}

func decodeVectors(b []byte) (Payload, error) {
	r := &reader{b: b}
	nq, err := r.u16()
	if err != nil {
		return nil, err
	}
	width := (int(nq) + 7) / 8
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*uint64(4+width) > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wire: vector count %d exceeds buffer", n)
	}
	m := &Vectors{NumQ: nq, Nodes: make([]uint32, n), Bitsets: make([][]byte, n)}
	// One backing array for every bitset, sub-sliced with capped capacity
	// so an append to one cannot run into its neighbour.
	bits := make([]byte, int(n)*width)
	for i := range m.Nodes {
		if m.Nodes[i], err = r.u32(); err != nil {
			return nil, err
		}
		if r.off+width > len(r.b) {
			return nil, fmt.Errorf("wire: truncated bitset")
		}
		m.Bitsets[i] = bits[i*width : (i+1)*width : (i+1)*width]
		copy(m.Bitsets[i], r.b[r.off:])
		r.off += width
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// EqSystem is dGPMt's round-1 upload: the fragment's Boolean equations
// for its root/in-node variables in terms of virtual-node variables
// (§5.2). FalseVars lists variables the site already evaluated to false.
type EqSystem struct {
	Frag      uint16
	Eqs       []Equation
	FalseVars []VarRef
}

func (*EqSystem) Kind() Kind { return KindEqSystem }

func (m *EqSystem) AppendTo(dst []byte) []byte {
	dst = appendU16(dst, m.Frag)
	dst = appendEquations(dst, m.Eqs)
	return appendRefs(dst, m.FalseVars)
}

func decodeEqSystem(b []byte) (Payload, error) {
	r := &reader{b: b}
	frag, err := r.u16()
	if err != nil {
		return nil, err
	}
	eqs, err := readEquations(r)
	if err != nil {
		return nil, err
	}
	fv, err := r.refs()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &EqSystem{Frag: frag, Eqs: eqs, FalseVars: fv}, nil
}

// Values is dGPMt's round-2 download: the solved values of the virtual
// variables a site depends on. Listed variables are false; every other
// requested variable is true.
type Values struct {
	False []VarRef
}

func (*Values) Kind() Kind { return KindValues }

func (m *Values) AppendTo(dst []byte) []byte { return appendRefs(dst, m.False) }

func decodeValues(b []byte) (Payload, error) {
	r := &reader{b: b}
	f, err := r.refs()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &Values{False: f}, nil
}

// Matches carries a site's local match relation Q(Fi) to the coordinator
// for final assembly (phase 3 of dGPM). Counted as result bytes, not DS.
type Matches struct {
	Frag  uint16
	Pairs []VarRef
}

func (*Matches) Kind() Kind { return KindMatches }

func (m *Matches) AppendTo(dst []byte) []byte {
	dst = appendU16(dst, m.Frag)
	return appendRefs(dst, m.Pairs)
}

func decodeMatches(b []byte) (Payload, error) {
	r := &reader{b: b}
	frag, err := r.u16()
	if err != nil {
		return nil, err
	}
	pairs, err := r.refs()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &Matches{Frag: frag, Pairs: pairs}, nil
}

// Control carries coordinator/protocol control traffic. Op is
// algorithm-specific; Arg and Flag are small scalars (superstep number,
// changed flag, vote).
type Control struct {
	Op   uint8
	Arg  uint32
	Flag bool
}

func (*Control) Kind() Kind { return KindControl }

func (m *Control) AppendTo(dst []byte) []byte {
	dst = append(dst, m.Op)
	dst = appendU32(dst, m.Arg)
	if m.Flag {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeControl(b []byte) (Payload, error) {
	if len(b) != 6 {
		return nil, fmt.Errorf("wire: control must be 6 bytes, got %d", len(b))
	}
	if b[5] > 1 {
		// Keep the encoding canonical: exactly one byte string per
		// payload value (the DS accounting depends on it).
		return nil, fmt.Errorf("wire: control flag byte %d", b[5])
	}
	return &Control{Op: b[0], Arg: binary.LittleEndian.Uint32(b[1:5]), Flag: b[5] != 0}, nil
}

// Delta is the live-update message. Routed from the coordinator to the
// site owning the edges' source nodes, Dels/Ins list edges to remove
// from/add to the resident fragment; InsLabels runs parallel to Ins
// with the target node's label (the receiver may not know a crossing
// target yet; the target's OWNER it derives from its assignment
// directory). Between sites, Watch and Unwatch notify a node's owner
// that the sender started/stopped holding the listed in-nodes as
// virtual — the live maintenance of the §2.2 dependency annotations.
// Standing-query maintenance sessions receive the same Dels to refine
// their engines in O(|AFF|).
type Delta struct {
	Dels      [][2]uint32
	Ins       [][2]uint32
	InsLabels []uint16 // parallel to Ins
	Watch     []uint32
	Unwatch   []uint32
}

func (*Delta) Kind() Kind { return KindDelta }

func appendEdges(dst []byte, es [][2]uint32) []byte {
	dst = appendU32(dst, uint32(len(es)))
	for _, e := range es {
		dst = appendU32(dst, e[0])
		dst = appendU32(dst, e[1])
	}
	return dst
}

func appendNodes(dst []byte, ns []uint32) []byte {
	dst = appendU32(dst, uint32(len(ns)))
	for _, v := range ns {
		dst = appendU32(dst, v)
	}
	return dst
}

func (m *Delta) AppendTo(dst []byte) []byte {
	dst = appendEdges(dst, m.Dels)
	dst = appendEdges(dst, m.Ins)
	for i := range m.Ins {
		dst = appendU16(dst, m.InsLabels[i])
	}
	dst = appendNodes(dst, m.Watch)
	return appendNodes(dst, m.Unwatch)
}

func (r *reader) edges() ([][2]uint32, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*8 > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wire: edge count %d exceeds buffer", n)
	}
	out := make([][2]uint32, n)
	for i := range out {
		if out[i][0], err = r.u32(); err != nil {
			return nil, err
		}
		if out[i][1], err = r.u32(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *reader) nodes() ([]uint32, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*4 > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wire: node count %d exceeds buffer", n)
	}
	out := make([]uint32, n)
	for i := range out {
		if out[i], err = r.u32(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func decodeDelta(b []byte) (Payload, error) {
	r := &reader{b: b}
	m := &Delta{}
	var err error
	if m.Dels, err = r.edges(); err != nil {
		return nil, err
	}
	if m.Ins, err = r.edges(); err != nil {
		return nil, err
	}
	if len(m.Ins) > 0 {
		m.InsLabels = make([]uint16, len(m.Ins))
		for i := range m.Ins {
			if m.InsLabels[i], err = r.u16(); err != nil {
				return nil, err
			}
		}
	}
	if m.Watch, err = r.nodes(); err != nil {
		return nil, err
	}
	if m.Unwatch, err = r.nodes(); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

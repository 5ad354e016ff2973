package graph

// Binary serialization. The binary format is what Match and
// disHHK "ship over the wire" in the experiments, so its exact byte size
// matters: data-shipment numbers for the ship-the-graph baselines are the
// encoded sizes produced here (§3.1, §6).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const binMagic = "DGSG1\n"

// EncodedSize reports the exact number of bytes WriteBinary will emit,
// without encoding. Used for data-shipment accounting.
func EncodedSize(g *Graph) int64 {
	sz := int64(len(binMagic))
	sz += 8 // numNodes
	sz += 8 // numEdges
	sz += 4 // numLabels
	for _, name := range g.dict.Names() {
		sz += int64(4 + len(name))
	}
	sz += int64(2 * g.NumNodes())       // labels
	sz += int64(8 * (g.NumNodes() + 1)) // succOff
	sz += int64(4 * g.NumEdges())       // succ
	return sz
}

// WriteBinary encodes g in the DGSG1 format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	var buf [8]byte
	put64 := func(x uint64) error {
		binary.LittleEndian.PutUint64(buf[:], x)
		_, err := bw.Write(buf[:8])
		return err
	}
	put32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], x)
		_, err := bw.Write(buf[:4])
		return err
	}
	if err := put64(uint64(g.NumNodes())); err != nil {
		return err
	}
	if err := put64(uint64(g.NumEdges())); err != nil {
		return err
	}
	// One snapshot serves both the count and the loop, so a concurrent
	// Intern cannot skew the encoding.
	names := g.dict.Names()
	if err := put32(uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := put32(uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	for _, l := range g.labels {
		binary.LittleEndian.PutUint16(buf[:2], uint16(l))
		if _, err := bw.Write(buf[:2]); err != nil {
			return err
		}
	}
	for _, off := range g.succOff {
		if err := put64(off); err != nil {
			return err
		}
	}
	for _, w := range g.succ {
		if err := put32(w); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a DGSG1 graph.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var buf [8]byte
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:8]), nil
	}
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:4]), nil
	}
	nn, err := get64()
	if err != nil {
		return nil, err
	}
	ne, err := get64()
	if err != nil {
		return nil, err
	}
	nl, err := get32()
	if err != nil {
		return nil, err
	}
	if nl == 0 {
		return nil, fmt.Errorf("graph: dictionary must contain the reserved label")
	}
	if nl > 1<<16 {
		return nil, fmt.Errorf("graph: dictionary holds %d labels, max %d", nl, 1<<16)
	}
	dictNames := make([]string, 0, nl)
	for i := uint32(0); i < nl; i++ {
		ln, err := get32()
		if err != nil {
			return nil, err
		}
		name := make([]byte, ln)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		dictNames = append(dictNames, string(name))
	}
	g := &Graph{dict: NewDictFromNames(dictNames)}
	g.labels = make([]Label, nn)
	for i := range g.labels {
		if _, err := io.ReadFull(br, buf[:2]); err != nil {
			return nil, err
		}
		g.labels[i] = Label(binary.LittleEndian.Uint16(buf[:2]))
	}
	g.succOff = make([]uint64, nn+1)
	for i := range g.succOff {
		x, err := get64()
		if err != nil {
			return nil, err
		}
		g.succOff[i] = x
	}
	if g.succOff[nn] != ne {
		return nil, fmt.Errorf("graph: offset table inconsistent with edge count")
	}
	g.succ = make([]NodeID, ne)
	for i := range g.succ {
		x, err := get32()
		if err != nil {
			return nil, err
		}
		if uint64(x) >= nn {
			return nil, fmt.Errorf("graph: edge target %d out of range", x)
		}
		g.succ[i] = x
	}
	return g, nil
}

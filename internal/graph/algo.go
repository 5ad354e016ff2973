package graph

// This file collects the classic graph algorithms the paper leans on:
// Tarjan's SCC decomposition (used to test whether Q or G is a DAG, §5.1),
// topological order, BFS, and induced subgraphs (used by the disHHK
// baseline, which ships candidate-induced subgraphs).

// SCC computes strongly connected components with Tarjan's algorithm [32]
// (iterative, so million-node graphs do not overflow the goroutine stack).
// It returns comp, a map from node to component index, and the number of
// components. Component indices are in reverse topological order of the
// condensation (i.e., if comp[v] < comp[w] then w cannot reach v through
// a different component).
func SCC(g *Graph) (comp []int32, n int) {
	nn := g.NumNodes()
	const unvisited = -1
	index := make([]int32, nn)
	low := make([]int32, nn)
	onStack := make([]bool, nn)
	comp = make([]int32, nn)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []NodeID
	var next int32 = 0
	var ncomp int32 = 0

	type frame struct {
		v  NodeID
		ei int // next successor index to visit
	}
	var call []frame

	for root := 0; root < nn; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{NodeID(root), 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, NodeID(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			succ := g.Succ(f.v)
			if f.ei < len(succ) {
				w := succ[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-visit: pop.
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := &call[len(call)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, int(ncomp)
}

// IsDAG reports whether g has no directed cycle. Self-loops count as cycles.
func IsDAG(g *Graph) bool {
	for v := 0; v < g.NumNodes(); v++ {
		if g.HasEdge(NodeID(v), NodeID(v)) {
			return false
		}
	}
	_, n := SCC(g)
	return n == g.NumNodes()
}

// TopoOrder returns a topological order of a DAG (edges point from earlier
// to later positions) and ok=false if g is cyclic.
func TopoOrder(g *Graph) (order []NodeID, ok bool) {
	n := g.NumNodes()
	indeg := make([]int32, n)
	for _, w := range g.succ {
		indeg[w]++
	}
	queue := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	order = make([]NodeID, 0, n)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, w := range g.Succ(v) {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// BFSFrom runs a breadth-first traversal over out-edges from src and calls
// visit(v, depth) for each reachable node, stopping if visit returns false.
func BFSFrom(g *Graph, src NodeID, visit func(v NodeID, depth int) bool) {
	seen := make(map[NodeID]int)
	frontier := []NodeID{src}
	seen[src] = 0
	if !visit(src, 0) {
		return
	}
	depth := 0
	for len(frontier) > 0 {
		depth++
		var next []NodeID
		for _, v := range frontier {
			for _, w := range g.Succ(v) {
				if _, ok := seen[w]; ok {
					continue
				}
				seen[w] = depth
				if !visit(w, depth) {
					return
				}
				next = append(next, w)
			}
		}
		frontier = next
	}
}

// IsTree reports whether g is a rooted out-tree or out-forest: every node
// has in-degree ≤ 1 and there is no cycle. The dGPMt algorithm (§5.2)
// requires tree data graphs. Roots (in-degree 0) are returned.
func IsTree(g *Graph) (roots []NodeID, ok bool) {
	n := g.NumNodes()
	indeg := make([]int32, n)
	for _, w := range g.succ {
		indeg[w]++
		if indeg[w] > 1 {
			return nil, false
		}
	}
	if !IsDAG(g) {
		return nil, false
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			roots = append(roots, NodeID(v))
		}
	}
	return roots, true
}

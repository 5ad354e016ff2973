// Impossibility: the empirical face of Theorem 1 (§3.1).
//
// The paper proves no distributed simulation algorithm is parallel
// scalable: with the Fig-2 gadget — Q0 = A⇄B over a chain
// A1→B1→A2→B2→…→An, one (Ai,Bi) pair per site — deciding whether the
// chain closes into a cycle requires information to cross Θ(n) sites no
// matter the algorithm. This example runs dGPM on the gadget for growing
// n and shows the causal falsification chain: messages and shipped bytes
// grow linearly with the number of fragments even though |Q| and every
// fragment stay constant-size. (On the closed cycle, everything matches
// and there is nothing to falsify.)
//
// Run: go run ./examples/impossibility
package main

import (
	"context"
	"fmt"
	"log"

	"dgs"
)

func main() {
	dict := dgs.NewDict()
	q := dgs.ChainQuery(dict)
	fmt.Println("Q0 = A⇄B; G0 = broken chain with one (Ai,Bi) pair per site")
	fmt.Printf("%6s %10s %12s %12s\n", "sites", "match", "messages", "DS (bytes)")

	ctx := context.Background()
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		g := dgs.GenChain(dict, n, false) // broken: the last B has no successor
		part, err := dgs.PartitionWith(g, "chain", n)
		if err != nil {
			log.Fatal(err)
		}
		dep, err := dgs.Deploy(part)
		if err != nil {
			log.Fatal(err)
		}
		ok, st, err := dep.QueryBoolean(ctx, q)
		dep.Close()
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			log.Fatal("broken chain must not match")
		}
		fmt.Printf("%6d %10v %12d %12d\n", n, ok, st.DataMsgs, st.DataBytes)
	}

	fmt.Println("\nclosed cycle for contrast (everything matches, nothing to falsify):")
	for _, n := range []int{4, 64} {
		g := dgs.GenChain(dict, n, true)
		part, err := dgs.PartitionWith(g, "chain", n)
		if err != nil {
			log.Fatal(err)
		}
		dep, err := dgs.Deploy(part)
		if err != nil {
			log.Fatal(err)
		}
		ok, st, err := dep.QueryBoolean(ctx, q)
		dep.Close()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatal("closed cycle must match")
		}
		fmt.Printf("%6d %10v %12d %12d\n", n, ok, st.DataMsgs, st.DataBytes)
	}

	fmt.Println("\nmessages grow with the number of fragments — response time and")
	fmt.Println("shipment cannot be bounded by |Q| and |Fm| alone (Theorem 1) ✓")
}

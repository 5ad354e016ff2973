// Package regbad violates every regconsistent surface: a non-exhaustive
// Algorithm switch, an incomplete name map, an incomplete marked
// matrix, an incomplete marked name table, a duplicate registration, an unknown session algorithm, and
// an unknown partition strategy.
package regbad

type Algorithm int

const (
	AlgoA Algorithm = iota
	AlgoB
	AlgoC
)

func pick(a Algorithm) string {
	switch a { // want "switch over Algorithm misses AlgoC"
	case AlgoA:
		return "a"
	case AlgoB:
		return "b"
	default:
		return "?"
	}
}

var byName = map[string]Algorithm{ // want "map over Algorithm misses AlgoB, AlgoC"
	"a": AlgoA,
}

//dgsvet:exhaustive
var matrix = []Algorithm{AlgoA, AlgoB} // want "exhaustive literal over Algorithm misses AlgoC"

//dgsvet:exhaustive
var names = [...]string{AlgoA: "a", AlgoC: "c"} // want "exhaustive table over Algorithm misses AlgoB"

type SessionSpec struct {
	Algo   string
	Config []byte
}

func RegisterAlgorithm(name string, f func()) {}

func init() {
	RegisterAlgorithm("alpha", nil)
	RegisterAlgorithm("alpha", nil) // want "algorithm \"alpha\" registered more than once"
}

func open() SessionSpec {
	return SessionSpec{Algo: "beta"} // want "SessionSpec.Algo \"beta\" matches no RegisterAlgorithm call"
}

type part struct {
	name string
	fn   func()
}

func RegisterPartitioner(p part) {}

func PartitionBy(g any, name string, n int) {}

func init() {
	RegisterPartitioner(part{"random", func() {}})
	PartitionBy(nil, "random", 2)
	PartitionBy(nil, "nope", 4) // want "partition strategy \"nope\" matches no registered partitioner"
}
